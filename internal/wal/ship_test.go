package wal

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"amoeba/internal/vdisk"
)

func openShipLog(t *testing.T, blocks uint32) (*Log, *vdisk.Disk) {
	t.Helper()
	disk, err := vdisk.New(blocks, 256)
	if err != nil {
		t.Fatal(err)
	}
	l, err := Open(disk, Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	if err := l.Recover(nil, nil); err != nil {
		t.Fatal(err)
	}
	return l, disk
}

// TestSinkSeesCommitsBeforeTickets: the commit sink receives every
// record of a batch — tagged with its sequence, in stage order — before
// the batch's ticket completes, and only records staged after the sink
// was installed are delivered.
func TestSinkSeesCommitsBeforeTickets(t *testing.T) {
	l, _ := openShipLog(t, 128)
	// A record from before the sink: never delivered.
	tk, err := l.Append([]byte("early"))
	if err != nil {
		t.Fatal(err)
	}
	if err := tk.Wait(); err != nil {
		t.Fatal(err)
	}

	var got []Record
	shipped := make(chan struct{}, 16)
	l.SetSink(func(recs []Record) {
		got = append(got, recs...)
		shipped <- struct{}{}
	})
	for i := 0; i < 3; i++ {
		tk, err := l.Append([]byte(fmt.Sprintf("r%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		if err := tk.Wait(); err != nil {
			t.Fatal(err)
		}
		// The sink ran strictly before Wait returned (the pass ships
		// before it completes the ticket), so the record is already here.
		select {
		case <-shipped:
		default:
			t.Fatalf("record %d: ticket completed before the sink ran", i)
		}
	}
	if len(got) != 3 {
		t.Fatalf("sink saw %d records, want 3", len(got))
	}
	for i, r := range got {
		if r.Seq != uint64(i+2) || r.Checkpoint || string(r.Data) != fmt.Sprintf("r%d", i) {
			t.Fatalf("record %d: %+v", i, r)
		}
	}

	// Checkpoints ship through the same sink, flagged.
	if err := l.Checkpoint([]byte("snap")); err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 || !got[3].Checkpoint || string(got[3].Data) != "snap" {
		t.Fatalf("checkpoint not shipped: %+v", got)
	}

	// Detach: later commits stay local.
	l.SetSink(nil)
	tk, _ = l.Append([]byte("quiet"))
	tk.Wait()
	if len(got) != 4 {
		t.Fatal("detached sink still receives records")
	}
}

// TestStaleWaiterDoesNotLead: a waiter whose batch committed while it
// queued for the commit must return without a pass of its own.
// Committing whatever was staged meanwhile splits the next batch, whose
// own waiters are about to lead it — on a replicated primary that is
// one extra ship round (and sync) per stale waiter. Eight appenders
// against a sink that costs 50µs share ships several records at a time
// only when stale waiters stand aside.
func TestStaleWaiterDoesNotLead(t *testing.T) {
	l, _ := openShipLog(t, 4096)
	var calls, recs atomic.Int64
	l.SetSink(func(batch []Record) {
		time.Sleep(50 * time.Microsecond)
		calls.Add(1)
		recs.Add(int64(len(batch)))
	})
	const writers, per = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				tk, err := l.Append([]byte("stale-waiter"))
				if err == nil {
					err = tk.Wait()
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if recs.Load() != writers*per {
		t.Fatalf("sink saw %d records, want %d", recs.Load(), writers*per)
	}
	perCall := float64(recs.Load()) / float64(calls.Load())
	t.Logf("%d records in %d ship rounds (%.2f records/round)", recs.Load(), calls.Load(), perCall)
	if perCall < 3 {
		t.Fatalf("%.2f records per ship round, want >= 3: stale waiters are splitting batches", perCall)
	}
}

// gatedDisk blocks every Sync until the test feeds it a token, so a
// batch can be held mid-commit deterministically.
type gatedDisk struct {
	*vdisk.Disk
	gate chan struct{}
}

func (d *gatedDisk) Sync() error {
	<-d.gate
	return d.Disk.Sync()
}

// TestBarrierCoversInFlightBatch: Barrier must not return while a
// batch staged before the call is still being committed — it is the
// fence that keeps observing replies ("entry exists", reads) from
// acknowledging state a crash would forget.
func TestBarrierCoversInFlightBatch(t *testing.T) {
	disk, err := vdisk.New(128, 256)
	if err != nil {
		t.Fatal(err)
	}
	g := &gatedDisk{Disk: disk, gate: make(chan struct{}, 1)}
	g.gate <- struct{}{} // the format-time superblock sync
	l, err := Open(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		close(g.gate) // let teardown syncs through
		l.Close()
	})
	if err := l.Recover(nil, nil); err != nil {
		t.Fatal(err)
	}

	// An empty log: Barrier is free.
	if err := l.Barrier(); err != nil {
		t.Fatal(err)
	}

	tk, err := l.Append([]byte("observed-by-a-duplicate"))
	if err != nil {
		t.Fatal(err)
	}
	// The appender's Wait leads the commit and blocks in the gated Sync.
	waited := leadInBackground(l, tk)
	barrier := make(chan error, 1)
	go func() { barrier <- l.Barrier() }()
	select {
	case err := <-barrier:
		t.Fatalf("barrier returned (%v) while the batch was mid-commit", err)
	case <-time.After(30 * time.Millisecond):
	}
	g.gate <- struct{}{} // release the sync
	if err := <-barrier; err != nil {
		t.Fatalf("barrier after release: %v", err)
	}
	if err := <-waited; err != nil {
		t.Fatal(err)
	}
}
