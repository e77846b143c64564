package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"amoeba/internal/vdisk"
)

func newDisk(t *testing.T, nblocks uint32, bs int) *vdisk.Disk {
	t.Helper()
	d, err := vdisk.New(nblocks, bs)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func openLog(t *testing.T, d *vdisk.Disk, opts Options) *Log {
	t.Helper()
	l, err := Open(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

// recoverAll recovers l, returning the restored snapshot (nil if none)
// and the replayed records.
func recoverAll(t *testing.T, l *Log) ([]byte, [][]byte) {
	t.Helper()
	var snap []byte
	var recs [][]byte
	err := l.Recover(
		func(s []byte) error {
			snap = append([]byte(nil), s...)
			recs = nil // a newer checkpoint supersedes earlier records
			return nil
		},
		func(r []byte) error {
			recs = append(recs, append([]byte(nil), r...))
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	return snap, recs
}

func mustAppend(t *testing.T, l *Log, rec []byte) {
	t.Helper()
	tk, err := l.Append(rec)
	if err != nil {
		t.Fatal(err)
	}
	if err := tk.Wait(); err != nil {
		t.Fatal(err)
	}
}

func rec(i int) []byte {
	b := make([]byte, 8+i%23)
	binary.BigEndian.PutUint64(b, uint64(i))
	return b
}

func TestAppendReplayRoundTrip(t *testing.T) {
	d := newDisk(t, 64, 128)
	l := openLog(t, d, Options{})
	recoverAll(t, l)
	const n = 40
	for i := 0; i < n; i++ {
		mustAppend(t, l, rec(i))
	}
	l.Close()

	l2 := openLog(t, d, Options{})
	snap, recs := recoverAll(t, l2)
	if snap != nil {
		t.Fatalf("unexpected snapshot")
	}
	if len(recs) != n {
		t.Fatalf("replayed %d records, want %d", len(recs), n)
	}
	for i, r := range recs {
		if !bytes.Equal(r, rec(i)) {
			t.Fatalf("record %d diverged", i)
		}
	}
	// The reopened log must keep appending where the old one stopped.
	mustAppend(t, l2, rec(n))
	l2.Close()
	l3 := openLog(t, d, Options{})
	_, recs = recoverAll(t, l3)
	if len(recs) != n+1 {
		t.Fatalf("after reopen+append: %d records, want %d", len(recs), n+1)
	}
}

func TestCheckpointTruncatesAndRestores(t *testing.T) {
	d := newDisk(t, 64, 128)
	l := openLog(t, d, Options{})
	recoverAll(t, l)
	for i := 0; i < 10; i++ {
		mustAppend(t, l, rec(i))
	}
	if err := l.Checkpoint([]byte("state@10")); err != nil {
		t.Fatal(err)
	}
	for i := 10; i < 15; i++ {
		mustAppend(t, l, rec(i))
	}
	l.Close()

	l2 := openLog(t, d, Options{})
	snap, recs := recoverAll(t, l2)
	if string(snap) != "state@10" {
		t.Fatalf("snapshot %q, want state@10", snap)
	}
	if len(recs) != 5 {
		t.Fatalf("replayed %d records after checkpoint, want 5", len(recs))
	}
	if !bytes.Equal(recs[0], rec(10)) {
		t.Fatal("first post-checkpoint record wrong")
	}
}

// TestCheckpointMidLogSupersedes: a crash between the checkpoint commit
// and the superblock update leaves the scan starting BEFORE the
// checkpoint; the mid-log checkpoint frame must reset replay state.
func TestCheckpointMidLogSupersedes(t *testing.T) {
	d := newDisk(t, 64, 128)
	l := openLog(t, d, Options{})
	recoverAll(t, l)
	mustAppend(t, l, []byte("before"))
	// Stage a checkpoint frame by hand, committing it (the Wait leads)
	// WITHOUT the superblock update — exactly the torn crash window.
	tk, _, _, err := l.stage(kindCheckpoint, []byte("snap"))
	if err != nil {
		t.Fatal(err)
	}
	if err := tk.Wait(); err != nil {
		t.Fatal(err)
	}
	mustAppend(t, l, []byte("after"))
	l.Close()

	l2 := openLog(t, d, Options{})
	snap, recs := recoverAll(t, l2)
	if string(snap) != "snap" {
		t.Fatalf("snapshot %q, want snap", snap)
	}
	if len(recs) != 1 || string(recs[0]) != "after" {
		t.Fatalf("recs %q, want [after]", recs)
	}
}

func TestWrapAroundWithCheckpoints(t *testing.T) {
	d := newDisk(t, 16, 64) // tiny: 15 arena blocks × 64 B
	l := openLog(t, d, Options{})
	recoverAll(t, l)
	payload := bytes.Repeat([]byte{0xAB}, 48)
	var kept int
	for i := 0; i < 200; i++ {
		r := append(payload[:len(payload):len(payload)], byte(i))
		tk, err := l.Append(r)
		if err == ErrFull {
			if err := l.Checkpoint([]byte{byte(kept)}); err != nil {
				t.Fatal(err)
			}
			kept = 0
			tk, err = l.Append(r)
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := tk.Wait(); err != nil {
			t.Fatal(err)
		}
		kept++
	}
	l.Close()
	l2 := openLog(t, d, Options{})
	_, recs := recoverAll(t, l2)
	if len(recs) != kept {
		t.Fatalf("replayed %d records, want %d since the last checkpoint", len(recs), kept)
	}
}

func TestTornTailTruncates(t *testing.T) {
	for _, tear := range []string{"flip-byte", "zero-tail", "garbage-tail"} {
		t.Run(tear, func(t *testing.T) {
			d := newDisk(t, 64, 128)
			l := openLog(t, d, Options{})
			recoverAll(t, l)
			for i := 0; i < 8; i++ {
				mustAppend(t, l, rec(i))
			}
			head := l.head
			l.Close()

			// Corrupt the bytes of the LAST record on a clone.
			c := d.Clone()
			last := head - uint64(frameHeader+len(rec(7)))
			mangle := func(off uint64, b byte, xor bool) {
				blk, err := c.Read(l.blockOf(off))
				if err != nil {
					t.Fatal(err)
				}
				if xor {
					blk[off%l.bs] ^= b
				} else {
					blk[off%l.bs] = b
				}
				if err := c.Write(l.blockOf(off), blk); err != nil {
					t.Fatal(err)
				}
			}
			switch tear {
			case "flip-byte":
				mangle(last+frameHeader, 0x5A, true)
			case "zero-tail":
				for o := last; o < head; o++ {
					mangle(o, 0, false)
				}
			case "garbage-tail":
				for o := last; o < head; o++ {
					mangle(o, byte(0x33+o), false)
				}
			}
			lr, err := Open(c, Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer lr.Close()
			_, recs := recoverAll(t, lr)
			if len(recs) != 7 {
				t.Fatalf("replayed %d records, want 7 (torn tail truncated)", len(recs))
			}
			// The truncated log accepts fresh appends over the tear.
			mustAppend(t, lr, []byte("fresh"))
		})
	}
}

// slowSync models a disk whose durability point costs real time (a
// disk flush); it is what makes group-commit batching observable.
type slowSync struct {
	*vdisk.Disk
	delay time.Duration
}

func (s *slowSync) Sync() error {
	time.Sleep(s.delay)
	return s.Disk.Sync()
}

func TestGroupCommitBatchesSyncs(t *testing.T) {
	d := newDisk(t, 256, 256)
	l, err := Open(&slowSync{Disk: d, delay: 200 * time.Microsecond}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	recoverAll(t, l)
	const writers, per = 16, 25
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				tk, err := l.Append(rec(w*per + i))
				if err != nil {
					t.Error(err)
					return
				}
				if err := tk.Wait(); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	s := l.Stats()
	if s.Appends != writers*per {
		t.Fatalf("appends %d, want %d", s.Appends, writers*per)
	}
	if s.Commits >= s.Appends {
		t.Fatalf("group commit did not batch: %d commits for %d appends", s.Commits, s.Appends)
	}
	t.Logf("%d appends in %d commits (%.1f records/sync)",
		s.Appends, s.Commits, float64(s.Appends)/float64(s.Commits))
	l.Close()
	l2 := openLog(t, d, Options{})
	_, recs := recoverAll(t, l2)
	if len(recs) != writers*per {
		t.Fatalf("replayed %d records, want %d", len(recs), writers*per)
	}
}

func TestFullLogRejectsAppends(t *testing.T) {
	d := newDisk(t, 8, 64)
	l := openLog(t, d, Options{})
	recoverAll(t, l)
	var got bool
	for i := 0; i < 100; i++ {
		_, err := l.Append(bytes.Repeat([]byte{1}, 40))
		if err == ErrFull {
			got = true
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if !got {
		t.Fatal("never saw ErrFull")
	}
	select {
	case <-l.Pressure():
	default:
		t.Fatal("no pressure signal at high water")
	}
}

func TestAppendBeforeRecoverFails(t *testing.T) {
	d := newDisk(t, 16, 64)
	l := openLog(t, d, Options{})
	if _, err := l.Append([]byte("x")); err != ErrNotRecovered {
		t.Fatalf("got %v, want ErrNotRecovered", err)
	}
}

func TestGeometryMismatchRejected(t *testing.T) {
	d := newDisk(t, 64, 128)
	l := openLog(t, d, Options{})
	recoverAll(t, l)
	l.Close()
	d2 := newDisk(t, 64, 128)
	// Transplant the superblock with a lying geometry field, re-CRC'd
	// so the geometry check (not the CRC) is what rejects it.
	blk, _ := d.Read(0)
	binary.BigEndian.PutUint32(blk[12:], 99)
	binary.BigEndian.PutUint32(blk[superSize-4:], crc32.Checksum(blk[:superSize-4], crcTable))
	if err := d2.Write(0, blk); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(d2, Options{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("got %v, want ErrCorrupt", err)
	}
	// A flipped CRC is also rejected.
	blk[superSize-4]++
	d3 := newDisk(t, 64, 128)
	if err := d3.Write(0, blk); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(d3, Options{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("got %v, want ErrCorrupt", err)
	}
}

func TestRecoveryReplayManyRecords(t *testing.T) {
	// Acceptance: replaying ≥10k records must be fast; this test only
	// asserts correctness of a large replay (the benchmark times it).
	d := newDisk(t, 4096, 1024)
	l := openLog(t, d, Options{})
	recoverAll(t, l)
	const n = 10000
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < n/8; i++ {
				tk, err := l.Append(rec(w*(n/8) + i))
				if err != nil {
					t.Error(err)
					return
				}
				if err := tk.Wait(); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	l.Close()
	l2 := openLog(t, d, Options{})
	_, recs := recoverAll(t, l2)
	if len(recs) != n {
		t.Fatalf("replayed %d, want %d", len(recs), n)
	}
	seen := make(map[uint64]bool, n)
	for _, r := range recs {
		seen[binary.BigEndian.Uint64(r)] = true
	}
	if len(seen) != n {
		t.Fatalf("lost records: %d unique of %d", len(seen), n)
	}
}

func TestStatsUsed(t *testing.T) {
	d := newDisk(t, 64, 128)
	l := openLog(t, d, Options{})
	recoverAll(t, l)
	mustAppend(t, l, []byte("abc"))
	s := l.Stats()
	if want := uint64(frameHeader + 3); s.Used != want {
		t.Fatalf("used %d, want %d", s.Used, want)
	}
	if s.Capacity == 0 {
		t.Fatal("zero capacity")
	}
	if err := l.Checkpoint([]byte("s")); err != nil {
		t.Fatal(err)
	}
	if got := l.Stats().Checkpoints; got != 1 {
		t.Fatalf("checkpoints %d, want 1", got)
	}
}

func TestCloseFlushesStragglers(t *testing.T) {
	d := newDisk(t, 64, 128)
	l := openLog(t, d, Options{})
	recoverAll(t, l)
	// Append without waiting, then close: the final flush must land it.
	if _, err := l.Append([]byte("straggler")); err != nil {
		t.Fatal(err)
	}
	l.Close()
	l2 := openLog(t, d, Options{})
	_, recs := recoverAll(t, l2)
	if len(recs) != 1 || string(recs[0]) != "straggler" {
		t.Fatalf("straggler lost: %q", recs)
	}
}

// TestOpenStartsNoGoroutine: the log has no commit goroutine — every
// batch is committed by one of its waiters, or by Close.
func TestOpenStartsNoGoroutine(t *testing.T) {
	d := newDisk(t, 256, 256)
	before := runtime.NumGoroutine()
	l, err := Open(d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if after := runtime.NumGoroutine(); after != before {
		t.Fatalf("Open: %d goroutines, was %d", after, before)
	}
	recoverAll(t, l)
	for i := 0; i < 1000; i++ {
		mustAppend(t, l, rec(i))
	}
	if after := runtime.NumGoroutine(); after != before {
		t.Fatalf("after 1000 commits: %d goroutines, was %d", after, before)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if after := runtime.NumGoroutine(); after != before {
		t.Fatalf("Close: %d goroutines, was %d", after, before)
	}
}

// gateSync, once armed, blocks Sync until released — freezing a
// leading waiter mid-batch so a test can pile up genuinely staged-but-
// uncommitted records.
type gateSync struct {
	*vdisk.Disk
	armed atomic.Bool
	gate  chan struct{}
}

func (g *gateSync) Sync() error {
	if g.armed.Load() {
		<-g.gate
	}
	return g.Disk.Sync()
}

// leadInBackground waits on tk in a new goroutine — leading its batch's
// commit there — and returns once that pass has taken the batch, so a
// record staged afterwards lands in a distinct batch.
func leadInBackground(l *Log, tk *Ticket) <-chan error {
	waited := make(chan error, 1)
	go func() { waited <- tk.Wait() }()
	for {
		l.mu.Lock()
		taken := l.ticket != tk
		l.mu.Unlock()
		if taken {
			return waited
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestAbandonDropsStagedRecords: Abandon is the crash path — records
// whose group commit had not completed must NOT reach the store (Close
// would flush them), and their waiters must fail with ErrClosed.
func TestAbandonDropsStagedRecords(t *testing.T) {
	d := newDisk(t, 64, 128)
	g := &gateSync{Disk: d, gate: make(chan struct{})}
	l, err := Open(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	recoverAll(t, l)
	g.armed.Store(true)
	// First record: its leader's Sync blocks on the gate.
	t1, err := l.Append([]byte("committed"))
	if err != nil {
		t.Fatal(err)
	}
	w1 := leadInBackground(l, t1)
	// Second record: staged behind the stuck batch, never committed.
	t2, err := l.Append([]byte("staged-only"))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- l.Abandon() }()
	// Only release the stuck batch once Abandon has marked the log
	// (otherwise a waiter could legitimately commit the second batch
	// before the "crash" happens).
	for {
		l.mu.Lock()
		closed := l.closed
		l.mu.Unlock()
		if closed {
			break
		}
		time.Sleep(100 * time.Microsecond)
	}
	close(g.gate) // let the in-flight batch finish; the staged one must not follow
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if err := <-w1; err != nil {
		t.Fatalf("in-flight batch: %v", err)
	}
	if err := t2.Wait(); err != ErrClosed {
		t.Fatalf("staged batch Wait = %v, want ErrClosed", err)
	}
	l2 := openLog(t, d, Options{})
	_, recs := recoverAll(t, l2)
	if len(recs) != 1 || string(recs[0]) != "committed" {
		t.Fatalf("replayed %q, want only the committed record", recs)
	}
}

func TestOpenTinyStoreRejected(t *testing.T) {
	d := newDisk(t, 4, 64)
	if _, err := Open(d, Options{}); err == nil {
		t.Fatal("4-block store accepted")
	}
}

func TestFaultyDiskWedgesLog(t *testing.T) {
	d := newDisk(t, 64, 128)
	l := openLog(t, d, Options{})
	recoverAll(t, l)
	mustAppend(t, l, []byte("ok"))
	d.SetFault(func(op string, block uint32) error {
		if op == "write" {
			return fmt.Errorf("injected write fault")
		}
		return nil
	})
	tk, err := l.Append([]byte("doomed"))
	if err != nil {
		t.Fatal(err)
	}
	if err := tk.Wait(); err == nil {
		t.Fatal("commit over a failing disk reported success")
	}
	d.SetFault(nil)
	if _, err := l.Append([]byte("next")); err == nil {
		t.Fatal("wedged log accepted a new append")
	}
}

func TestWedgeTypedErrorAndCallback(t *testing.T) {
	d := newDisk(t, 64, 128)
	l := openLog(t, d, Options{})
	recoverAll(t, l)
	mustAppend(t, l, []byte("ok"))

	fired := make(chan error, 2)
	l.OnWedge(func(err error) { fired <- err })
	if l.Wedged() {
		t.Fatal("healthy log reports wedged")
	}

	injected := fmt.Errorf("injected write fault")
	d.SetFault(func(op string, block uint32) error {
		if op == "write" {
			return injected
		}
		return nil
	})
	tk, err := l.Append([]byte("doomed"))
	if err != nil {
		t.Fatal(err)
	}
	werr := tk.Wait()
	if werr == nil {
		t.Fatal("commit over a failing disk reported success")
	}
	if !errors.Is(werr, ErrWedged) {
		t.Fatalf("failed commit returned %v, want ErrWedged", werr)
	}
	if !errors.Is(werr, injected) {
		t.Fatalf("wedge error %v lost its cause", werr)
	}
	if !l.Wedged() {
		t.Fatal("log not wedged after failed commit")
	}

	select {
	case cb := <-fired:
		if !errors.Is(cb, ErrWedged) {
			t.Fatalf("callback got %v, want ErrWedged", cb)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("wedge callback never fired")
	}

	// Registering after the fact fires immediately; the original
	// callback does not fire twice.
	l.OnWedge(func(err error) { fired <- err })
	select {
	case <-fired:
	case <-time.After(2 * time.Second):
		t.Fatal("late OnWedge registration never fired")
	}

	// Everything downstream sees the typed error, even after the disk
	// heals — a failed batch is never retried.
	d.SetFault(nil)
	if _, err := l.Append([]byte("next")); !errors.Is(err, ErrWedged) {
		t.Fatalf("append on wedged log: %v, want ErrWedged", err)
	}
	if err := l.Barrier(); !errors.Is(err, ErrWedged) {
		t.Fatalf("barrier on wedged log: %v, want ErrWedged", err)
	}
	select {
	case err := <-fired:
		t.Fatalf("wedge callback fired twice: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
}

func TestWedgeOnCheckpointFailure(t *testing.T) {
	d := newDisk(t, 64, 128)
	l := openLog(t, d, Options{})
	recoverAll(t, l)
	mustAppend(t, l, []byte("ok"))
	fired := make(chan error, 1)
	l.OnWedge(func(err error) { fired <- err })
	// Fail only the superblock write: the checkpoint record commits,
	// then advancing the start pointer wedges.
	d.SetFault(func(op string, block uint32) error {
		if op == "write" && block == 0 {
			return fmt.Errorf("superblock dead")
		}
		return nil
	})
	if err := l.Checkpoint([]byte("snap")); !errors.Is(err, ErrWedged) {
		t.Fatalf("checkpoint over dead superblock: %v, want ErrWedged", err)
	}
	select {
	case <-fired:
	case <-time.After(2 * time.Second):
		t.Fatal("wedge callback never fired for checkpoint failure")
	}
}
