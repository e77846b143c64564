package blocksvr

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"amoeba/internal/cap"
	"amoeba/internal/rpc"
	"amoeba/internal/server/servertest"
	"amoeba/internal/vdisk"
)

// TestSoakConcurrentClients hammers the block server with 64
// concurrent client machines cycling alloc/write/read/free on
// independent blocks, plus batched variants. Run under -race.
func TestSoakConcurrentClients(t *testing.T) {
	r, b, _ := newServer(t, 4096, 128)
	port := b.Port()
	r.Soak(t, servertest.SoakClients, 5, func(ctx context.Context, c *rpc.Client, g, i int) error {
		bc := NewClient(c, port)
		blk, err := bc.Alloc(ctx)
		if err != nil {
			return err
		}
		payload := []byte(fmt.Sprintf("client %d iter %d", g, i))
		if err := bc.Write(ctx, blk, payload); err != nil {
			return err
		}
		got, err := bc.Read(ctx, blk)
		if err != nil {
			return err
		}
		if !bytes.Equal(got[:len(payload)], payload) {
			return fmt.Errorf("read back %q", got[:len(payload)])
		}
		// Batched trio on fresh blocks every other iteration.
		if i%2 == 0 {
			blks, err := bc.AllocBatch(ctx, 4)
			if err != nil {
				return err
			}
			data := make([][]byte, len(blks))
			for j := range data {
				data[j] = []byte{byte(g), byte(i), byte(j)}
			}
			if err := bc.WriteBatch(ctx, blks, data); err != nil {
				return err
			}
			back, err := bc.ReadBatch(ctx, blks)
			if err != nil {
				return err
			}
			for j := range back {
				if !bytes.Equal(back[j][:3], data[j]) {
					return fmt.Errorf("batch read %d: %v", j, back[j][:3])
				}
			}
			if err := bc.FreeBatch(ctx, blks); err != nil {
				return err
			}
		}
		return bc.Free(ctx, blk)
	})
}

// slowDisk wraps a vdisk.Store, delaying every read and recording the
// peak number of concurrent I/O operations.
type slowDisk struct {
	vdisk.Store
	delay     time.Duration
	cur, peak atomic.Int64
}

func (d *slowDisk) ReadInto(n uint32, dst []byte) error {
	c := d.cur.Add(1)
	for {
		p := d.peak.Load()
		if c <= p || d.peak.CompareAndSwap(p, c) {
			break
		}
	}
	time.Sleep(d.delay)
	defer d.cur.Add(-1)
	return d.Store.ReadInto(n, dst)
}

// TestDiskIOOverlaps is the regression test for the lock-across-I/O
// fix: with the liveness check atomic and no server lock held across
// vdisk calls, reads of different blocks must overlap on the disk.
// (Before the fix the server serialized the whole data path, so the
// peak concurrency at the disk stayed 1.) slowDisk delays outside the
// store's own lock, so the peak measures the server's locking only: a
// vdisk.Disk still serializes writes under its whole-disk lock.
func TestDiskIOOverlaps(t *testing.T) {
	ctx := context.Background()
	r := servertest.New(t, 0x51CC)
	disk, err := vdisk.New(64, 64)
	if err != nil {
		t.Fatal(err)
	}
	slow := &slowDisk{Store: disk, delay: 20 * time.Millisecond}
	scheme, err := cap.NewScheme(cap.SchemeOneWay)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(r.NewFBox(t), scheme, r.Src, slow)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	bc := NewClient(r.Client, s.PutPort())

	var blks []cap.Capability
	for i := 0; i < 8; i++ {
		blk, err := bc.Alloc(ctx)
		if err != nil {
			t.Fatal(err)
		}
		blks = append(blks, blk)
	}
	var wg sync.WaitGroup
	for _, blk := range blks {
		wg.Add(1)
		go func(blk cap.Capability) {
			defer wg.Done()
			if _, err := bc.Read(ctx, blk); err != nil {
				t.Error(err)
			}
		}(blk)
	}
	wg.Wait()
	if peak := slow.peak.Load(); peak < 2 {
		t.Fatalf("disk I/O peak concurrency %d; reads of independent blocks serialized", peak)
	}
}
