// Lease-cache chaos: readers serving lookups from cache while a
// writer renames the binding out from under them. The contract under
// test is the lease staleness bound — after a conflicting rename is
// acknowledged, no client may act on the old binding once the lease
// duration has passed — plus precise self-invalidation for the
// writer itself. Seeded; each seed runs in a bubble (bubble_test.go),
// 500 of them in virtual time under GOEXPERIMENT=synctest.
package amoeba

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"amoeba/internal/lease"
	"amoeba/internal/obs"
	"amoeba/internal/server/dirsvr"
)

const renameLease = 20 * time.Millisecond

func TestChaosLookupLeaseRename(t *testing.T) {
	for i := range chaosSeeds() {
		t.Run(fmt.Sprintf("seed=%d", i), func(t *testing.T) {
			bubble(t, func() { runLookupLeaseRename(t, 0x1EA5_0000+uint64(i)) })
		})
	}
}

func runLookupLeaseRename(t *testing.T, seed uint64) {
	ctx := context.Background()
	cl := testCluster(t, ClusterConfig{Seed: seed, Latency: 50 * time.Microsecond, Jitter: 100 * time.Microsecond, LookupLease: renameLease})
	defer cl.Close()
	dirs := cl.Dirs()

	dir, err := dirs.CreateDir(ctx, cl.DirPort())
	if err != nil {
		t.Fatal(err)
	}
	oldCap, err := dirs.CreateDir(ctx, cl.DirPort())
	if err != nil {
		t.Fatal(err)
	}
	newCap, err := dirs.CreateDir(ctx, cl.DirPort())
	if err != nil {
		t.Fatal(err)
	}
	if err := dirs.Enter(ctx, dir, "target", oldCap); err != nil {
		t.Fatal(err)
	}

	// Readers: each on its own machine with its OWN lease cache — they
	// hold cached bindings for "target" and never hear about the
	// rename except through lease expiry. renamed is set by the writer
	// the moment the rename is acknowledged: observing oldCap when a
	// lookup STARTED after renamed+lease is a staleness-bound
	// violation. The start timestamp makes the check race-free: a
	// cached binding served to a lookup starting at time s was
	// unexpired at some instant ≥ s, so s > renamed+lease proves the
	// cache served past the bound — while scheduling delay after the
	// call can never manufacture a false positive. Both are read off
	// t0 with time.Since, which in a synctest bubble is the clock the
	// bubble advances and the leases lapse on. A reader makes one
	// lookup per 100 µs of it, so a bubble whose readers hit their
	// caches still goes idle and moves its clock on.
	t0 := time.Now()
	var (
		renamed    atomic.Int64 // time.Since(t0) at the rename's ack; 0 until then
		violations atomic.Int64
		staleAfter atomic.Int64 // oldCap served post-rename, within the lease window (expected!)
		hits       atomic.Uint64
	)
	const readers = 3
	quit, done := make(chan struct{}), make(chan struct{})
	stop := sync.OnceFunc(func() {
		close(quit)
		for range readers {
			<-done
		}
	})
	defer stop()
	for range readers {
		go func() {
			defer func() { done <- struct{}{} }()
			_, rc, err := cl.NewMachine()
			if err != nil {
				t.Error(err)
				return
			}
			ownHits := &obs.Counter{}
			defer func() { hits.Add(ownHits.Value()) }()
			cache := lease.New(0, lease.Counters{Hits: ownHits}, rc.Clock())
			dc := dirsvr.NewCachingClient(rc, cache)
			for {
				select {
				case <-quit:
					return
				case <-time.After(100 * time.Microsecond):
				}
				start := int64(time.Since(t0))
				opCtx, cancel := context.WithTimeout(ctx, 2*time.Second)
				got, err := dc.Lookup(opCtx, dir, "target")
				cancel()
				if err != nil {
					continue // mid-rename gap: the name is briefly absent
				}
				if got == oldCap {
					if dl := renamed.Load(); dl != 0 {
						if start > dl+int64(renameLease) {
							violations.Add(1)
						} else {
							staleAfter.Add(1)
						}
					}
				}
			}
		}()
	}

	// Warm the readers' caches, then rename target: oldCap → newCap.
	time.Sleep(30 * time.Millisecond)
	if err := dirs.Remove(ctx, dir, "target"); err != nil {
		t.Fatal(err)
	}
	if err := dirs.Enter(ctx, dir, "target", newCap); err != nil {
		t.Fatal(err)
	}
	renamed.Store(int64(time.Since(t0)))

	// The writer's own cache floor advanced with the mutation replies:
	// it must read its own write back immediately, no lease wait.
	got, err := dirs.Lookup(ctx, dir, "target")
	if err != nil {
		t.Fatal(err)
	}
	if got != newCap {
		t.Fatalf("writer read its own rename back as the old binding")
	}

	// Let the readers run well past the lease bound, then stop.
	time.Sleep(100 * time.Millisecond)
	stop()

	if v := violations.Load(); v != 0 {
		t.Fatalf("%d lookups served the old binding past rename+lease — the staleness bound is broken", v)
	}
	if hits.Load() == 0 {
		t.Fatal("readers never hit their caches; the test exercised nothing")
	}
	// Readers converge to the new binding once leases lapse.
	untilOK(t, "converge", func(ctx context.Context) error {
		_, rc, err := cl.NewMachine()
		if err != nil {
			return err
		}
		dc := dirsvr.NewCachingClient(rc, lease.New(0, lease.Counters{}, rc.Clock()))
		c, err := dc.Lookup(ctx, dir, "target")
		if err != nil {
			return err
		}
		if c != newCap {
			return fmt.Errorf("fresh client sees stale binding")
		}
		return nil
	})
	t.Logf("hits=%d staleWithinLease=%d (allowed)", hits.Load(), staleAfter.Load())
}
