// Lease-cache chaos: readers serving lookups from cache while a
// writer renames the binding out from under them. The contract under
// test is the lease staleness bound — after a conflicting rename is
// acknowledged, no client may act on the old binding once the lease
// duration has passed — plus precise self-invalidation for the
// writer itself. Seeded; CI repeats under -race.
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
	"amoeba/internal/server/servertest"
)

const renameLease = 20 * time.Millisecond

func leaseChaosCluster(t *testing.T, seed uint64) *Cluster {
	return testCluster(t, ClusterConfig{Seed: seed, Latency: 50 * time.Microsecond, Jitter: 100 * time.Microsecond, LookupLease: renameLease})
}

func TestChaosLookupLeaseRename(t *testing.T) {
	for i := 0; i < chaosSeeds(); i++ {
		t.Run(fmt.Sprintf("seed=%d", i), func(t *testing.T) {
			runLookupLeaseRename(t, 0x1EA5_0000+uint64(i))
		})
	}
}

func runLookupLeaseRename(t *testing.T, seed uint64) {
	ctx := context.Background()
	cl := leaseChaosCluster(t, seed)
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
	// rename except through lease expiry. deadlineNs is set by the
	// writer the moment the rename is acknowledged: observing oldCap
	// when a lookup STARTED after deadline+lease is a staleness-bound
	// violation. The start timestamp makes the check race-free: a
	// cached binding served to a lookup starting at time s was
	// unexpired at some instant ≥ s, so s > deadline+lease proves the
	// cache served past the bound — while scheduling delay after the
	// call can never manufacture a false positive.
	var (
		stop       atomic.Bool
		deadlineNs atomic.Int64 // 0 until the rename is acknowledged
		violations atomic.Int64
		staleAfter atomic.Int64 // oldCap served post-rename, within the lease window (expected!)
		hits       atomic.Uint64
		wg         sync.WaitGroup
	)
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, rc, err := cl.NewMachine()
			if err != nil {
				t.Error(err)
				return
			}
			ownHits := &obs.Counter{}
			cache := lease.New(0, lease.Counters{Hits: ownHits}, rc.Clock())
			dc := dirsvr.NewCachingClient(rc, cache)
			for !stop.Load() {
				start := time.Now().UnixNano()
				opCtx, cancel := context.WithTimeout(ctx, 2*time.Second)
				got, err := dc.Lookup(opCtx, dir, "target")
				cancel()
				if err != nil {
					continue // mid-rename gap: the name is briefly absent
				}
				if got == oldCap {
					if dl := deadlineNs.Load(); dl != 0 {
						if start > dl+int64(renameLease) {
							violations.Add(1)
						} else {
							staleAfter.Add(1)
						}
					}
				}
			}
			hits.Add(ownHits.Value())
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
	deadlineNs.Store(time.Now().UnixNano())

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
	stop.Store(true)
	wg.Wait()

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

// TestShardKillPromoteOverlappingMigration covers the locate-budget
// re-arm at cluster scale: a client call that gets bounced by a
// migration (StatusWrongShard → map refresh) while the destination
// shard's group is ALSO electing a new primary (kill → auto-promote)
// needs more than one extra LOCATE round — one per cause. Before the
// re-arm fix, the WrongShard refresh could burn the call's only
// re-broadcast mid-election and strand it with retries to spare.
func TestShardKillPromoteOverlappingMigration(t *testing.T) {
	// Heavier than most chaos suites (two failovers' worth of waiting
	// per seed), so fewer seeds; the 20-seed bar is carried by
	// TestChaosLookupLeaseRename and TestChaosShardPrimaryKill.
	seeds := 5
	if testing.Short() {
		seeds = 2
	}
	for i := 0; i < seeds; i++ {
		t.Run(fmt.Sprintf("seed=%d", i), func(t *testing.T) {
			runKillPromoteOverlappingMigration(t, 0x5EAD_0000+uint64(i))
		})
	}
}

func runKillPromoteOverlappingMigration(t *testing.T, seed uint64) {
	ctx := context.Background()
	cl := shardGroupCluster(t, seed)
	w := newWorkload(t, cl, "directory", 0, 2, seed)
	hot := w.home
	for i := 0; i < 5; i++ {
		w.mustWrite(fmt.Sprintf("pre%d", i))
	}

	// Clients hammering the hot directory all through the overlap, each
	// on its own machine, each call recorded.
	var (
		stop atomic.Bool
		wg   sync.WaitGroup
	)
	for n := 0; n < 2; n++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, rc, err := cl.NewMachine()
			if err != nil {
				t.Error(err)
				return
			}
			dc := dirsvr.NewClient(rc)
			for seq := 0; !stop.Load(); seq++ {
				name := fmt.Sprintf("w%d-%d", n, seq)
				opCtx, cancel := context.WithTimeout(ctx, 2*time.Second)
				w.h.Do(servertest.Op{Kind: servertest.Enter, Dir: hot, Name: name, Cap: hot}, func(*servertest.Op) error {
					return dc.Enter(opCtx, hot, name, hot)
				})
				cancel()
			}
		}()
	}

	// The overlap: migrate the hot object to the other shard, then
	// immediately kill its NEW home's primary. Calls in flight see the
	// WrongShard bounce from the move and then a dead authority — two
	// causes, two extra locate rounds.
	time.Sleep(30 * time.Millisecond)
	dst := 1 - cl.ShardOf(cl.DirPort(), hot.Object)
	if err := cl.Migrate(ctx, cl.DirPort(), hot.Object, dst); err != nil {
		t.Fatal(err)
	}
	victim := cl.ShardMachines(cl.DirPort())[dst]
	if err := cl.Kill(victim); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(15 * time.Second)
	for cl.ShardMachines(cl.DirPort())[dst] == victim {
		if time.Now().After(deadline) {
			t.Fatal("the migrated-to shard never failed over")
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Post-promotion: the same client session (same locate cache, same
	// shard map) converges without a fresh client.
	w.mustWrite("post-overlap")
	time.Sleep(30 * time.Millisecond)
	stop.Store(true)
	wg.Wait()
	if n := w.h.Len(); n < 12 {
		t.Fatalf("soak recorded only %d calls; the overlap was not exercised", n)
	}
	w.verify("migration+failover")
}
