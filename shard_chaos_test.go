// Sharding chaos: migrate a hot object mid-soak. Zero acknowledged
// operations lost, the migrating object stalls only for the move
// itself, and objects on OTHER shards never stall at all. (A shard
// primary's death mid-soak is a row in soak_test.go.) Seeded; CI
// repeats under -race.
package amoeba

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"amoeba/internal/cap"
	"amoeba/internal/server/dirsvr"
)

// migrateChaosCluster: two shards, realistic latency, NO packet loss —
// the migration is the only fault, so the "nobody else stalls"
// assertion measures the migration, not the network.
func migrateChaosCluster(t *testing.T, seed uint64) *Cluster {
	return testCluster(t, ClusterConfig{Seed: seed, Shards: 2, Latency: 50 * time.Microsecond, Jitter: 100 * time.Microsecond})
}

func TestChaosMigrateUnderLoad(t *testing.T) {
	for i := 0; i < chaosSeeds(); i++ {
		t.Run(fmt.Sprintf("seed=%d", i), func(t *testing.T) {
			runMigrateUnderLoad(t, 0x316A_0000+uint64(i))
		})
	}
}

func runMigrateUnderLoad(t *testing.T, seed uint64) {
	ctx := context.Background()
	cl := migrateChaosCluster(t, seed)
	dirs := cl.Dirs()

	// One hot directory (the object that will migrate, twice) and one
	// cold directory per shard (the objects that must not stall).
	hot, err := dirs.CreateDir(ctx, cl.DirPort())
	if err != nil {
		t.Fatal(err)
	}
	cold := make([]cap.Capability, 2)
	for {
		d, err := dirs.CreateDir(ctx, cl.DirPort())
		if err != nil {
			t.Fatal(err)
		}
		cold[cl.ShardOf(cl.DirPort(), d.Object)] = d
		if cold[0] != cap.Nil && cold[1] != cap.Nil {
			break
		}
	}
	marker, err := dirs.CreateDir(ctx, cl.DirPort())
	if err != nil {
		t.Fatal(err)
	}
	for s, d := range cold {
		if err := dirs.Enter(ctx, d, "probe", marker); err != nil {
			t.Fatalf("seeding cold dir on shard %d: %v", s, err)
		}
	}

	// Soak: writers hammer the hot directory recording every
	// acknowledged name; readers hammer the cold directories recording
	// their slowest operation.
	var (
		stop     atomic.Bool
		ackedMu  sync.Mutex
		acked    = make(map[string]bool)
		coldMax  atomic.Int64 // ns, slowest cold-object operation
		coldFail atomic.Int64
	)
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			_, rc, err := cl.NewMachine()
			if err != nil {
				t.Error(err)
				return
			}
			dc := dirsvr.NewClient(rc)
			for seq := 0; !stop.Load(); seq++ {
				name := fmt.Sprintf("w%d-%d", w, seq)
				opCtx, cancel := context.WithTimeout(ctx, 2*time.Second)
				err := dc.Enter(opCtx, hot, name, marker)
				cancel()
				if err == nil {
					ackedMu.Lock()
					acked[name] = true
					ackedMu.Unlock()
				}
			}
		}(w)
	}
	for s := 0; s < 2; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			_, rc, err := cl.NewMachine()
			if err != nil {
				t.Error(err)
				return
			}
			dc := dirsvr.NewClient(rc)
			for !stop.Load() {
				opCtx, cancel := context.WithTimeout(ctx, 5*time.Second)
				start := time.Now()
				_, err := dc.Lookup(opCtx, cold[s], "probe")
				took := time.Since(start).Nanoseconds()
				cancel()
				if err != nil {
					coldFail.Add(1)
					continue
				}
				for {
					cur := coldMax.Load()
					if took <= cur || coldMax.CompareAndSwap(cur, took) {
						break
					}
				}
			}
		}(s)
	}

	// Mid-soak: migrate the hot directory to the other shard, then
	// back — two map generations, two gate windows.
	time.Sleep(50 * time.Millisecond)
	var migMax time.Duration
	for hop := 0; hop < 2; hop++ {
		dst := 1 - cl.ShardOf(cl.DirPort(), hot.Object)
		start := time.Now()
		if err := cl.Migrate(ctx, cl.DirPort(), hot.Object, dst); err != nil {
			t.Fatalf("hop %d: %v", hop, err)
		}
		if took := time.Since(start); took > migMax {
			migMax = took
		}
		time.Sleep(50 * time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond)
	stop.Store(true)
	wg.Wait()

	// Conservation: the listing holds EXACTLY the acknowledged names
	// (plus none): no acked entry lost in the move, no phantom entry
	// materialized. Unacked racers either made it (then the client just
	// never heard) — those would show as extras, so re-check them
	// against the writers' attempted namespace pattern via the acked
	// map: an entry not in acked means its ack was cut off, which the
	// 2s per-op budget and loss-free network rule out here.
	entries, err := dirs.List(ctx, hot)
	if err != nil {
		t.Fatal(err)
	}
	present := make(map[string]bool, len(entries))
	for _, e := range entries {
		present[e.Name] = true
	}
	for name := range acked {
		if !present[name] {
			t.Fatalf("acked entry %q lost in migration (%d acked, %d present)", name, len(acked), len(present))
		}
	}
	for name := range present {
		if !acked[name] {
			t.Fatalf("entry %q present but never acknowledged", name)
		}
	}
	if len(acked) == 0 {
		t.Fatal("soak acknowledged nothing; the test exercised nothing")
	}
	if n := coldFail.Load(); n != 0 {
		t.Fatalf("%d cold-object operations failed during the migration", n)
	}
	// Objects on other shards never stall: their slowest op stays far
	// below the gate window a whole-service pause would cost. The bound
	// is generous for -race scheduler noise while still catching any
	// design where a migration quiesces more than the one object.
	if max := time.Duration(coldMax.Load()); max > 250*time.Millisecond {
		t.Fatalf("a non-migrating object stalled %v during migration", max)
	}
	if migMax > time.Second {
		t.Fatalf("migration took %v; the object-granular cut should be milliseconds", migMax)
	}
	t.Logf("acked=%d migrations max %v, cold max %v", len(acked), migMax, time.Duration(coldMax.Load()))
}

// shardGroupCluster: two shards, each a 3-member replication group —
// the configuration a shard primary's death needs (a 2-member group
// cannot elect: majorities count the configured size).
func shardGroupCluster(t *testing.T, seed uint64) *Cluster {
	return testCluster(t, ClusterConfig{Seed: seed, Shards: 2, Replicas: 3, LossRate: 0.01,
		Latency: 50 * time.Microsecond, Jitter: 100 * time.Microsecond, LeaseTerm: 150 * time.Millisecond})
}
