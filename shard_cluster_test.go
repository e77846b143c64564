// Sharding integration tests: a durable service split across M
// machines behind ONE put-port, objects routed by the versioned shard
// map, single objects migrated live between shards (EXPERIMENTS.md
// E23).
package amoeba

import (
	"context"
	"fmt"
	"testing"

	"amoeba/internal/cap"
)

func shardedCluster(t *testing.T, shards int, seed uint64) *Cluster {
	t.Helper()
	cl, err := NewCluster(ClusterConfig{Seed: seed, Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

func TestShardedDirsvr(t *testing.T) {
	ctx := context.Background()
	cl := shardedCluster(t, 3, 0x5AD0)
	dirs := cl.Dirs()

	ms := cl.ShardMachines(cl.DirPort())
	if len(ms) != 3 {
		t.Fatalf("ShardMachines = %v, want 3 shards", ms)
	}
	if ms[0] == ms[1] || ms[1] == ms[2] || ms[0] == ms[2] {
		t.Fatalf("shards share machines: %v", ms)
	}

	// Objectless creates are spread round-robin; each shard mints only
	// numbers that route back to it, so the capability in hand always
	// names the shard that holds the directory.
	perShard := make(map[int]int)
	roots := make([]cap.Capability, 12)
	for i := range roots {
		root, err := dirs.CreateDir(ctx, cl.DirPort())
		if err != nil {
			t.Fatal(err)
		}
		roots[i] = root
		perShard[cl.ShardOf(cl.DirPort(), root.Object)]++
	}
	if len(perShard) != 3 {
		t.Fatalf("creates landed on %d shards, want 3: %v", len(perShard), perShard)
	}

	// Entries enter and look up correctly wherever their directory
	// lives; sub-directories may live on OTHER shards than their parent
	// (the entry is just a capability).
	for i, root := range roots {
		sub, err := dirs.CreateDir(ctx, cl.DirPort())
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("sub%d", i)
		if err := dirs.Enter(ctx, root, name, sub); err != nil {
			t.Fatalf("enter on shard %d: %v", cl.ShardOf(cl.DirPort(), root.Object), err)
		}
		got, err := dirs.Lookup(ctx, root, name)
		if err != nil {
			t.Fatal(err)
		}
		if got != sub {
			t.Fatalf("lookup returned %v, want %v", got, sub)
		}
	}
}

func TestShardedBanksvr(t *testing.T) {
	ctx := context.Background()
	cl := shardedCluster(t, 2, 0x5AD1)
	bank := cl.Bank()

	// Mint accounts until both shards hold at least two (round-robin
	// makes this deterministic, but don't depend on the phase).
	byShard := map[int][]cap.Capability{}
	for i := 0; i < 8; i++ {
		acct, err := bank.CreateAccount(ctx, "dollar", 100)
		if err != nil {
			t.Fatal(err)
		}
		s := cl.ShardOf(bank.Port(), acct.Object)
		byShard[s] = append(byShard[s], acct)
	}
	for s := 0; s < 2; s++ {
		if len(byShard[s]) < 2 {
			t.Fatalf("shard %d holds %d accounts, want ≥2: %v", s, len(byShard[s]), byShard)
		}
		// Same-shard transfer (cross-shard transfers are a documented
		// non-goal: each shard instance has its own treasury).
		a, b := byShard[s][0], byShard[s][1]
		if err := bank.Transfer(ctx, a, b, "dollar", 30); err != nil {
			t.Fatalf("transfer on shard %d: %v", s, err)
		}
		bal, err := bank.Balance(ctx, b)
		if err != nil {
			t.Fatal(err)
		}
		if bal["dollar"] != 130 {
			t.Fatalf("shard %d: balance = %v, want 130", s, bal)
		}
	}
}

func TestShardedMigrateDirectory(t *testing.T) {
	ctx := context.Background()
	cl := shardedCluster(t, 2, 0x5AD2)
	dirs := cl.Dirs()

	root, err := dirs.CreateDir(ctx, cl.DirPort())
	if err != nil {
		t.Fatal(err)
	}
	subs := make([]cap.Capability, 5)
	for i := range subs {
		sub, err := dirs.CreateDir(ctx, cl.DirPort())
		if err != nil {
			t.Fatal(err)
		}
		if err := dirs.Enter(ctx, root, fmt.Sprintf("e%d", i), sub); err != nil {
			t.Fatal(err)
		}
		subs[i] = sub
	}

	src := cl.ShardOf(cl.DirPort(), root.Object)
	dst := 1 - src
	genBefore := cl.ShardMapGen(cl.DirPort())
	if err := cl.Migrate(ctx, cl.DirPort(), root.Object, dst); err != nil {
		t.Fatal(err)
	}
	if got := cl.ShardOf(cl.DirPort(), root.Object); got != dst {
		t.Fatalf("object homed on shard %d after migration, want %d", got, dst)
	}
	if gen := cl.ShardMapGen(cl.DirPort()); gen <= genBefore {
		t.Fatalf("map generation %d did not advance past %d", gen, genBefore)
	}

	// The same capability keeps working: the stale route bounces off
	// the source with StatusWrongShard and the client re-routes.
	for i, sub := range subs {
		got, err := dirs.Lookup(ctx, root, fmt.Sprintf("e%d", i))
		if err != nil {
			t.Fatalf("post-migration lookup: %v", err)
		}
		if got != sub {
			t.Fatalf("entry %d: got %v, want %v", i, got, sub)
		}
	}
	// Mutations land on the new shard too.
	extra, err := dirs.CreateDir(ctx, cl.DirPort())
	if err != nil {
		t.Fatal(err)
	}
	if err := dirs.Enter(ctx, root, "extra", extra); err != nil {
		t.Fatalf("post-migration enter: %v", err)
	}

	// And the object can move back home (the override is dropped, not
	// stacked).
	if err := cl.Migrate(ctx, cl.DirPort(), root.Object, src); err != nil {
		t.Fatal(err)
	}
	if got := cl.ShardOf(cl.DirPort(), root.Object); got != src {
		t.Fatalf("object homed on shard %d after move-back, want %d", got, src)
	}
	if _, err := dirs.Lookup(ctx, root, "extra"); err != nil {
		t.Fatalf("lookup after move-back: %v", err)
	}

	// A migration survives the source's crash-recovery: the migrate-out
	// record keeps the object from resurrecting there.
	migrated, err := dirs.Lookup(ctx, root, "e0")
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Migrate(ctx, cl.DirPort(), migrated.Object, 1-cl.ShardOf(cl.DirPort(), migrated.Object)); err != nil {
		t.Fatal(err)
	}
	if _, err := dirs.List(ctx, migrated); err != nil {
		t.Fatalf("migrated dir unreadable: %v", err)
	}
}

func TestShardedMigrateBankAccount(t *testing.T) {
	ctx := context.Background()
	cl := shardedCluster(t, 2, 0x5AD3)
	bank := cl.Bank()

	acct, err := bank.CreateAccount(ctx, "dollar", 250)
	if err != nil {
		t.Fatal(err)
	}
	src := cl.ShardOf(bank.Port(), acct.Object)
	if err := cl.Migrate(ctx, bank.Port(), acct.Object, 1-src); err != nil {
		t.Fatal(err)
	}
	bal, err := bank.Balance(ctx, acct)
	if err != nil {
		t.Fatalf("post-migration balance: %v", err)
	}
	if bal["dollar"] != 250 {
		t.Fatalf("balance = %v, want 250", bal)
	}
	// The migrated account is fully live on its new shard: it can be
	// destroyed there (RightDestroy still validates — the secret moved
	// with the object, so the old capability is the only key needed).
	if err := bank.DestroyAccount(ctx, acct); err != nil {
		t.Fatal(err)
	}
}

func TestMigrateErrors(t *testing.T) {
	ctx := context.Background()
	cl := shardedCluster(t, 2, 0x5AD4)
	if err := cl.Migrate(ctx, Port(0x1234), 1, 0); err == nil {
		t.Fatal("migrating on an unsharded port succeeded")
	}
	if err := cl.Migrate(ctx, cl.DirPort(), 1, 7); err == nil {
		t.Fatal("migrating to an out-of-range shard succeeded")
	}
	// Migrating an object to its current home is a no-op.
	if err := cl.Migrate(ctx, cl.DirPort(), 1, cl.ShardOf(cl.DirPort(), 1)); err != nil {
		t.Fatal(err)
	}
}

// TestMigrateAbortLeavesObjectAtSource: a migration that cannot finish
// — the caller gave up while the object was in flight, or the
// destination's machine had just died — leaves no trace. The object
// serves from its source under the same capability, the shard map has
// not moved, and the same migration succeeds once the cause is gone.
func TestMigrateAbortLeavesObjectAtSource(t *testing.T) {
	for _, tc := range []struct {
		name  string
		fault func(t *testing.T, cl *Cluster, dst int) (ctx context.Context, mend func())
	}{
		{"cancelled context", func(t *testing.T, cl *Cluster, dst int) (context.Context, func()) {
			// Extracted and gated, then the ship to the destination is
			// refused its context: the abort path puts the object back.
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			return ctx, func() {}
		}},
		{"destination primary killed", func(t *testing.T, cl *Cluster, dst int) (context.Context, func()) {
			m := cl.ShardMachines(cl.DirPort())[dst]
			if err := cl.Kill(m); err != nil {
				t.Fatal(err)
			}
			return context.Background(), func() {
				if err := cl.Restart(m); err != nil {
					t.Fatal(err)
				}
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx := context.Background()
			cl := shardedCluster(t, 2, 0x5AD5)
			dirs := cl.Dirs()
			root, err := dirs.CreateDir(ctx, cl.DirPort())
			if err != nil {
				t.Fatal(err)
			}
			if err := dirs.Enter(ctx, root, "kept", root); err != nil {
				t.Fatal(err)
			}
			src := cl.ShardOf(cl.DirPort(), root.Object)
			gen := cl.ShardMapGen(cl.DirPort())

			broken, mend := tc.fault(t, cl, 1-src)
			if err := cl.Migrate(broken, cl.DirPort(), root.Object, 1-src); err == nil {
				t.Fatal("Migrate succeeded")
			}
			if got := cl.ShardMapGen(cl.DirPort()); got != gen {
				t.Fatalf("shard map generation %d after a failed migration, was %d", got, gen)
			}
			if got := cl.ShardOf(cl.DirPort(), root.Object); got != src {
				t.Fatalf("object homed on shard %d after a failed migration, was on %d", got, src)
			}
			if got, err := dirs.Lookup(ctx, root, "kept"); err != nil || got != root {
				t.Fatalf("lookup at the source after a failed migration: %v, %v", got, err)
			}
			if err := dirs.Enter(ctx, root, "later", root); err != nil {
				t.Fatalf("enter at the source after a failed migration: %v", err)
			}

			mend()
			if err := cl.Migrate(ctx, cl.DirPort(), root.Object, 1-src); err != nil {
				t.Fatalf("migrating again: %v", err)
			}
			for _, name := range []string{"kept", "later"} {
				if got, err := dirs.Lookup(ctx, root, name); err != nil || got != root {
					t.Fatalf("lookup of %q after the migration that did finish: %v, %v", name, got, err)
				}
			}
		})
	}
}

// TestShardedMigrateOutSurvivesSourceRestart: an account that migrated
// away stays away when its old shard crashes and replays its log — the
// migrate-out record removes it there — so the money is in one place.
func TestShardedMigrateOutSurvivesSourceRestart(t *testing.T) {
	ctx := context.Background()
	cl := shardedCluster(t, 2, 0x5AD6)
	bank := cl.Bank()

	// Accounts on both shards, some money moved between neighbours.
	var accts []cap.Capability
	byShard := map[int][]cap.Capability{}
	for i := 0; i < 8; i++ {
		acct, err := bank.CreateAccount(ctx, "dollar", int64(100+i))
		if err != nil {
			t.Fatal(err)
		}
		accts = append(accts, acct)
		s := cl.ShardOf(bank.Port(), acct.Object)
		byShard[s] = append(byShard[s], acct)
	}
	for s, on := range byShard {
		if len(on) < 2 {
			t.Fatalf("shard %d holds %d accounts, want ≥ 2", s, len(on))
		}
		if err := bank.Transfer(ctx, on[0], on[1], "dollar", 30); err != nil {
			t.Fatal(err)
		}
	}
	balances := func() (each map[cap.Capability]int64, total int64) {
		each = make(map[cap.Capability]int64)
		for _, acct := range accts {
			untilOK(t, "balance", func(ctx context.Context) error {
				bal, err := bank.Balance(ctx, acct)
				each[acct] = bal["dollar"]
				return err
			})
			total += each[acct]
		}
		return each, total
	}
	before, supply := balances()

	moved := byShard[0][0]
	if err := cl.Migrate(ctx, bank.Port(), moved.Object, 1); err != nil {
		t.Fatal(err)
	}
	source := cl.ShardMachines(bank.Port())[0]
	if err := cl.Kill(source); err != nil {
		t.Fatal(err)
	}
	if err := cl.Restart(source); err != nil {
		t.Fatal(err)
	}

	cl.mu.Lock()
	_, resurrected := cl.shards["bank"][0].primary.Kernel().Table().SecretOf(moved.Object)
	cl.mu.Unlock()
	if resurrected {
		t.Fatal("the restarted source shard holds the account that migrated away")
	}
	after, total := balances()
	if total != supply {
		t.Fatalf("money supply %d after the source's restart, was %d", total, supply)
	}
	for acct, was := range before {
		if after[acct] != was {
			t.Fatalf("account %v holds %d after the source's restart, held %d", acct, after[acct], was)
		}
	}
}
