package locate

import (
	"context"
	"testing"
	"time"

	"amoeba/internal/amnet"
	"amoeba/internal/cap"
	"amoeba/internal/shard"
)

// shardRig: a resolver wired to an atlas holding a 3-shard map for one
// port. Objects 0,1,2 hash to shards 0,1,2.
func shardRig(t *testing.T) (*Resolver, *shard.Atlas, cap.Port, []amnet.MachineID) {
	t.Helper()
	r := newRig(t)
	atlas := shard.NewAtlas()
	p := cap.Port(0xBEEF)
	machines := []amnet.MachineID{101, 102, 103}
	atlas.Register(p, shard.NewMap(machines))
	cfg := fastCfg()
	cfg.Atlas = atlas
	return New(r.client, cfg), atlas, p, machines
}

func TestLookupObjectRoutesByShard(t *testing.T) {
	ctx := context.Background()
	res, _, p, machines := shardRig(t)
	for obj := uint32(0); obj < 6; obj++ {
		at, err := res.LookupObject(ctx, p, obj, true)
		if err != nil {
			t.Fatal(err)
		}
		if want := machines[obj%3]; at != want {
			t.Fatalf("object %d routed to %v, want %v", obj, at, want)
		}
	}
	// One atlas read, then every lookup routes from the cached map.
	if s := res.Stats(); s.Misses != 1 || s.Hits != 5 || s.Broadcasts != 0 {
		t.Fatalf("stats %+v, want 1 miss / 5 hits / 0 broadcasts", s)
	}
}

func TestLookupObjectRoundRobinWithoutObject(t *testing.T) {
	ctx := context.Background()
	res, _, p, _ := shardRig(t)
	seen := make(map[amnet.MachineID]int)
	for i := 0; i < 9; i++ {
		at, err := res.LookupObject(ctx, p, 0, false)
		if err != nil {
			t.Fatal(err)
		}
		seen[at]++
	}
	if len(seen) != 3 {
		t.Fatalf("objectless requests hit %d machines, want all 3: %v", len(seen), seen)
	}
	for at, n := range seen {
		if n != 3 {
			t.Fatalf("machine %v got %d requests, want an even 3: %v", at, n, seen)
		}
	}
}

// TestShardedEvictSparesSiblingShards: a failing call to shard 2 drops
// the cached shard map, which names shard 2's machine, and nothing
// routes through a broadcast: the sibling shards go on routing to
// their machines from the map read afresh. An eviction blaming a
// machine the map does not name keeps the map. (Evict once assumed one
// machine per port, and a failing call to shard 2 sent every shard of
// the port back to LOCATE.)
func TestShardedEvictSparesSiblingShards(t *testing.T) {
	ctx := context.Background()
	res, _, p, machines := shardRig(t)
	routesHome := func(why string) {
		t.Helper()
		for obj := uint32(0); obj < 3; obj++ {
			at, err := res.LookupObject(ctx, p, obj, true)
			if err != nil {
				t.Fatal(err)
			}
			if at != machines[obj] {
				t.Fatalf("%s: object %d routed to %v, want %v", why, obj, at, machines[obj])
			}
		}
	}
	routesHome("warmup")
	before := res.Stats()

	res.Evict(p, machines[2])
	routesHome("after evicting shard 2's machine")
	s := res.Stats()
	if s.Misses != before.Misses+1 || s.Broadcasts != 0 {
		t.Fatalf("want one atlas re-read and no broadcast after the eviction: %+v (before %+v)", s, before)
	}

	res.Evict(p, amnet.MachineID(999))
	routesHome("after an unrelated eviction")
	if s2 := res.Stats(); s2.Misses != s.Misses {
		t.Fatalf("unrelated eviction dropped the map: %+v", s2)
	}
}

// TestLapsedMapRoutesMovedShard: when a shard's map lapses past
// its TTL and the atlas has since moved the shard, the object routes
// to the shard's new machine. A route learned after the map (a second
// cache beside it) would outlive the map and keep sending the shard's
// traffic to the old machine.
func TestLapsedMapRoutesMovedShard(t *testing.T) {
	ctx := context.Background()
	r := newRig(t)
	atlas := shard.NewAtlas()
	p := cap.Port(0xBEEF)
	machines := []amnet.MachineID{101, 102, 103}
	atlas.Register(p, shard.NewMap(machines))
	cfg := fastCfg()
	cfg.Atlas = atlas
	cfg.TTL = time.Minute
	fb, clk := r.skewedMachine(t)
	res := New(fb, cfg)

	if at, err := res.LookupObject(ctx, p, 0, true); err != nil || at != machines[0] {
		t.Fatalf("shard 0: at=%v err=%v, want %v", at, err, machines[0])
	}
	clk.off.Store(int64(40 * time.Second))
	if at, err := res.LookupObject(ctx, p, 1, true); err != nil || at != machines[1] {
		t.Fatalf("shard 1: at=%v err=%v, want %v", at, err, machines[1])
	}
	const moved = amnet.MachineID(201)
	atlas.Update(p, func(m *shard.Map) *shard.Map { return m.WithMachine(1, moved) })
	clk.off.Store(int64(70 * time.Second)) // the map, learned at 0, has lapsed
	if at, err := res.LookupObject(ctx, p, 1, true); err != nil || at != moved {
		t.Fatalf("shard 1 after its move: at=%v err=%v, want the new machine %v", at, err, moved)
	}
}

// TestRefreshReroutesMigratedObject: after a migration bumps the map,
// Refresh (driven by a StatusWrongShard reply) makes the resolver
// re-read the atlas and route the object to its new home — while the
// sibling shard routes stay cached.
func TestRefreshReroutesMigratedObject(t *testing.T) {
	ctx := context.Background()
	res, atlas, p, machines := shardRig(t)
	if at, err := res.LookupObject(ctx, p, 5, true); err != nil || at != machines[2] {
		t.Fatalf("at=%v err=%v, want shard 2 (%v)", at, err, machines[2])
	}

	// Object 5 migrates to shard 0; the resolver's cached map is stale.
	atlas.Update(p, func(m *shard.Map) *shard.Map { return m.WithOverride(5, 0) })
	if at, _ := res.LookupObject(ctx, p, 5, true); at != machines[2] {
		t.Fatalf("stale map should still route to shard 2, got %v", at)
	}

	// The server answered WrongShard with its generation; Refresh drops
	// the stale map and the retry routes to the new home.
	res.Refresh(p, res.MapGen(p))
	at, err := res.LookupObject(ctx, p, 5, true)
	if err != nil {
		t.Fatal(err)
	}
	if at != machines[0] {
		t.Fatalf("refreshed lookup routed to %v, want shard 0 (%v)", at, machines[0])
	}
	// A Refresh against an OLDER generation than the cached map is a
	// no-op (the reply was from a server behind this client's map).
	res.Refresh(p, 1)
	if at, _ := res.LookupObject(ctx, p, 5, true); at != machines[0] {
		t.Fatalf("stale refresh dropped a fresh map; routed to %v", at)
	}
}
