package dirsvr

import (
	"context"
	"fmt"
	"testing"
	"time"

	"amoeba/internal/cap"
	"amoeba/internal/clock"
	"amoeba/internal/lease"
	"amoeba/internal/obs"
	"amoeba/internal/rpc"
	"amoeba/internal/server/servertest"
)

// leaseRig is a dirsvr with leases on plus a caching client whose
// clock is moved by hand.
type leaseRig struct {
	s     *Server
	d     *Client
	cache *lease.Cache
	ctr   lease.Counters
	clock *int64
}

func newLeaseRig(t *testing.T, seed uint64, dur time.Duration) *leaseRig {
	t.Helper()
	r := servertest.New(t, seed)
	s := newServer(t, r)
	s.SetLookupLease(dur)
	ctr := lease.Counters{
		Hits:        &obs.Counter{},
		Misses:      &obs.Counter{},
		Expired:     &obs.Counter{},
		Invalidated: &obs.Counter{},
	}
	clock := new(int64)
	cache := lease.New(0, ctr, handClock{ns: clock})
	return &leaseRig{s: s, d: NewCachingClient(r.Client, cache), cache: cache, ctr: ctr, clock: clock}
}

// handClock reads unix nanoseconds from *ns, which the test moves.
type handClock struct {
	clock.Clock // unset: the cache reads only Now
	ns          *int64
}

func (c handClock) Now() time.Time { return time.Unix(0, *c.ns) }

func TestLeaseCachedLookupServesLocally(t *testing.T) {
	ctx := context.Background()
	rig := newLeaseRig(t, 0x1EA1, time.Minute)
	dir, err := rig.d.CreateDir(ctx, rig.s.PutPort())
	if err != nil {
		t.Fatal(err)
	}
	target := cap.Capability{Server: 0xBEEF, Object: 7, Rights: cap.RightRead, Check: 0x1234}
	if err := rig.d.Enter(ctx, dir, "report.txt", target); err != nil {
		t.Fatal(err)
	}
	if got, err := rig.d.Lookup(ctx, dir, "report.txt"); err != nil || got != target {
		t.Fatalf("first lookup: %v %v", got, err)
	}
	// The strongest possible "zero RPCs" proof: take the server away.
	rig.s.Close()
	for i := 0; i < 3; i++ {
		got, err := rig.d.Lookup(ctx, dir, "report.txt")
		if err != nil || got != target {
			t.Fatalf("cached lookup %d with server gone: %v %v", i, got, err)
		}
	}
	if hits := rig.ctr.Hits.Value(); hits != 3 {
		t.Fatalf("want 3 cache hits, counted %d", hits)
	}
}

func TestLeaseExpiryBoundsStaleness(t *testing.T) {
	ctx := context.Background()
	rig := newLeaseRig(t, 0x1EA2, 10*time.Millisecond)
	dir, err := rig.d.CreateDir(ctx, rig.s.PutPort())
	if err != nil {
		t.Fatal(err)
	}
	target := cap.Capability{Server: 0xBEEF, Object: 7, Rights: cap.RightRead, Check: 0x1234}
	if err := rig.d.Enter(ctx, dir, "f", target); err != nil {
		t.Fatal(err)
	}
	if _, err := rig.d.Lookup(ctx, dir, "f"); err != nil {
		t.Fatal(err)
	}
	if _, err := rig.d.Lookup(ctx, dir, "f"); err != nil {
		t.Fatal(err) // still under lease: a hit
	}
	*rig.clock += int64(10 * time.Millisecond) // lease lapses exactly
	if _, err := rig.d.Lookup(ctx, dir, "f"); err != nil {
		t.Fatal(err) // re-fetched from the server, new lease banked
	}
	if exp := rig.ctr.Expired.Value(); exp != 1 {
		t.Fatalf("want 1 expired binding, counted %d", exp)
	}
	if _, err := rig.d.Lookup(ctx, dir, "f"); err != nil {
		t.Fatal(err)
	}
	if hits := rig.ctr.Hits.Value(); hits != 2 {
		t.Fatalf("want 2 hits (before expiry, after refetch), counted %d", hits)
	}
}

func TestLeaseOwnWritesInvalidatePrecisely(t *testing.T) {
	ctx := context.Background()
	rig := newLeaseRig(t, 0x1EA3, time.Hour) // lease far too long to save us
	dir, err := rig.d.CreateDir(ctx, rig.s.PutPort())
	if err != nil {
		t.Fatal(err)
	}
	other, err := rig.d.CreateDir(ctx, rig.s.PutPort())
	if err != nil {
		t.Fatal(err)
	}
	oldCap := cap.Capability{Server: 0xBEEF, Object: 1, Rights: cap.RightRead, Check: 0x1111}
	newCap := cap.Capability{Server: 0xBEEF, Object: 2, Rights: cap.RightRead, Check: 0x2222}
	for _, e := range []struct {
		d cap.Capability
		n string
		c cap.Capability
	}{{dir, "f", oldCap}, {other, "g", oldCap}} {
		if err := rig.d.Enter(ctx, e.d, e.n, e.c); err != nil {
			t.Fatal(err)
		}
	}
	// Warm both bindings.
	if _, err := rig.d.Lookup(ctx, dir, "f"); err != nil {
		t.Fatal(err)
	}
	if _, err := rig.d.Lookup(ctx, other, "g"); err != nil {
		t.Fatal(err)
	}
	// Rename f through this very client: remove + enter. The mutation
	// replies carry the bumped generation, so the cached binding for
	// dir must stop being served instantly — no lease wait.
	if err := rig.d.Remove(ctx, dir, "f"); err != nil {
		t.Fatal(err)
	}
	if err := rig.d.Enter(ctx, dir, "f", newCap); err != nil {
		t.Fatal(err)
	}
	got, err := rig.d.Lookup(ctx, dir, "f")
	if err != nil {
		t.Fatal(err)
	}
	if got != newCap {
		t.Fatalf("read my own write back as %v, want %v", got, newCap)
	}
	if inv := rig.ctr.Invalidated.Value(); inv == 0 {
		t.Fatal("own write did not invalidate the cached binding")
	}
	// Precision: the untouched directory's binding still serves locally.
	hitsBefore := rig.ctr.Hits.Value()
	if _, err := rig.d.Lookup(ctx, other, "g"); err != nil {
		t.Fatal(err)
	}
	if rig.ctr.Hits.Value() != hitsBefore+1 {
		t.Fatal("a write to one directory invalidated another's binding")
	}
}

func TestLeasePathWalkMergesEveryStep(t *testing.T) {
	ctx := context.Background()
	rig := newLeaseRig(t, 0x1EA4, time.Minute)
	root, err := rig.d.CreateDir(ctx, rig.s.PutPort())
	if err != nil {
		t.Fatal(err)
	}
	// root/a/b/c → leaf
	cur := root
	for _, name := range []string{"a", "b", "c"} {
		sub, err := rig.d.CreateDir(ctx, rig.s.PutPort())
		if err != nil {
			t.Fatal(err)
		}
		if err := rig.d.Enter(ctx, cur, name, sub); err != nil {
			t.Fatal(err)
		}
		cur = sub
	}
	leaf := cap.Capability{Server: 0xBEEF, Object: 9, Rights: cap.RightRead, Check: 0x9999}
	if err := rig.d.Enter(ctx, cur, "leaf", leaf); err != nil {
		t.Fatal(err)
	}
	got, err := rig.d.LookupPath(ctx, root, "a/b/c/leaf")
	if err != nil || got != leaf {
		t.Fatalf("warm walk: %v %v", got, err)
	}
	if n := rig.cache.Len(); n != 4 {
		t.Fatalf("walk cached %d bindings, want all 4 steps", n)
	}
	// Every subsequent walk — and every prefix of it — is local.
	rig.s.Close()
	if got, err := rig.d.LookupPath(ctx, root, "a/b/c/leaf"); err != nil || got != leaf {
		t.Fatalf("cached walk with server gone: %v %v", got, err)
	}
	if got, err := rig.d.LookupPath(ctx, root, "//a//b/"); err != nil || got == cap.Nil {
		t.Fatalf("cached prefix walk: %v %v", got, err)
	}
	if hits := rig.ctr.Hits.Value(); hits != 6 {
		t.Fatalf("want 6 hits (4-step walk + 2-step prefix), counted %d", hits)
	}
}

// TestLeaseOwnWriteKeepsSiblingWalk: a client's own Enter and Remove
// of a scratch name in a directory its cached walk passes through drop
// only the scratch name's binding. The next walk costs zero RPCs — it
// is served whole with the server gone — and the scratch name reads
// back exactly what this client last wrote.
func TestLeaseOwnWriteKeepsSiblingWalk(t *testing.T) {
	const depth, mid = 6, 3 // the scratch name goes in the walk's 3rd directory
	ctx := context.Background()
	rig := newLeaseRig(t, 0x1EA7, time.Hour)
	root, err := rig.d.CreateDir(ctx, rig.s.PutPort())
	if err != nil {
		t.Fatal(err)
	}
	cur, path, d := root, "", cap.Nil
	for i := 0; i < depth; i++ {
		if i == mid {
			d = cur
		}
		sub, err := rig.d.CreateDir(ctx, rig.s.PutPort())
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("d%d", i)
		if err := rig.d.Enter(ctx, cur, name, sub); err != nil {
			t.Fatal(err)
		}
		cur, path = sub, path+"/"+name
	}
	leaf := cur
	if got, err := rig.d.LookupPath(ctx, root, path); err != nil || got != leaf {
		t.Fatalf("warm walk: %v %v", got, err)
	}

	scratch := cap.Capability{Server: 0xBEEF, Object: 3, Rights: cap.RightRead, Check: 0x3333}
	if err := rig.d.Enter(ctx, d, "scratch", scratch); err != nil {
		t.Fatal(err)
	}
	if got, err := rig.d.Lookup(ctx, d, "scratch"); err != nil || got != scratch {
		t.Fatalf("read my Enter back as %v %v, want %v", got, err, scratch)
	}
	if err := rig.d.Remove(ctx, d, "scratch"); err != nil {
		t.Fatal(err)
	}
	if got, err := rig.d.Lookup(ctx, d, "scratch"); !rpc.IsStatus(err, rpc.StatusServerError) {
		t.Fatalf("read my Remove back as %v %v, want no entry", got, err)
	}

	hits, misses := rig.ctr.Hits.Value(), rig.ctr.Misses.Value()
	rig.s.Close()
	if got, err := rig.d.LookupPath(ctx, root, path); err != nil || got != leaf {
		t.Fatalf("walk after my writes in its directory, server gone: %v %v", got, err)
	}
	if h := rig.ctr.Hits.Value() - hits; h != depth {
		t.Fatalf("the walk after my writes served %d components from cache, want %d", h, depth)
	}
	if m := rig.ctr.Misses.Value() - misses; m != 0 {
		t.Fatalf("the walk after my writes missed %d times", m)
	}
}

// TestLeaseOffKeepsLegacyWire pins that a zero lease duration leaves
// the reply wire format byte-identical: a caching client against a
// lease-less server caches nothing and falls through to RPCs.
func TestLeaseOffKeepsLegacyWire(t *testing.T) {
	ctx := context.Background()
	r := servertest.New(t, 0x1EA5)
	s := newServer(t, r) // lease never set
	d := NewCachingClient(r.Client, lease.New(0, lease.Counters{}, r.Client.Clock()))
	dir, err := d.CreateDir(ctx, s.PutPort())
	if err != nil {
		t.Fatal(err)
	}
	target := cap.Capability{Server: 0xBEEF, Object: 7, Rights: cap.RightRead, Check: 0x1234}
	if err := d.Enter(ctx, dir, "f", target); err != nil {
		t.Fatal(err)
	}
	rep, err := r.Client.Call(ctx, dir, OpLookup, []byte("f"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Data) != 0 {
		t.Fatalf("lease-less lookup reply carries %d data bytes, want 0", len(rep.Data))
	}
	if _, err := d.Lookup(ctx, dir, "f"); err != nil {
		t.Fatal(err)
	}
	if n := d.cache.Len(); n != 0 {
		t.Fatalf("cache banked %d bindings from a lease-less server", n)
	}
	rep, err = r.Client.Call(ctx, dir, OpLookupPath, []byte("f"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Data) != 2+cap.Size {
		t.Fatalf("lease-less lookup-path reply is %d bytes, want %d", len(rep.Data), 2+cap.Size)
	}
}

// TestLeaseRevokedCapabilityFailsClosed pins the revocation story: a
// cached capability is only a NAME — presenting it still runs the
// server's secret check, so once the directory's capability is revoked
// (re-keyed), the cached walk's next RPC is refused.
func TestLeaseRevokedCapabilityFailsClosed(t *testing.T) {
	ctx := context.Background()
	rig := newLeaseRig(t, 0x1EA6, time.Hour)
	root, err := rig.d.CreateDir(ctx, rig.s.PutPort())
	if err != nil {
		t.Fatal(err)
	}
	sub, err := rig.d.CreateDir(ctx, rig.s.PutPort())
	if err != nil {
		t.Fatal(err)
	}
	if err := rig.d.Enter(ctx, root, "sub", sub); err != nil {
		t.Fatal(err)
	}
	// Warm: the binding root/"sub" → sub is now cached.
	if _, err := rig.d.Lookup(ctx, root, "sub"); err != nil {
		t.Fatal(err)
	}
	// Revoke sub's capability (re-key its secret server-side).
	if _, err := rig.s.Table().Revoke(sub); err != nil {
		t.Fatal(err)
	}
	// The cache still serves the stale NAME — harmless...
	got, err := rig.d.Lookup(ctx, root, "sub")
	if err != nil {
		t.Fatal(err)
	}
	// ...because USING it fails closed at the server.
	if _, err := rig.d.Lookup(ctx, got, "anything"); err == nil || !rpc.IsStatus(err, rpc.StatusBadCapability) {
		t.Fatalf("revoked cached capability was honored: %v", err)
	}
}
