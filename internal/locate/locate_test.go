package locate

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"amoeba/internal/amnet"
	"amoeba/internal/cap"
	"amoeba/internal/clock"
	"amoeba/internal/crypto"
	"amoeba/internal/fbox"
)

type rig struct {
	net    *amnet.SimNet
	client *fbox.FBox
	server *fbox.FBox
}

func newRig(t *testing.T) *rig {
	t.Helper()
	n := amnet.NewSimNet(amnet.SimConfig{})
	t.Cleanup(func() { n.Close() })
	attach := func() *fbox.FBox {
		nic, err := n.Attach()
		if err != nil {
			t.Fatal(err)
		}
		fb := fbox.New(nic, nil)
		t.Cleanup(func() { fb.Close() })
		return fb
	}
	return &rig{net: n, client: attach(), server: attach()}
}

// skewedNIC is a machine whose clock runs ahead of the network's by an
// offset the test moves.
type skewedNIC struct {
	amnet.NIC
	clk *offsetClock
}

func (n skewedNIC) Clock() clock.Clock { return n.clk }

type offsetClock struct {
	clock.Clock
	off atomic.Int64
}

func (c *offsetClock) Now() time.Time { return c.Clock.Now().Add(time.Duration(c.off.Load())) }

// skewedMachine attaches one more machine, with a movable clock.
func (r *rig) skewedMachine(t *testing.T) (*fbox.FBox, *offsetClock) {
	t.Helper()
	nic, err := r.net.Attach()
	if err != nil {
		t.Fatal(err)
	}
	clk := &offsetClock{Clock: nic.Clock()}
	fb := fbox.New(skewedNIC{nic, clk}, nil)
	t.Cleanup(func() { fb.Close() })
	return fb, clk
}

func fastCfg() Config {
	return Config{Timeout: 100 * time.Millisecond, Attempts: 2}
}

func TestLookupViaBroadcast(t *testing.T) {
	ctx := context.Background()
	r := newRig(t)
	g := cap.Port(crypto.Rand48(crypto.NewSeededSource(1)))
	if _, err := r.server.Get(g, true); err != nil {
		t.Fatal(err)
	}
	p := r.server.F(g)
	res := New(r.client, fastCfg())
	at, err := res.Lookup(ctx, p)
	if err != nil {
		t.Fatal(err)
	}
	if at != r.server.Machine() {
		t.Fatalf("located %v, want %v", at, r.server.Machine())
	}
	s := res.Stats()
	if s.Misses != 1 || s.Broadcasts == 0 {
		t.Fatalf("stats %+v", s)
	}
}

func TestLookupCachesResult(t *testing.T) {
	ctx := context.Background()
	r := newRig(t)
	g := cap.Port(crypto.Rand48(crypto.NewSeededSource(2)))
	if _, err := r.server.Get(g, true); err != nil {
		t.Fatal(err)
	}
	p := r.server.F(g)
	res := New(r.client, fastCfg())
	if _, err := res.Lookup(ctx, p); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := res.Lookup(ctx, p); err != nil {
			t.Fatal(err)
		}
	}
	s := res.Stats()
	if s.Hits != 5 || s.Misses != 1 {
		t.Fatalf("stats %+v, want 5 hits 1 miss", s)
	}
	if res.CacheLen() != 1 {
		t.Fatalf("CacheLen = %d", res.CacheLen())
	}
}

func TestLookupNotFound(t *testing.T) {
	ctx := context.Background()
	r := newRig(t)
	res := New(r.client, fastCfg())
	start := time.Now()
	_, err := res.Lookup(ctx, cap.Port(0xdead))
	if !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
	if elapsed := time.Since(start); elapsed < 150*time.Millisecond {
		t.Fatalf("gave up after %v; should have retried", elapsed)
	}
	if s := res.Stats(); s.Failures != 1 || s.Broadcasts != 2 {
		t.Fatalf("stats %+v", s)
	}
}

func TestInvalidateForcesRebroadcast(t *testing.T) {
	ctx := context.Background()
	r := newRig(t)
	g := cap.Port(crypto.Rand48(crypto.NewSeededSource(3)))
	if _, err := r.server.Get(g, true); err != nil {
		t.Fatal(err)
	}
	p := r.server.F(g)
	res := New(r.client, fastCfg())
	if _, err := res.Lookup(ctx, p); err != nil {
		t.Fatal(err)
	}
	res.Invalidate(p)
	if _, err := res.Lookup(ctx, p); err != nil {
		t.Fatal(err)
	}
	if s := res.Stats(); s.Misses != 2 {
		t.Fatalf("stats %+v, want 2 misses", s)
	}
}

// TestEvictSparesRefreshedEntry: Evict only drops the entry if it
// still names the suspect machine — a transaction that timed out
// against a dead machine must not clobber the route a concurrent
// lookup already refreshed to the server's new (promoted) home.
func TestEvictSparesRefreshedEntry(t *testing.T) {
	ctx := context.Background()
	r := newRig(t)
	res := New(r.client, fastCfg())

	dead := r.server.Machine() + 100 // a machine id nobody answers for
	res.Insert(cap.Port(9), dead)
	res.Evict(cap.Port(9), dead)
	if res.CacheLen() != 0 {
		t.Fatal("matching eviction kept the entry")
	}

	// The entry was refreshed to the new machine meanwhile: an eviction
	// blaming the OLD machine must leave it alone.
	res.Insert(cap.Port(9), r.server.Machine())
	res.Evict(cap.Port(9), dead)
	at, err := res.Lookup(ctx, cap.Port(9))
	if err != nil {
		t.Fatal(err)
	}
	if at != r.server.Machine() {
		t.Fatalf("at = %v", at)
	}
	if s := res.Stats(); s.Hits != 1 || s.Broadcasts != 0 {
		t.Fatalf("refreshed entry was evicted: %+v", s)
	}
}

func TestInsertSeedsCache(t *testing.T) {
	ctx := context.Background()
	r := newRig(t)
	res := New(r.client, fastCfg())
	res.Insert(cap.Port(7), r.server.Machine())
	at, err := res.Lookup(ctx, cap.Port(7))
	if err != nil {
		t.Fatal(err)
	}
	if at != r.server.Machine() {
		t.Fatalf("at = %v", at)
	}
	if s := res.Stats(); s.Hits != 1 || s.Broadcasts != 0 {
		t.Fatalf("stats %+v", s)
	}
}

func TestTTLExpiry(t *testing.T) {
	ctx := context.Background()
	r := newRig(t)
	g := cap.Port(crypto.Rand48(crypto.NewSeededSource(4)))
	if _, err := r.server.Get(g, true); err != nil {
		t.Fatal(err)
	}
	p := r.server.F(g)
	cfg := fastCfg()
	cfg.TTL = 10 * time.Millisecond
	fb, clk := r.skewedMachine(t)
	res := New(fb, cfg)
	if _, err := res.Lookup(ctx, p); err != nil {
		t.Fatal(err)
	}
	// Warp the client machine's clock past the TTL.
	clk.off.Store(int64(time.Hour))
	if _, err := res.Lookup(ctx, p); err != nil {
		t.Fatal(err)
	}
	if s := res.Stats(); s.Misses != 2 {
		t.Fatalf("stats %+v, want 2 misses after TTL expiry", s)
	}
}

func TestNegativeTTLNeverExpires(t *testing.T) {
	ctx := context.Background()
	r := newRig(t)
	cfg := fastCfg()
	cfg.TTL = -1
	fb, clk := r.skewedMachine(t)
	res := New(fb, cfg)
	res.Insert(cap.Port(9), r.server.Machine())
	clk.off.Store(int64(1000 * time.Hour))
	if _, err := res.Lookup(ctx, cap.Port(9)); err != nil {
		t.Fatal(err)
	}
	if s := res.Stats(); s.Hits != 1 {
		t.Fatalf("stats %+v", s)
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Timeout <= 0 || c.Attempts <= 0 || c.TTL <= 0 {
		t.Fatalf("defaults not applied: %+v", c)
	}
}
