package lease

import (
	"fmt"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"testing"

	"amoeba/internal/cap"
	"amoeba/internal/obs"
)

func testDir(obj uint32) cap.Capability {
	return cap.Capability{
		Server: cap.Port(0x0102_0304_0506_0708),
		Object: obj,
		Rights: cap.AllRights,
		Check:  0xDEAD_BEEF_0000_0000 | uint64(obj),
	}
}

func testEntry(obj uint32) cap.Capability {
	c := testDir(obj)
	c.Check ^= 0x5A5A
	return c
}

func TestCacheHitMissExpiry(t *testing.T) {
	var ctr Counters
	c := New(0, ctr)
	clock := int64(1000)
	c.Now = func() int64 { return clock }

	dir, ent := testDir(1), testEntry(2)
	if _, ok := c.Get(dir, "a", clock); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put(dir, "a", ent, 3, clock+100)
	if got, ok := c.Get(dir, "a", clock); !ok || got != ent {
		t.Fatalf("want hit with %v, got %v %v", ent, got, ok)
	}
	if _, ok := c.Get(dir, "a", clock+99); !ok {
		t.Fatal("expired one nanosecond early")
	}
	if _, ok := c.Get(dir, "a", clock+100); ok {
		t.Fatal("served a lapsed lease")
	}
}

func TestCacheKeysAreFullCapabilities(t *testing.T) {
	c := New(0, Counters{})
	dir := testDir(1)
	restricted := dir
	restricted.Rights = cap.RightRead
	restricted.Check = 0x1111 // restriction re-keys the check
	c.Put(dir, "a", testEntry(2), 1, 100)
	if _, ok := c.Get(restricted, "a", 0); ok {
		t.Fatal("a differently-restricted capability shared a cache entry")
	}
}

func TestCacheFloorInvalidatesOwnWrites(t *testing.T) {
	c := New(0, Counters{})
	dir := testDir(7)
	c.Put(dir, "a", testEntry(2), 4, 1_000_000)
	c.Observe(dir.Server, dir.Object, 5) // my write bumped the dir to gen 5
	if _, ok := c.Get(dir, "a", 0); ok {
		t.Fatal("served a binding older than my own write")
	}
	c.Put(dir, "a", testEntry(3), 5, 1_000_000)
	if got, ok := c.Get(dir, "a", 0); !ok || got != testEntry(3) {
		t.Fatal("binding at the floor generation must serve")
	}
	// Floors never move backwards.
	c.Observe(dir.Server, dir.Object, 2)
	if _, ok := c.Get(dir, "a", 0); !ok {
		t.Fatal("a stale Observe moved the floor backwards")
	}
}

func TestCacheDropForgetsDirectory(t *testing.T) {
	c := New(0, Counters{})
	dir, other := testDir(1), testDir(2)
	c.Put(dir, "a", testEntry(3), 1, 1_000_000)
	c.Put(dir, "b", testEntry(4), 1, 1_000_000)
	c.Put(other, "a", testEntry(5), 1, 1_000_000)
	c.Observe(dir.Server, dir.Object, 9)
	c.Drop(dir.Server, dir.Object)
	if c.Len() != 1 {
		t.Fatalf("want 1 surviving binding, have %d", c.Len())
	}
	if _, ok := c.Get(other, "a", 0); !ok {
		t.Fatal("Drop took out an unrelated directory")
	}
	// The floor was cleared with the directory: a reused object number
	// restarts at generation zero and must be cacheable again.
	c.Put(dir, "a", testEntry(6), 0, 1_000_000)
	if _, ok := c.Get(dir, "a", 0); !ok {
		t.Fatal("floor survived Drop; reused object number uncacheable")
	}
}

func TestCachePoisonFailsClosed(t *testing.T) {
	c := New(0, Counters{})
	dir := testDir(1)
	c.Put(dir, "a", testEntry(2), 1, 1_000_000)
	c.Poison(dir.Server, dir.Object)
	if _, ok := c.Get(dir, "a", 0); ok {
		t.Fatal("poisoned directory still served")
	}
	c.Put(dir, "a", testEntry(3), 7, 1_000_000)
	if _, ok := c.Get(dir, "a", 0); ok {
		t.Fatal("poison must outlast later leases (floor is max)")
	}
}

func TestCacheBounded(t *testing.T) {
	c := New(8, Counters{})
	dir := testDir(1)
	for i := 0; i < 100; i++ {
		c.Put(dir, fmt.Sprintf("n%d", i), testEntry(uint32(i)), 1, 1_000_000)
	}
	if c.Len() > 8 {
		t.Fatalf("cache grew to %d bindings past its bound of 8", c.Len())
	}
}

func TestCacheCounters(t *testing.T) {
	ctr := Counters{
		Hits:        &obs.Counter{},
		Misses:      &obs.Counter{},
		Expired:     &obs.Counter{},
		Invalidated: &obs.Counter{},
	}
	c := New(0, ctr)
	dir := testDir(1)
	c.Get(dir, "a", 0)                    // miss
	c.Put(dir, "a", testEntry(2), 3, 100) //
	c.Get(dir, "a", 50)                   // hit
	c.Get(dir, "a", 100)                  // expired
	c.Observe(dir.Server, dir.Object, 4)  //
	c.Get(dir, "a", 50)                   // invalidated
	for name, want := range map[string]struct {
		c    *obs.Counter
		want uint64
	}{
		"hits":        {ctr.Hits, 1},
		"misses":      {ctr.Misses, 1},
		"expired":     {ctr.Expired, 1},
		"invalidated": {ctr.Invalidated, 1},
	} {
		if got := want.c.Value(); got != want.want {
			t.Errorf("%s = %d, want %d", name, got, want.want)
		}
	}
}

// chain caches root → d0 → d1 → … and returns the path "d0/d1/…"
// and the capability it resolves to. Directory i is testDir(base+i).
func chain(c *Cache, base uint32, depth int) (cap.Capability, string, cap.Capability) {
	root := testDir(base)
	dir, path := root, ""
	for i := 0; i < depth; i++ {
		next := testDir(base + uint32(i) + 1)
		name := fmt.Sprintf("d%d", i)
		c.Put(dir, name, next, 1, 1<<62)
		dir = next
		path += "/" + name
	}
	return root, path, dir
}

func TestCacheDropRetiresLinkedNode(t *testing.T) {
	c := New(0, Counters{})
	root, a, b := testDir(1), testDir(2), testDir(3)
	c.Put(root, "a", a, 1, 1_000_000)
	c.Put(a, "b", b, 1, 1_000_000)
	if got, _, n := c.ResolvePath(root, "a/b", 0); n != 2 || got != b {
		t.Fatalf("warm walk served %d reaching %v, want 2 reaching %v", n, got, b)
	}
	// The walk above linked root's "a" binding to a's node; Drop must
	// make that link lead nowhere.
	c.Drop(a.Server, a.Object)
	if got, rest, n := c.ResolvePath(root, "a/b", 0); n != 1 || got != a || rest != "b" {
		t.Fatalf("after Drop(a) the walk served %d, reached %v, left %q; want 1, a, \"b\"", n, got, rest)
	}
	c.Put(a, "b", b, 1, 1_000_000)
	if got, _, n := c.ResolvePath(root, "a/b", 0); n != 2 || got != b {
		t.Fatalf("re-Put binding under a was not re-linked: served %d", n)
	}
}

func TestCacheEvictionRetiresLinkedNode(t *testing.T) {
	c := New(2, Counters{})
	c.Now = func() int64 { return 500 } // the eviction clock
	root, a, b, other := testDir(1), testDir(2), testDir(3), testDir(4)
	c.Put(root, "a", a, 1, 1_000_000)
	c.Put(a, "b", b, 1, 100) // lapsed by the eviction clock
	if _, _, n := c.ResolvePath(root, "a/b", 0); n != 2 {
		t.Fatalf("warm walk served %d, want 2", n)
	}
	// At capacity the lapsed binding is the victim, which empties a's node.
	c.Put(other, "x", testEntry(9), 1, 100)
	if c.Len() != 2 {
		t.Fatalf("Len = %d after eviction, want 2", c.Len())
	}
	if _, rest, n := c.ResolvePath(root, "a/b", 0); n != 1 || rest != "b" {
		t.Fatalf("walk through a's evicted node served %d, left %q; want 1, \"b\"", n, rest)
	}
	// This Put evicts other's lapsed binding and re-creates a's node.
	c.Put(a, "b", b, 1, 1_000_000)
	if _, _, n := c.ResolvePath(root, "a/b", 0); n != 2 {
		t.Fatalf("re-Put binding under a was not re-linked: served %d", n)
	}
}

func TestCacheLinksKeepFullCapabilities(t *testing.T) {
	owner := testDir(2)
	restricted := owner
	restricted.Rights = cap.RightRead
	restricted.Check = 0x1111
	x, y := testEntry(10), testEntry(11)

	// The walk steps through the restricted capability; only the owner
	// has bindings under the directory.
	c := New(0, Counters{})
	c.Put(testDir(1), "a", restricted, 1, 1_000_000)
	c.Put(owner, "b", x, 1, 1_000_000)
	if got, _, n := c.ResolvePath(testDir(1), "a/b", 0); n != 1 || got != restricted {
		t.Fatalf("restricted step reached the owner's bindings: served %d reaching %v", n, got)
	}
	c.Put(restricted, "b", y, 1, 1_000_000)
	if got, _, n := c.ResolvePath(testDir(1), "a/b", 0); n != 2 || got != y {
		t.Fatalf("restricted step missed its own binding: served %d reaching %v", n, got)
	}

	// The reverse: the walk steps through the owner capability; only the
	// restricted one has bindings.
	c = New(0, Counters{})
	c.Put(testDir(1), "a", owner, 1, 1_000_000)
	c.Put(restricted, "b", y, 1, 1_000_000)
	if got, _, n := c.ResolvePath(testDir(1), "a/b", 0); n != 1 || got != owner {
		t.Fatalf("owner step reached a restricted capability's bindings: served %d reaching %v", n, got)
	}
}

// TestCacheSoakDropIsFinal runs walkers against a writer that caches
// and drops one fresh directory per round, beside Puts that force
// eviction, Observes and Flushes. A walk that starts after Drop(x)
// returned must never be served the binding under x. Run under -race.
func TestCacheSoakDropIsFinal(t *testing.T) {
	rounds := 3000
	if testing.Short() {
		rounds = 500
	}
	c := New(64, Counters{})
	root := testDir(1)
	name := func(r int) string { return fmt.Sprintf("r%d", r) }
	xdir := func(r int) cap.Capability { return testDir(uint32(1000 + r)) }
	var (
		dropped atomic.Int64 // rounds whose Drop has returned
		done    atomic.Bool
		bad     atomic.Int64
		wg      sync.WaitGroup
	)
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(seed, 1))
			for !done.Load() {
				d := int(dropped.Load())
				k := d - rng.IntN(8) // k == d: the round not yet dropped
				if k < 0 {
					continue
				}
				_, _, n := c.ResolvePath(root, name(k)+"/leaf", 0)
				if n == 2 && k < d {
					bad.Add(1)
				}
				if _, ok := c.Get(xdir(k), "leaf", 0); ok && k < d {
					bad.Add(1)
				}
				c.Get(testDir(100_000), "noise", 0) // overwritten by the Puts below
			}
		}(uint64(w))
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewPCG(99, 2))
		for i := 0; !done.Load(); i++ {
			switch rng.IntN(50) {
			case 0:
				c.Flush()
			case 1, 2, 3:
				x := xdir(int(dropped.Load()))
				c.Observe(x.Server, x.Object, 1)
			default:
				c.Put(testDir(100_000), "noise", testEntry(uint32(i%2)), 1, 1<<62) // overwrite
				c.Put(testDir(uint32(100_001+i%4096)), "noise", testEntry(7), 1, 1<<62)
			}
		}
	}()
	for r := 0; r < rounds; r++ {
		c.Put(root, name(r), xdir(r), 1, 1<<62)
		c.Put(xdir(r), "leaf", testEntry(3), 1, 1<<62)
		c.ResolvePath(root, name(r)+"/leaf", 0) // link root's binding to x's node
		c.Drop(xdir(r).Server, xdir(r).Object)
		dropped.Store(int64(r + 1))
	}
	done.Store(true)
	wg.Wait()
	if n := bad.Load(); n > 0 {
		t.Fatalf("%d walks that started after Drop(x) were served the binding under x", n)
	}
}

func TestCacheDeepHitAllocatesNothing(t *testing.T) {
	c := New(0, Counters{})
	root, path, want := chain(c, 1, 8)
	allocs := testing.AllocsPerRun(1000, func() {
		if got, _, n := c.ResolvePath(root, path, 0); n != 8 || got != want {
			t.Fatalf("served %d reaching %v, want 8 reaching %v", n, got, want)
		}
	})
	if allocs != 0 {
		t.Fatalf("a depth-8 hit allocated %.1f times per walk, want 0", allocs)
	}
}

func BenchmarkResolvePath(b *testing.B) {
	for _, depth := range []int{1, 8, 16} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			c := New(0, Counters{})
			root, path, _ := chain(c, 1, depth)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, n := c.ResolvePath(root, path, 0); n != depth {
					b.Fatalf("served %d of %d", n, depth)
				}
			}
		})
	}
}

// BenchmarkCachePutAtCapacity prices a Put that must evict, with every
// cached lease fresh: its cost must not grow with the cache's bound.
func BenchmarkCachePutAtCapacity(b *testing.B) {
	names := make([]string, 8)
	for i := range names {
		names[i] = fmt.Sprintf("n%d", i)
	}
	for _, max := range []int{1024, 16384} {
		b.Run(fmt.Sprintf("max=%d", max), func(b *testing.B) {
			c := New(max, Counters{})
			put := func(i int) {
				c.Put(testDir(uint32(i/len(names))), names[i%len(names)], testEntry(2), 1, 1<<62)
			}
			for i := 0; i < max; i++ {
				put(i)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				put(max + i)
			}
		})
	}
}

func BenchmarkCacheHit(b *testing.B) {
	c := New(0, Counters{})
	dir := testDir(1)
	c.Put(dir, "component", testEntry(2), 1, 1<<62)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := c.Get(dir, "component", 0); !ok {
			b.Fatal("miss")
		}
	}
}
