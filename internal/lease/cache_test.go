package lease

import (
	"fmt"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"amoeba/internal/cap"
	"amoeba/internal/clock"
	"amoeba/internal/obs"
)

// stoppedAt is a clock stopped at a unix-nanosecond instant. The tests
// hand every lookup its instant; only eviction reads the cache's clock.
type stoppedAt struct {
	clock.Clock // unset: the cache reads only Now
	ns          int64
}

func (c stoppedAt) Now() time.Time { return time.Unix(0, c.ns) }

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
	clock := int64(1000)
	c := New(0, ctr, stoppedAt{ns: clock})

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
	c := New(0, Counters{}, stoppedAt{})
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
	c := New(0, Counters{}, stoppedAt{})
	dir := testDir(7)
	c.Put(dir, "a", testEntry(2), 4, 1_000_000)
	c.Observe(dir.Server, dir.Object, "a", 5) // my write bumped the dir to gen 5
	if _, ok := c.Get(dir, "a", 0); ok {
		t.Fatal("served a binding older than my own write")
	}
	c.Put(dir, "a", testEntry(3), 5, 1_000_000)
	if got, ok := c.Get(dir, "a", 0); !ok || got != testEntry(3) {
		t.Fatal("binding at the floor generation must serve")
	}
	// Floors never move backwards.
	c.Observe(dir.Server, dir.Object, "a", 2)
	if _, ok := c.Get(dir, "a", 0); !ok {
		t.Fatal("a stale Observe moved the floor backwards")
	}
}

// restrictedDir is a second capability for testDir(obj)'s directory.
func restrictedDir(obj uint32) cap.Capability {
	c := testDir(obj)
	c.Rights = cap.RightRead
	c.Check = 0x1111_0000 | uint64(obj)
	return c
}

// TestCacheOwnWriteKeepsSibling: an own write of one name drops that
// name's binding and no other — each name is its own register.
func TestCacheOwnWriteKeepsSibling(t *testing.T) {
	c := New(0, Counters{}, stoppedAt{})
	dir := testDir(7)
	c.Put(dir, "x", testEntry(2), 4, 1_000_000)
	c.Put(dir, "y", testEntry(3), 4, 1_000_000)
	c.Observe(dir.Server, dir.Object, "x", 5)
	if _, ok := c.Get(dir, "x", 0); ok {
		t.Fatal("served the binding my own write replaced")
	}
	if got, ok := c.Get(dir, "y", 0); !ok || got != testEntry(3) {
		t.Fatal("my write of x dropped the binding for y")
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d after dropping x, want 1", c.Len())
	}
}

// TestCacheOwnWriteDropsEveryCapability: the written name is dropped
// from the node of every capability for the directory, not only the
// one the write went through, and nothing else of theirs is.
func TestCacheOwnWriteDropsEveryCapability(t *testing.T) {
	var ctr Counters
	ctr.Invalidated = &obs.Counter{}
	c := New(0, ctr, stoppedAt{})
	owner, restricted, other := testDir(7), restrictedDir(7), testDir(8)
	for _, d := range []cap.Capability{owner, restricted, other} {
		c.Put(d, "x", testEntry(2), 4, 1_000_000)
	}
	c.Put(restricted, "y", testEntry(3), 4, 1_000_000)
	c.Observe(owner.Server, owner.Object, "x", 5)
	for _, d := range []cap.Capability{owner, restricted} {
		if _, ok := c.Get(d, "x", 0); ok {
			t.Fatalf("x still served through %v after my write", d)
		}
	}
	if _, ok := c.Get(restricted, "y", 0); !ok {
		t.Fatal("my write of x dropped y")
	}
	if _, ok := c.Get(other, "x", 0); !ok {
		t.Fatal("my write of x in one directory dropped x in another")
	}
	if got := ctr.Invalidated.Value(); got != 2 {
		t.Fatalf("invalidated = %d, want the 2 bindings dropped", got)
	}
}

// TestCacheStaleObserveKeepsNewer: an own write drops only bindings
// older than its generation, so a write's reply that arrives after a
// lookup already cached a later generation keeps that binding.
func TestCacheStaleObserveKeepsNewer(t *testing.T) {
	c := New(0, Counters{}, stoppedAt{})
	dir := testDir(7)
	c.Put(dir, "x", testEntry(2), 4, 1_000_000)
	c.Observe(dir.Server, dir.Object, "x", 5)
	if _, ok := c.Get(dir, "x", 0); ok {
		t.Fatal("served x at generation 4 after my write at 5")
	}
	c.Put(dir, "x", testEntry(3), 7, 1_000_000) // someone else wrote at 7
	c.Observe(dir.Server, dir.Object, "x", 6)   // my second write's late reply
	if got, ok := c.Get(dir, "x", 0); !ok || got != testEntry(3) {
		t.Fatal("an Observe at generation 6 dropped the binding at 7")
	}
}

// TestCachePutBelowFloorRefused: a lookup reply that left the server
// before the client's own write — for the written name or any other —
// is never cached after that write's Observe.
func TestCachePutBelowFloorRefused(t *testing.T) {
	c := New(0, Counters{}, stoppedAt{})
	dir := testDir(7)
	c.Observe(dir.Server, dir.Object, "x", 5)
	c.Put(dir, "x", testEntry(2), 4, 1_000_000) // the reply in flight across the write
	if _, ok := c.Get(dir, "x", 0); ok {
		t.Fatal("a reply older than my write cached the binding it replaced")
	}
	c.Put(restrictedDir(7), "x", testEntry(2), 4, 1_000_000)
	if _, ok := c.Get(restrictedDir(7), "x", 0); ok {
		t.Fatal("the floor did not cover another capability for the directory")
	}
	if c.Len() != 0 {
		t.Fatalf("Len = %d, want refused Puts to cache nothing", c.Len())
	}
	c.Put(dir, "x", testEntry(3), 5, 1_000_000)
	if got, ok := c.Get(dir, "x", 0); !ok || got != testEntry(3) {
		t.Fatal("a binding at the floor must be cached")
	}
}

// TestCacheSoakOwnWritesPerName runs one goroutine flipping name x in
// directory d — each flip an acknowledged own write at the next
// generation, whose value is that generation — beside a putter
// replaying lookup replies that were in flight across the flips, and
// walkers resolving root/d/y/z and reading d/x. Every read of x must
// reflect the last acknowledged write or a later one, and every walk
// through y must be served whole. Run under -race.
func TestCacheSoakOwnWritesPerName(t *testing.T) {
	flips := 5000
	if testing.Short() {
		flips = 1000
	}
	c := New(0, Counters{}, stoppedAt{})
	root, d, y, z := testDir(1), testDir(2), testDir(3), testDir(4)
	c.Put(root, "d", d, 1, 1<<62)
	c.Put(d, "y", y, 1, 1<<62)
	c.Put(y, "z", z, 1, 1<<62)
	value := func(g uint64) cap.Capability { return testEntry(uint32(g)) }
	var (
		acked               atomic.Uint64 // generation of the last acknowledged flip
		done                atomic.Bool
		stale, walkMiss, rd atomic.Int64
		wg                  sync.WaitGroup
	)
	acked.Store(1)
	c.Put(d, "x", value(1), 1, 1<<62)
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !done.Load() {
				if got, _, n := c.ResolvePath(root, "d/y/z", 0); n != 3 || got != z {
					walkMiss.Add(1)
				}
				floor := acked.Load()
				if got, ok := c.Get(d, "x", 0); ok {
					rd.Add(1)
					if uint64(got.Object) < floor {
						stale.Add(1)
					}
				}
			}
		}()
	}
	wg.Add(1)
	go func() { // replies that left the server before a flip
		defer wg.Done()
		rng := rand.New(rand.NewPCG(7, 7))
		for !done.Load() {
			g := acked.Load()
			if back := uint64(rng.IntN(3)); back < g {
				g -= back
			}
			c.Put(d, "x", value(g), g, 1<<62)
		}
	}()
	for g := uint64(2); g < uint64(flips)+2; g++ {
		c.Observe(d.Server, d.Object, "x", g)
		acked.Store(g)
		if g%2 == 0 { // half the flips are read back at once
			c.Put(d, "x", value(g), g, 1<<62)
		}
	}
	done.Store(true)
	wg.Wait()
	if n := stale.Load(); n > 0 {
		t.Fatalf("%d reads of x (of %d) were older than the last acknowledged own write", n, rd.Load())
	}
	if n := walkMiss.Load(); n > 0 {
		t.Fatalf("%d walks through y missed while only x was written", n)
	}
}

func TestCacheDropForgetsDirectory(t *testing.T) {
	c := New(0, Counters{}, stoppedAt{})
	dir, other := testDir(1), testDir(2)
	c.Put(dir, "a", testEntry(3), 1, 1_000_000)
	c.Put(dir, "b", testEntry(4), 1, 1_000_000)
	c.Put(other, "a", testEntry(5), 1, 1_000_000)
	c.Observe(dir.Server, dir.Object, "a", 9)
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

func TestCacheBounded(t *testing.T) {
	c := New(8, Counters{}, stoppedAt{})
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
	c := New(0, ctr, stoppedAt{})
	dir := testDir(1)
	c.Get(dir, "a", 0)                        // miss
	c.Put(dir, "a", testEntry(2), 3, 100)     //
	c.Get(dir, "a", 50)                       // hit
	c.Get(dir, "a", 100)                      // expired
	c.Observe(dir.Server, dir.Object, "a", 4) // invalidated: my write dropped it
	c.Get(dir, "a", 50)                       // miss
	for name, want := range map[string]struct {
		c    *obs.Counter
		want uint64
	}{
		"hits":        {ctr.Hits, 1},
		"misses":      {ctr.Misses, 2},
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
	c := New(0, Counters{}, stoppedAt{})
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
	c := New(2, Counters{}, stoppedAt{ns: 500}) // the eviction clock
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
	c := New(0, Counters{}, stoppedAt{})
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
	c = New(0, Counters{}, stoppedAt{})
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
	c := New(64, Counters{}, stoppedAt{})
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
				c.Observe(x.Server, x.Object, "leaf", 1)
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
	c := New(0, Counters{}, stoppedAt{})
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
			c := New(0, Counters{}, stoppedAt{})
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
			c := New(max, Counters{}, stoppedAt{})
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
	c := New(0, Counters{}, stoppedAt{})
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
