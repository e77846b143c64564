// Package lease implements the client half of lease-based lookup
// caching: a bounded cache of (directory capability, name) → entry
// capability bindings, each valid until a server-granted lease expires
// (the classic lease construction — bounded-staleness reads without
// per-read coordination, the same primitive the replication groups use
// for leadership).
//
// Correctness rests on three legs:
//
//   - Lease expiry bounds staleness for everyone else's writes: a hit
//     is served only while the server-granted duration (stamped from
//     the client's clock at request-send time, so the client's window
//     is strictly inside the server's) has not elapsed.
//   - Directory generations make the client's OWN writes invalidate
//     precisely: every dirsvr mutation bumps the directory's
//     generation and the mutator's reply carries it. Observe drops
//     the written name's bindings older than that generation, through
//     every capability for the directory, and raises the directory's
//     floor, below which Put admits no binding — so a reply that was
//     in flight across the write cannot bring the old binding back. A
//     client never sees its own write undone, and its bindings for the
//     directory's other names survive it: each name is its own
//     register.
//   - Revocation fails closed architecturally: a cached capability is
//     only a name for an object — using it still runs the server-side
//     secret check, so a revoked capability is refused no matter how
//     fresh its lease.
//
// Keys are full capabilities (port, object, rights, check), so two
// differently-restricted capabilities for the same directory never
// share entries — a cache hit can never launder rights.
//
// The index is shaped like the walks it serves. dirs maps a directory
// capability, exactly as presented, to a node; a node maps component
// names to entries and points at the directory's floor cell, which is
// shared by every capability of that (server, object) and lists their
// nodes, so a write or a Drop reaches all of them without scanning
// dirs. Each entry carries a link to the node cached under exactly its
// own capability, so a walk hashes one capability (the root) and then
// hops pointers, probing one string per component. Two invariants keep
// the links honest:
//
//   - A link is set only from dirs[e.c], the full capability the
//     server returned — never from the object number — so a
//     restricted capability reaches its own node or misses, never the
//     owner's bindings.
//   - A node that leaves dirs (Drop, Poison, or eviction or Observe
//     emptying it) is retired: its names map is cleared under the
//     write lock, so every walk through a stale link misses there, and
//     the walk re-probes dirs so a later Put for the same capability
//     is linked afresh.
package lease

import (
	"math"
	"strings"
	"sync"
	"sync/atomic"

	"amoeba/internal/cap"
	"amoeba/internal/clock"
	"amoeba/internal/obs"
)

// node holds the bindings cached under one directory capability.
// names is nil once the node is retired (no longer in dirs); a live
// node is never empty.
type node struct {
	dir   cap.Capability // its key in dirs
	names map[string]*entry
	floor *floorCell // the directory's, shared
}

type entry struct {
	c      cap.Capability
	gen    uint64
	expiry int64 // a clock.Mono reading; valid strictly before it
	// next caches dirs[c]: a walk sets it under the read lock, hence
	// atomic. nil or retired means "probe dirs again".
	next atomic.Pointer[node]
}

// dirID names a directory server-side — the floor table is keyed by
// it, not by full capability, because a mutation through ONE
// capability stales bindings cached through ALL of them.
type dirID struct {
	server cap.Port
	object uint32
}

// floorCell is one directory's write floor and its live nodes, one per
// capability cached. Only writers, under the cache's write lock, touch
// it: the hit path never reads the floor, because Put enforces it.
type floorCell struct {
	gen   uint64 // the newest generation this client's writes produced
	nodes []*node
}

// Counters is the cache's observability surface. Nil fields are
// replaced with throwaway counters so call sites never nil-check.
type Counters struct {
	Hits        *obs.Counter // served locally, zero RPCs
	Misses      *obs.Counter // no binding cached
	Expired     *obs.Counter // binding present but lease lapsed
	Invalidated *obs.Counter // binding dropped by the client's own write
}

func (c *Counters) fill() {
	if c.Hits == nil {
		c.Hits = &obs.Counter{}
	}
	if c.Misses == nil {
		c.Misses = &obs.Counter{}
	}
	if c.Expired == nil {
		c.Expired = &obs.Counter{}
	}
	if c.Invalidated == nil {
		c.Invalidated = &obs.Counter{}
	}
}

// Cache is a bounded lookup cache. All methods are safe for concurrent
// use; the hit path takes a read lock and allocates nothing.
type Cache struct {
	clk clock.Clock // the client machine's

	mu     sync.RWMutex
	dirs   map[cap.Capability]*node
	floors map[dirID]*floorCell
	n      int // bindings across all nodes
	max    int
	ctr    Counters
}

// DefaultMax bounds the cache when New is given max <= 0.
const DefaultMax = 4096

// evictSample is how many bindings eviction looks at to find a victim.
const evictSample = 8

// New builds a cache holding at most max bindings, whose leases run on
// clk, the client machine's clock.
func New(max int, ctr Counters, clk clock.Clock) *Cache {
	if max <= 0 {
		max = DefaultMax
	}
	ctr.fill()
	return &Cache{
		clk:    clk,
		dirs:   make(map[cap.Capability]*node),
		floors: make(map[dirID]*floorCell),
		max:    max,
		ctr:    ctr,
	}
}

// stopper picks the counter for a binding that cannot be served at
// instant now, or nil if it can. A binding is usable iff it exists and
// its lease has not expired: one the client's own write superseded is
// already gone (Observe), and Put admits none below the floor.
func (ca *Cache) stopper(e *entry, now int64) *obs.Counter {
	switch {
	case e == nil:
		return ca.ctr.Misses
	case now >= e.expiry:
		return ca.ctr.Expired
	}
	return nil
}

// Get returns the cached binding for name in dir if it is still
// usable at instant now (pass one clock read through a whole path
// walk).
func (ca *Cache) Get(dir cap.Capability, name string, now int64) (cap.Capability, bool) {
	ca.mu.RLock()
	n := ca.dirs[dir]
	var e *entry
	if n != nil {
		e = n.names[name]
	}
	if stop := ca.stopper(e, now); stop != nil {
		ca.mu.RUnlock()
		stop.Inc()
		return cap.Capability{}, false
	}
	c := e.c // Put rewrites entries in place: copy under the lock
	ca.mu.RUnlock()
	ca.ctr.Hits.Inc()
	return c, true
}

// ResolvePath walks as many leading components of path as cached
// bindings allow, under a single lock acquisition — the hot fully-
// cached walk costs one RLock cycle, one capability hash (the root)
// and one name probe per component, with no allocations. It returns
// the capability reached, the unresolved remainder of path (""), and
// the number of components served. Component splitting matches the
// dirsvr walk: empty components (leading, trailing, doubled slashes)
// are skipped.
func (ca *Cache) ResolvePath(dir cap.Capability, path string, now int64) (cap.Capability, string, int) {
	served := 0
	path = trimSlashes(path)
	ca.mu.RLock()
	n := ca.dirs[dir]
	for path != "" {
		name, after := path, ""
		if i := strings.IndexByte(path, '/'); i >= 0 {
			name, after = path[:i], trimSlashes(path[i+1:])
		}
		var e *entry
		if n != nil {
			e = n.names[name]
		}
		if stop := ca.stopper(e, now); stop != nil {
			ca.mu.RUnlock()
			stop.Inc()
			if served > 0 {
				ca.ctr.Hits.Add(uint64(served))
			}
			return dir, path, served
		}
		dir, path = e.c, after
		served++
		if path != "" { // the leaf's link is never needed
			n = ca.followLocked(e)
		}
	}
	ca.mu.RUnlock()
	if served > 0 {
		ca.ctr.Hits.Add(uint64(served))
	}
	return dir, "", served
}

// followLocked returns the node cached under exactly e.c, or nil,
// refreshing e's link when it is missing or retired. Callers hold at
// least the read lock.
func (ca *Cache) followLocked(e *entry) *node {
	if n := e.next.Load(); n != nil && n.names != nil {
		return n
	}
	n := ca.dirs[e.c]
	if n != nil {
		e.next.Store(n)
	}
	return n
}

// trimSlashes strips leading slashes.
func trimSlashes(path string) string {
	for len(path) > 0 && path[0] == '/' {
		path = path[1:]
	}
	return path
}

// Put caches a binding the server just granted a lease on: name in dir
// resolves to c, observed at directory generation gen, valid until
// expiry (a Now reading — take it BEFORE the request is sent, so the
// cached window is conservative). A binding older than the
// directory's floor is refused: its reply was in flight across one of
// this client's own writes, and the binding may be the one that write
// replaced.
func (ca *Cache) Put(dir cap.Capability, name string, c cap.Capability, gen uint64, expiry int64) {
	ca.mu.Lock()
	defer ca.mu.Unlock()
	if f := ca.floors[dirID{server: dir.Server, object: dir.Object}]; f != nil && gen < f.gen {
		return
	}
	n := ca.dirs[dir]
	if n != nil {
		if e := n.names[name]; e != nil {
			if e.c != c {
				e.next.Store(nil) // the link must name dirs[e.c]
			}
			e.c, e.gen, e.expiry = c, gen, expiry
			return
		}
	}
	if ca.n >= ca.max {
		ca.evictOneLocked()
		n = ca.dirs[dir] // eviction may have retired it
	}
	if n == nil {
		n = &node{dir: dir, names: make(map[string]*entry), floor: ca.floorLocked(dir.Server, dir.Object)}
		n.floor.nodes = append(n.floor.nodes, n)
		ca.dirs[dir] = n
	}
	n.names[name] = &entry{c: c, gen: gen, expiry: expiry}
	ca.n++
}

// floorLocked returns the directory's floor cell, creating it at zero.
func (ca *Cache) floorLocked(server cap.Port, object uint32) *floorCell {
	id := dirID{server: server, object: object}
	f := ca.floors[id]
	if f == nil {
		f = &floorCell{}
		ca.floors[id] = f
	}
	return f
}

// Now reads the client machine's clock: a clock.Mono reading, so a
// step of the wall clock neither stretches nor shortens a lease.
func (ca *Cache) Now() int64 { return clock.Mono(ca.clk) }

// retireLocked takes a node out of dirs and its floor cell and empties
// it, so a walk holding a stale link to it misses there.
func (ca *Cache) retireLocked(n *node) {
	ca.n -= len(n.names)
	n.names = nil
	delete(ca.dirs, n.dir)
	f := n.floor
	for i, m := range f.nodes {
		if m == n {
			last := len(f.nodes) - 1
			f.nodes[i], f.nodes[last] = f.nodes[last], nil
			f.nodes = f.nodes[:last]
			break
		}
	}
}

// dropLocked forgets one binding, retiring its node if that empties it.
func (ca *Cache) dropLocked(n *node, name string) {
	delete(n.names, name)
	ca.n--
	if len(n.names) == 0 {
		ca.retireLocked(n)
	}
}

// evictOneLocked drops one binding out of a bounded sample: the first
// lapsed one (it costs nothing to lose), else the last one sampled.
// Go's random map iteration order makes this a
// cheap random-replacement policy — fine for a cache whose entries
// expire on their own anyway — and the sample bound keeps a Put at
// capacity from scanning the whole cache under the write lock.
func (ca *Cache) evictOneLocked() {
	now := ca.Now()
	var (
		vNode *node
		vName string
	)
	seen := 0
sample:
	for _, n := range ca.dirs {
		for name, e := range n.names {
			vNode, vName = n, name
			seen++
			if now >= e.expiry || seen == evictSample {
				break sample
			}
		}
	}
	if vNode != nil {
		ca.dropLocked(vNode, vName)
	}
}

// Observe records the client's own write of name in a directory: the
// reply carried gen, the directory's generation after the write. Every
// binding for name older than gen — through every capability for the
// directory — stops being served at once, with no lease wait, and the
// directory's floor rises to gen, so no reply that left the server
// before the write can cache the old binding again. Bindings for the
// directory's other names are untouched.
func (ca *Cache) Observe(server cap.Port, object uint32, name string, gen uint64) {
	dropped := 0
	ca.mu.Lock()
	f := ca.floorLocked(server, object)
	if gen > f.gen {
		f.gen = gen
	}
	// Downwards: dropping may retire nodes[i], which moves an already
	// visited node into its slot.
	for i := len(f.nodes) - 1; i >= 0; i-- {
		n := f.nodes[i]
		if e := n.names[name]; e != nil && e.gen < gen {
			ca.dropLocked(n, name)
			dropped++
		}
	}
	ca.mu.Unlock()
	ca.ctr.Invalidated.Add(uint64(dropped))
}

// Drop forgets every binding under a directory — through every
// capability for it — and clears its floor: for DestroyDir, after
// which the object number may be reused by a fresh directory whose
// generations restart at zero.
func (ca *Cache) Drop(server cap.Port, object uint32) {
	id := dirID{server: server, object: object}
	ca.mu.Lock()
	if f := ca.floors[id]; f != nil {
		ca.retireAllLocked(f)
		delete(ca.floors, id)
	}
	ca.mu.Unlock()
}

// retireAllLocked retires every node of a directory.
func (ca *Cache) retireAllLocked(f *floorCell) {
	for len(f.nodes) > 0 {
		ca.retireLocked(f.nodes[len(f.nodes)-1])
	}
}

// Flush empties the cache (floors included). For tests and for
// clients that learn out-of-band that their world changed. The old
// nodes need no retiring: every link into them starts from an entry
// that only they hold.
func (ca *Cache) Flush() {
	ca.mu.Lock()
	ca.dirs = make(map[cap.Capability]*node)
	ca.floors = make(map[dirID]*floorCell)
	ca.n = 0
	ca.mu.Unlock()
}

// Len reports the number of cached bindings (expired ones included
// until evicted or overwritten).
func (ca *Cache) Len() int {
	ca.mu.RLock()
	defer ca.mu.RUnlock()
	return ca.n
}

// Poison fails a directory closed: it drops every binding under it
// and raises its floor to the maximum, so no lease granted later is
// cached until Drop clears the floor. Used when a destroy reply is
// lost.
func (ca *Cache) Poison(server cap.Port, object uint32) {
	ca.mu.Lock()
	f := ca.floorLocked(server, object)
	f.gen = math.MaxUint64
	ca.retireAllLocked(f)
	ca.mu.Unlock()
}
