// Package locate resolves Amoeba ports to machines: the paper's
// "cache of (port, machine-number) pairs. If a port is not in the
// cache, it can be found by broadcasting a LOCATE message" (§2.2).
//
// The cache learns from successful lookups and is invalidated by the
// RPC layer when a cached machine stops answering (a server may have
// migrated or crashed; the next request re-broadcasts).
package locate

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"amoeba/internal/amnet"
	"amoeba/internal/cap"
	"amoeba/internal/fbox"
	"amoeba/internal/shard"
)

// ErrNotFound is returned when no machine answers a LOCATE within the
// configured attempts.
var ErrNotFound = errors.New("locate: port not located")

// Config tunes the resolver. The zero value gets sensible defaults.
type Config struct {
	// Timeout bounds each broadcast round (default 250ms).
	Timeout time.Duration
	// Attempts is the number of broadcast rounds (default 3).
	Attempts int
	// TTL bounds how long a cache entry is trusted without
	// reconfirmation (default 1 minute; 0 keeps entries forever).
	TTL time.Duration
	// Atlas, when set, lets the resolver route (port, object) pairs on
	// sharded ports: the object's home shard comes from the port's
	// shard map, cached here with the same TTL so stale maps self-heal
	// through StatusWrongShard instead of broadcasts.
	Atlas *shard.Atlas
}

func (c Config) withDefaults() Config {
	if c.Timeout <= 0 {
		c.Timeout = 250 * time.Millisecond
	}
	if c.Attempts <= 0 {
		c.Attempts = 3
	}
	if c.TTL == 0 {
		c.TTL = time.Minute
	}
	return c
}

type entry struct {
	at      amnet.MachineID
	learned time.Time
}

// flight is one in-progress broadcast lookup; concurrent Lookups for
// the same port wait on it instead of broadcasting themselves.
type flight struct {
	done chan struct{}
	at   amnet.MachineID
	err  error
}

// Resolver locates ports through an F-box and caches the results.
// It is safe for concurrent use.
type Resolver struct {
	fb  *fbox.FBox // routes are learned and aged on its machine's clock
	cfg Config

	mu      sync.Mutex
	cache   map[cap.Port]entry
	flights map[cap.Port]*flight
	maps    map[cap.Port]mapEntry // cached shard map per sharded port
	shards  map[portShard]entry   // cached route per (port, shard)
	rr      uint64                // round-robin cursor for objectless requests
	stats   Stats
}

// portShard keys the per-shard route cache: each shard of a port has
// its own entry, so evicting one shard's dead route cannot clobber its
// siblings' live ones.
type portShard struct {
	p   cap.Port
	idx int
}

// mapEntry is a cached shard map plus when it was learned.
type mapEntry struct {
	m       *shard.Map
	learned time.Time
}

// Stats counts resolver activity for experiment E12.
type Stats struct {
	Hits       uint64 // answered from cache
	Misses     uint64 // required broadcasting
	Coalesced  uint64 // waited on another lookup's broadcast (single-flight)
	Broadcasts uint64 // LOCATE rounds sent
	Failures   uint64 // lookups that exhausted all attempts
}

// New builds a resolver over fb.
func New(fb *fbox.FBox, cfg Config) *Resolver {
	return &Resolver{
		fb:      fb,
		cfg:     cfg.withDefaults(),
		cache:   make(map[cap.Port]entry),
		flights: make(map[cap.Port]*flight),
		maps:    make(map[cap.Port]mapEntry),
		shards:  make(map[portShard]entry),
	}
}

// Lookup returns the machine serving put-port p, consulting the cache
// first and broadcasting LOCATE rounds on a miss. The broadcast is
// single-flight per port: when N clients fail over to a restarted
// server at once, one LOCATE round goes on the wire and the other N-1
// lookups ride its answer. Cancelling the context aborts the broadcast
// (or the wait on another's broadcast) and returns ctx.Err().
func (r *Resolver) Lookup(ctx context.Context, p cap.Port) (amnet.MachineID, error) {
	for {
		r.mu.Lock()
		if e, ok := r.cache[p]; ok && (r.cfg.TTL < 0 || r.fb.Clock().Now().Sub(e.learned) < r.cfg.TTL) {
			r.stats.Hits++
			r.mu.Unlock()
			return e.at, nil
		}
		if f := r.flights[p]; f != nil {
			r.stats.Coalesced++
			r.mu.Unlock()
			select {
			case <-f.done:
			case <-ctx.Done():
				return 0, ctx.Err()
			}
			if f.err == nil {
				return f.at, nil
			}
			if errors.Is(f.err, context.Canceled) || errors.Is(f.err, context.DeadlineExceeded) {
				continue // the leader gave up for its own reasons; retry
			}
			return 0, f.err
		}
		r.stats.Misses++
		f := &flight{done: make(chan struct{})}
		r.flights[p] = f
		r.mu.Unlock()

		f.at, f.err = r.broadcastRounds(ctx, p)
		r.mu.Lock()
		delete(r.flights, p)
		if f.err == nil {
			r.cache[p] = entry{at: f.at, learned: r.fb.Clock().Now()}
		} else if errors.Is(f.err, ErrNotFound) {
			r.stats.Failures++
		}
		r.mu.Unlock()
		close(f.done)
		return f.at, f.err
	}
}

// LookupObject resolves (port, object) → machine. On a sharded port
// (one with a map in the atlas) the object's home shard is computed
// from the cached map and the per-shard route returned — no broadcast:
// every shard advertises the same put-port, so a LOCATE answer would
// be ambiguous; the atlas plays the directory a wire deployment would
// query. Requests that carry no capability (hasObj false — object
// creation) are spread round-robin: every shard mints numbers its own
// ownership filter accepts, so the returned capability routes
// correctly no matter which shard minted it. Unsharded ports fall
// through to the plain broadcast Lookup.
func (r *Resolver) LookupObject(ctx context.Context, p cap.Port, obj uint32, hasObj bool) (amnet.MachineID, error) {
	if r.cfg.Atlas == nil {
		return r.Lookup(ctx, p)
	}
	now := r.fb.Clock().Now()
	r.mu.Lock()
	e, ok := r.maps[p]
	m := e.m
	if !ok || (r.cfg.TTL >= 0 && now.Sub(e.learned) >= r.cfg.TTL) {
		m = r.cfg.Atlas.Lookup(p)
		if m != nil {
			r.maps[p] = mapEntry{m: m, learned: now}
		} else if ok {
			delete(r.maps, p)
		}
	}
	if m == nil {
		r.mu.Unlock()
		return r.Lookup(ctx, p)
	}
	var idx int
	if hasObj {
		idx = m.Home(obj)
	} else {
		idx = int(r.rr % uint64(m.N))
		r.rr++
	}
	key := portShard{p: p, idx: idx}
	if se, ok := r.shards[key]; ok && (r.cfg.TTL < 0 || now.Sub(se.learned) < r.cfg.TTL) {
		r.stats.Hits++
		r.mu.Unlock()
		return se.at, nil
	}
	r.stats.Misses++
	at := m.Machines[idx]
	r.shards[key] = entry{at: at, learned: now}
	r.mu.Unlock()
	return at, nil
}

// Refresh drops p's cached shard map when it is no newer than gen —
// the client calls it with the generation a StatusWrongShard reply
// carried, so the retry recomputes the object's home from the current
// map. Cached per-shard routes survive: the object→shard assignment
// was stale, not the shard addresses.
func (r *Resolver) Refresh(p cap.Port, gen uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.maps[p]; ok && (gen == 0 || e.m.Gen <= gen) {
		delete(r.maps, p)
	}
}

// MapGen returns the generation of p's cached shard map (0 when none
// is cached).
func (r *Resolver) MapGen(p cap.Port) uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.maps[p]; ok {
		return e.m.Gen
	}
	return 0
}

// broadcastRounds runs the configured number of LOCATE rounds.
func (r *Resolver) broadcastRounds(ctx context.Context, p cap.Port) (amnet.MachineID, error) {
	for attempt := 0; attempt < r.cfg.Attempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		r.mu.Lock()
		r.stats.Broadcasts++
		r.mu.Unlock()
		at, err := r.broadcastOnce(ctx, p)
		if err == nil {
			return at, nil
		}
		if !errors.Is(err, ErrNotFound) {
			return 0, err
		}
	}
	return 0, fmt.Errorf("%w: %v after %d attempts", ErrNotFound, p, r.cfg.Attempts)
}

func (r *Resolver) broadcastOnce(ctx context.Context, p cap.Port) (amnet.MachineID, error) {
	replies, cancel, err := r.fb.Locate(p)
	if err != nil {
		return 0, fmt.Errorf("locate: %w", err)
	}
	defer cancel()
	timer := r.fb.Clock().NewTimer(r.cfg.Timeout)
	defer timer.Stop()
	select {
	case at := <-replies:
		return at, nil
	case <-ctx.Done():
		return 0, ctx.Err()
	case <-timer.C():
		return 0, ErrNotFound
	}
}

// Invalidate drops every cached route and map for p (the RPC layer
// calls this when a transaction to the cached machine times out).
func (r *Resolver) Invalidate(p cap.Port) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.cache, p)
	delete(r.maps, p)
	for k := range r.shards {
		if k.p == p {
			delete(r.shards, k)
		}
	}
}

// Evict drops p's cached routes that still name machine at — and ONLY
// those. Two properties matter:
//
// Failover-safe: a transaction that timed out against a dead machine
// must not clobber an entry a concurrent lookup already refreshed to
// the server's NEW home — during a promotion storm that race would
// send the whole client herd back to broadcast.
//
// Shard-aware: on a sharded port only the failing machine's shard
// routes go; the sibling shards' cached routes survive, so one sick
// shard cannot force the whole port back through the directory.
// (Before this fix Evict assumed one machine per port and a failing
// call to shard 2 clobbered shards 0/1 as collateral.)
func (r *Resolver) Evict(p cap.Port, at amnet.MachineID) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.cache[p]; ok && e.at == at {
		delete(r.cache, p)
	}
	for k, e := range r.shards {
		if k.p == p && e.at == at {
			delete(r.shards, k)
		}
	}
	// If the failed machine appears in the cached map, the map's
	// address for that shard is stale too (mid-failover): drop the map
	// so the next lookup rereads the atlas, which the cluster updates
	// when a shard changes primary.
	if me, ok := r.maps[p]; ok {
		for _, mach := range me.m.Machines {
			if mach == at {
				delete(r.maps, p)
				break
			}
		}
	}
}

// Insert seeds the cache (used by static cluster configurations that
// know their topology, avoiding the initial broadcast).
func (r *Resolver) Insert(p cap.Port, at amnet.MachineID) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.cache[p] = entry{at: at, learned: r.fb.Clock().Now()}
}

// Stats returns a snapshot of the counters.
func (r *Resolver) Stats() Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stats
}

// CacheLen returns the number of cached ports.
func (r *Resolver) CacheLen() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.cache)
}
