package repl

import (
	"cmp"
	"context"
	"errors"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"amoeba/internal/cap"
	"amoeba/internal/clock"
	"amoeba/internal/rpc"
	"amoeba/internal/svc"
	"amoeba/internal/wal"
)

// ErrBackupLost is recorded when a standby stops acknowledging for
// Options.Attempts consecutive tries: the shipper stops shipping to
// that peer (a batch that thereby misses its majority seals the group)
// — but unlike a write-off, a slow re-probe keeps ticking, and when the
// peer answers again it is re-based through the snapshot path and
// rejoins the stream with no operator involved.
var ErrBackupLost = errors.New("repl: backup lost (stopped acknowledging)")

// DefaultLeaseTerm is the serving-lease duration when Options (or
// ClusterConfig) leaves LeaseTerm zero.
const DefaultLeaseTerm = 150 * time.Millisecond

// Options tunes a shipper. The zero value gets sensible defaults.
type Options struct {
	// Timeout bounds one ship RPC attempt (default 1s).
	Timeout time.Duration
	// Attempts is how many consecutive failures the shipper tolerates
	// before declaring a backup lost (default 8). Each attempt sends its
	// frame up to twice, so one lost frame never burns an attempt.
	Attempts int
	// Backoff is the pause between failed attempts (default 5ms).
	Backoff time.Duration
	// Reprobe is the interval at which LOST peers are probed for signs
	// of life (default 16×Backoff). A transient partition or a long GC
	// pause on a standby used to write it off permanently; now contact
	// triggers a re-base (Shipper.join).
	Reprobe time.Duration
	// LeaseTerm is the serving-lease duration (default
	// DefaultLeaseTerm): the shipper sends bare heartbeat frames at
	// LeaseTerm/3 when the stream is idle, counts each peer's
	// acknowledgement (of anything) as a lease grant, and Fence refuses
	// acknowledgements once a majority of the configured group has been
	// silent for a full term.
	LeaseTerm time.Duration
	// GroupSize is the configured replica count N (primary plus all
	// standbys, including currently-dead ones) that majorities are
	// computed against; 0 defaults to 1+len(peers) at attach.
	GroupSize int
	// Term is the replication epoch stamped on every frame this
	// shipper sends. A receiver that has adopted a higher term rejects
	// the frame with rpc.StatusStale and the shipper goes deposed.
	Term uint64
}

// orDefault returns v, or def when v was left unset (zero or negative).
func orDefault[T int | time.Duration](v, def T) T {
	if v <= 0 {
		return def
	}
	return v
}

func (o Options) withDefaults() Options {
	o.Timeout = orDefault(o.Timeout, time.Second)
	o.Attempts = orDefault(o.Attempts, 8)
	o.Backoff = orDefault(o.Backoff, 5*time.Millisecond)
	o.Reprobe = orDefault(o.Reprobe, 16*o.Backoff)
	o.LeaseTerm = orDefault(o.LeaseTerm, DefaultLeaseTerm)
	return o
}

// ShipperStats counts replication traffic on the primary.
type ShipperStats struct {
	Batches    uint64 // commit batches offered by the log's sink
	Frames     uint64 // ship frames sent (incl. re-bases, heartbeats, retries)
	Records    uint64 // records shipped (first transmission)
	Retries    uint64 // failed attempts that were retried
	Dropped    uint64 // records NOT shipped to some peer (stopped or lost)
	Acked      uint64 // highest sequence any peer durably acked in this term
	Heartbeats uint64 // bare lease-renewal frames sent
	Rebases    uint64 // bases shipped: peers joined, rejoined or re-based after loss
	Lost       bool   // every peer is currently lost
	Sealed     bool   // a batch missed majority; acknowledgements fenced
	Deposed    bool   // a newer term was observed; this primary is done
	Demoted    bool   // local WAL wedged; this primary renounced leadership
}

// peer is one standby's shipping state. No goroutine belongs to it:
// its frames go out from whichever goroutine ships them — the
// committer's for a batch, the joiner's for a base, the heartbeat
// loop's for a beat (see Shipper.ship).
type peer struct {
	dest cap.Port

	busy    atomic.Int32 // batch and base rounds with a frame to this peer in flight
	fails   atomic.Int32 // consecutive failed attempts
	dropped atomic.Bool  // DropPeer removed it: a join with its base in flight leaves it out

	lost  atomic.Bool
	acked atomic.Uint64 // this peer's durable high water, in the shipper's term
	grant atomic.Int64  // clock.Mono SEND time of the newest acked frame, or noGrant
}

// noGrant is a peer's grant before any frame to it is acked: below
// every clock.Mono reading a clock set after 1970 can give.
const noGrant = math.MinInt64

func newPeer(dest cap.Port) *peer {
	p := &peer{dest: dest}
	p.grant.Store(noGrant)
	return p
}

// shipCounters is ShipperStats' live form: bumped lock-free from the
// rounds and the loops.
type shipCounters struct {
	batches, frames, records, retries, dropped atomic.Uint64
	acked, heartbeats, rebases                 atomic.Uint64
}

// Shipper is the primary half of the replication channel, feeding N
// standbys from one commit sink. AttachGroup wires it into a durable
// kernel's commit path through join, the one way a standby ever gets
// onto the stream: the kernel quiesces, every joining peer takes a base
// snapshot at this shipper's term, and the shipper becomes the log's
// commit sink. From then on every group commit's records are shipped to
// all live peers from the goroutine that commits them — every peer's
// frame goes out before any ack is awaited — and the commit's tickets
// (and therefore the clients' replies) wait for every live standby's
// durable acknowledgement, so a double failure still loses nothing
// that was acknowledged.
//
// Leadership is leased: every acknowledged frame doubles as a lease
// grant timestamped at its SEND time, bare heartbeats renew grants when
// the stream is idle, and
// Fence — installed as the kernel's replica fence and admission gate —
// refuses acknowledgements when a majority of the configured group has
// been silent for a full term (the lease lapsed), when a committed
// batch failed to reach a majority (sealed), or when a peer reported a
// newer term (deposed). That is the split-brain guard: an isolated old
// primary stops acknowledging strictly before the standbys' failure
// detectors (lease term + skew) can elect a successor.
//
// Failure policy per peer: transport failures are retried
// Options.Attempts times and then the peer is marked lost; a peer that
// answers from off the stream — a sequence-gap refusal, or an
// acknowledgement whose Pos is not in this shipper's term — is marked
// lost at once. A lost peer is shipped around, slow-reprobed, and
// re-joined when it answers again.
type Shipper struct {
	k *svc.Kernel
	c *rpc.Client
	o Options

	ctx    context.Context
	cancel context.CancelFunc
	opts   []rpc.CallOption // the reprobe's timeout/retries, built once
	beat   [][]byte         // the bare heartbeat frame at this term

	sealed  atomic.Bool
	deposed atomic.Bool
	demoted atomic.Bool
	stopped atomic.Bool // set (under mu) before ctx is cancelled

	// peers is a copy-on-write snapshot: the sink, Fence (twice per
	// operation) and the loops read it with one atomic load; join and
	// DropPeer publish a fresh slice under mu, which also orders a
	// join's publication against Stop.
	peers atomic.Pointer[[]*peer]
	mu    sync.Mutex

	n shipCounters

	loops []chan struct{} // one per heartbeat/reprobe loop, closed as it exits
}

// AttachGroup starts replicating kernel k to the receivers at dests,
// shipping through client c (a client on the primary's machine):
// all-live-peer synchronous shipping, lease-fenced acknowledgements,
// heartbeats. It returns once every standby holds the primary's base
// snapshot; every mutation the primary acknowledges afterwards is on
// the live standbys first.
func AttachGroup(k *svc.Kernel, c *rpc.Client, dests []cap.Port, o Options) (*Shipper, error) {
	s := &Shipper{k: k, c: c, o: o.withDefaults()}
	if s.o.GroupSize <= 0 {
		s.o.GroupSize = 1 + len(dests)
	}
	// WithRawStale: StatusStale IS the replication protocol's term
	// fence — the reprobe must see it, not have the client swallow it
	// into an evict-and-relocate dance.
	s.opts = []rpc.CallOption{rpc.WithTimeout(s.o.Timeout), rpc.WithRetries(1), rpc.WithRawStale()}
	s.beat = [][]byte{EncodeHeartbeat(s.o.Term)}
	s.ctx, s.cancel = context.WithCancel(context.Background())
	peers := make([]*peer, len(dests))
	for i, d := range dests {
		peers[i] = newPeer(d)
	}
	if err := s.join(true, peers...); err != nil {
		s.halt()
		return nil, err
	}
	// A wedged WAL is a gray failure the group cannot see: the machine
	// keeps heartbeating while its disk silently takes nothing. Convert
	// it to the failure the detectors WERE built for — the primary
	// renounces leadership the moment its log wedges.
	k.OnWedge(func(error) { s.SelfDemote() })
	beats, probes := make(chan struct{}), make(chan struct{})
	s.loops = []chan struct{}{beats, probes}
	go s.every(s.o.LeaseTerm/3, s.heartbeat, beats)
	go s.every(s.o.Reprobe, s.reprobe, probes)
	return s, nil
}

// Stop detaches the shipper from the kernel, aborts any in-flight ship
// RPC, and returns once the heartbeat and reprobe loops have exited. A
// round in flight on a committing goroutine ends at its next wait.
// Records committed after Stop are not shipped. Kill and election paths
// call it; idempotent.
func (s *Shipper) Stop() {
	s.halt() // first: unblocks a round (and so a sink) mid-RPC
	s.k.SetReplicaSink(nil)
	for _, done := range s.loops {
		<-done
	}
}

// halt marks the shipper stopped, THEN cancels: who sees the context
// cancelled also sees stopped (not the converse: paths gated on stopped
// return context.Canceled themselves). Under mu: no join publishes
// after it.
func (s *Shipper) halt() {
	s.mu.Lock()
	s.stopped.Store(true)
	s.mu.Unlock()
	s.cancel()
}

// peerList returns the current peer snapshot (read-only).
func (s *Shipper) peerList() []*peer {
	if ps := s.peers.Load(); ps != nil {
		return *ps
	}
	return nil
}

// Lost reports whether every peer is currently lost. A lost peer can
// come back: the reprobe loop re-bases it on contact.
func (s *Shipper) Lost() bool {
	peers := s.peerList()
	return len(peers) > 0 && lostAmong(peers) == len(peers)
}

// LostPeers returns how many peers are currently marked lost.
func (s *Shipper) LostPeers() int { return lostAmong(s.peerList()) }

func lostAmong(peers []*peer) int {
	n := 0
	for _, p := range peers {
		if p.lost.Load() {
			n++
		}
	}
	return n
}

// Term returns the replication epoch this shipper stamps on frames.
func (s *Shipper) Term() uint64 { return s.o.Term }

// Lag returns how many committed records the slowest live peer has not
// yet acknowledged (0 on a healthy synchronous stream).
func (s *Shipper) Lag() uint64 {
	low := uint64(0)
	any := false
	for _, p := range s.peerList() {
		if p.lost.Load() {
			continue
		}
		a := p.acked.Load()
		if !any || a < low {
			low, any = a, true
		}
	}
	if !any {
		low = s.n.acked.Load()
	}
	head := s.k.NextSeq() - 1
	if head <= low {
		return 0
	}
	return head - low
}

// Stats returns a snapshot of the counters.
func (s *Shipper) Stats() ShipperStats {
	return ShipperStats{
		Batches:    s.n.batches.Load(),
		Frames:     s.n.frames.Load(),
		Records:    s.n.records.Load(),
		Retries:    s.n.retries.Load(),
		Dropped:    s.n.dropped.Load(),
		Acked:      s.n.acked.Load(),
		Heartbeats: s.n.heartbeats.Load(),
		Rebases:    s.n.rebases.Load(),
		Lost:       s.Lost(),
		Sealed:     s.sealed.Load(),
		Deposed:    s.deposed.Load(),
		Demoted:    s.demoted.Load(),
	}
}

// majority is the quorum size over the CONFIGURED group — dead peers
// still count toward N, which is exactly what makes the arithmetic a
// split-brain guard rather than an echo chamber.
func (s *Shipper) majority() int { return s.o.GroupSize/2 + 1 }

// LeaseValid reports whether a majority of the group (counting the
// primary itself) has granted a lease renewal within the last term.
// Grants are timestamped on the primary machine's clock at frame SEND
// time, so its view of its lease is pessimistic by exactly the network
// delay — the safe direction.
func (s *Shipper) LeaseValid() bool {
	now := clock.Mono(s.c.Clock())
	grants := 1 // the primary grants to itself
	for _, p := range s.peerList() {
		if g := p.grant.Load(); g != noGrant && now-g <= int64(s.o.LeaseTerm) {
			grants++
		}
	}
	return grants >= s.majority()
}

// Fence is the acknowledgement guard a primary installs as its
// kernel's replica fence and admission gate: nil while this shipper is
// entitled to acknowledge durable operations.
func (s *Shipper) Fence() error {
	switch {
	case s.demoted.Load():
		return ErrSelfDemoted
	case s.deposed.Load():
		return ErrDeposed
	case s.sealed.Load():
		return ErrSealed
	case !s.LeaseValid():
		return ErrLeaseLapsed
	}
	return nil
}

// Depose marks this shipper permanently done: a successor has been (or
// is being) elected at a newer term. The fence refuses from here on
// with ErrDeposed — which wraps rpc.ErrStaleAuthority, so clients stop
// waiting out overload backoffs and re-locate at once — and shipping
// and heartbeats fall silent. An election MUST call this before
// choosing its winner: once Depose returns, no further operation can
// be acknowledged at the old term, so the highest standby high water
// read afterwards bounds every acknowledged op. Internally it is also
// how a peer's newer-term bounce fences the shipper. Idempotent.
func (s *Shipper) Depose() {
	s.deposed.Store(true)
}

// SelfDemote renounces leadership from the inside: the primary's own
// WAL has wedged, so it can never again make an operation durable. The
// fence refuses from here on, shipping and heartbeats stop, and the
// standbys' failure detectors — which cannot see a dead disk behind a
// live NIC — see exactly what they were built to see: silence.
// Idempotent; safe from the log's wedge callback goroutine.
func (s *Shipper) SelfDemote() {
	s.demoted.Store(true)
}

// Demoted reports whether the shipper has renounced leadership over a
// wedged local WAL.
func (s *Shipper) Demoted() bool { return s.demoted.Load() }

// join is the one way onto the stream — the group's first attach, a
// fresh or returning or deposed standby, a lost peer that answers
// again. Inside ONE quiesced window it ships each of ps the base at this
// shipper's term and, only if every one acknowledged it in that term,
// publishes them as live members and installs the commit sink.
// Quiesced, no handler is mid-flight and every ticket has been waited,
// so each peer's next record is exactly the next one committed: there
// is never a gap to heal. Nothing ships before the first window closes;
// a group of no peers still gets its sink, so its first batch reaches
// nobody and seals. On the first join (AttachGroup) a peer whose base
// spent its attempt budget starts out lost, for reprobe to re-join.
func (s *Shipper) join(first bool, ps ...*peer) error {
	return s.k.Resnapshot(func(snap []byte, next uint64) error {
		// Seq next-1: each receiver then expects exactly the next record
		// the primary commits.
		base := Encode([]wal.Record{{Seq: next - 1, Checkpoint: true, Data: snap}}, true, s.o.Term)
		if _, _, err := s.ship(baseRound, ps, base); err != nil && !(first && errors.Is(err, ErrBackupLost)) {
			return err
		}
		s.mu.Lock()
		defer s.mu.Unlock()
		if s.stopped.Load() {
			return context.Canceled // Stop has detached the sink; stay detached
		}
		peers := slices.Clone(s.peerList())
		for _, p := range ps {
			if p.dropped.Load() {
				continue // dropped with its base in flight: stays out
			}
			if !slices.Contains(peers, p) {
				peers = append(peers, p)
			}
			p.lost.Store(first && p.lost.Load()) // a failed first base leaves its peer lost
		}
		s.peers.Store(&peers)
		s.n.rebases.Add(uint64(len(ps)))
		s.k.SetReplicaSink(s.sink)
		return nil
	})
}

// AddPeer joins the fresh standby at dest to the group — the
// re-integration path Restart uses.
func (s *Shipper) AddPeer(dest cap.Port) error {
	return s.join(false, newPeer(dest))
}

// DropPeer removes the peer at dest from the group (its machine is
// being restarted with a fresh receiver port, or retired for good). A
// round with a frame to it in flight carries that frame through.
func (s *Shipper) DropPeer(dest cap.Port) {
	s.mu.Lock()
	defer s.mu.Unlock()
	old := s.peerList()
	for i, p := range old {
		if p.dest == dest {
			peers := append(append([]*peer(nil), old[:i]...), old[i+1:]...)
			s.peers.Store(&peers)
			p.dropped.Store(true)
			return
		}
	}
}

// sink is the log's commit sink: called once per group commit (the log
// serializes commits), after the local sync, before the batch's tickets
// complete. It ships the encoded batch to every live peer and returns
// when all have durably acknowledged (or spent their attempt budgets):
// synchronous replication to the whole live group, so even the slowest
// standby holds every acknowledged op.
func (s *Shipper) sink(recs []wal.Record) {
	// A sealed or demoted primary stops shipping on purpose, not just
	// acknowledging: its data frames refresh the standbys' last-contact
	// clocks, and a primary that can never serve again yet keeps the
	// failure detectors quiet would block the election that is the
	// group's only way forward.
	if s.stopped.Load() || s.deposed.Load() || s.demoted.Load() || s.sealed.Load() {
		s.n.dropped.Add(uint64(len(recs)))
		return
	}
	s.n.batches.Add(1)
	s.n.records.Add(uint64(len(recs)))

	acked, targets, _ := s.ship(batchRound, s.peerList(), Encode(recs, false, s.o.Term))
	if targets == 0 {
		s.n.dropped.Add(uint64(len(recs)))
	}
	// Majority seal, the quorum half of the split-brain guard: if this
	// batch did not reach a majority of the CONFIGURED group, a
	// successor could be elected among machines that never saw it —
	// so neither this batch nor anything after it may be acknowledged.
	// A batch that reached NOBODY (every peer lost or dropped) trivially
	// missed its majority and seals like any other: skipping the check
	// would let the primary acknowledge unreplicated ops in the window
	// before its lease lapses, and a subsequent election would silently
	// drop them. Sticky on purpose: the fence refuses from here on,
	// clients fail over, and refusing an op that actually survived is
	// safe (clients retry; the suites tolerate duplicate side effects),
	// while acknowledging one that didn't is the one unforgivable lie.
	if targets == 0 || acked+1 < s.majority() {
		s.sealed.Store(true)
	}
}

// roundKind is what a round carries, which decides whom it goes to and
// what a failure costs.
type roundKind uint8

const (
	// batchRound: a commit batch, to every live peer. A failed attempt
	// spends the peer's budget.
	batchRound roundKind = iota
	// baseRound: a join's base, to exactly the peers named (less any
	// dropped meanwhile), on a fresh budget.
	baseRound
	// beatRound: a heartbeat, to every peer with a cached route and no
	// batch or base frame in flight — that frame's ack renews the grant
	// better. One attempt bounded by the tick interval, and a failure
	// spends nothing: a missed heartbeat just waits for the next tick. A
	// peer with no route is found by reprobe, not by a LOCATE that would
	// stall the tick for every other peer.
	beatRound
)

// flight is one target's progress through a round.
type flight struct {
	p      *peer
	frame  int      // index of the frame in flight, or next to send
	tries  int      // sends of that frame in the current attempt
	call   rpc.Call // the send in flight, unless paused
	sent   int64    // clock.Mono when call left: its ack's lease grant
	due    int64    // clock.Mono when call times out, or when a backoff pause ends
	paused bool     // backing off between attempts, nothing in flight
	over   bool
	err    error // the outcome once over: nil when every frame was acked
}

// round is one ship: each target's flight, and the one timer the
// shipping goroutine sleeps on. Rounds are pooled, so a steady stream
// of commits allocates neither.
type round struct {
	kind    roundKind
	frames  [][]byte
	timeout time.Duration // one send's wait for its ack
	fl      []flight
	timer   clock.Timer
}

var rounds = sync.Pool{New: func() any { return new(round) }}

// ship is the one ship routine, run on the calling goroutine: the
// committer's (sink), the joiner's (join) or the heartbeat loop's. It
// sends frames, in order, to each of ps the round's kind takes. Every
// target's first frame goes out before any ack is awaited, and a reply
// already in is taken before the round sleeps, so the round costs its
// slowest peer's time, not the sum. On a LAN that delivers on the
// sender's goroutine, a healthy standby has applied, logged and
// acknowledged a frame before its send returns. Each attempt sends its
// frame up to twice, so one lost frame never spends an attempt.
//
// It returns how many targets acknowledged every frame, how many there
// were, and the gravest failure among the rest: ErrBackupLost only when
// no other error occurred.
func (s *Shipper) ship(kind roundKind, ps []*peer, frames [][]byte) (acked, targets int, err error) {
	r := rounds.Get().(*round)
	r.kind, r.frames, r.timeout = kind, frames, s.o.Timeout
	if kind == beatRound {
		r.timeout = s.o.LeaseTerm / 3
	}
	for _, p := range ps {
		switch {
		case kind == batchRound && p.lost.Load(),
			kind == baseRound && p.dropped.Load(),
			kind == beatRound && (p.busy.Load() > 0 || !s.routed(p)):
			continue
		case kind == baseRound:
			p.fails.Store(0) // a re-base starts on a fresh attempt budget
		case kind == beatRound:
			s.n.heartbeats.Add(1)
		}
		if kind != beatRound {
			p.busy.Add(1)
		}
		r.fl = append(r.fl, flight{p: p})
	}
	for i := range r.fl {
		s.launch(r, &r.fl[i])
	}
	for s.step(r) {
	}
	var lost error
	for _, f := range r.fl {
		switch {
		case f.err == nil:
			acked++
		case errors.Is(f.err, ErrBackupLost):
			lost = f.err
		case err == nil:
			err = f.err
		}
	}
	targets = len(r.fl)
	if r.timer != nil {
		r.timer.Stop()
	}
	clear(r.fl)
	r.fl, r.frames = r.fl[:0], nil
	rounds.Put(r)
	return acked, targets, cmp.Or(err, lost)
}

// launch sends f's current frame — unless the shipper has stopped, which
// ends f with context.Canceled.
func (s *Shipper) launch(r *round, f *flight) {
	f.paused = false
	if s.stopped.Load() {
		if r.kind != beatRound {
			s.n.dropped.Add(1)
		}
		s.finish(r, f, context.Canceled)
		return
	}
	m, err := s.c.Resolver().Lookup(s.ctx, f.p.dest)
	f.sent = clock.Mono(s.c.Clock())
	f.due = f.sent + int64(r.timeout)
	var call rpc.Call
	if err == nil {
		s.n.frames.Add(1)
		call, err = s.c.Send(s.ctx, m, f.p.dest, rpc.Request{Op: OpShip, Data: r.frames[f.frame]})
	}
	if err != nil {
		s.land(r, f, rpc.Reply{}, err)
		return
	}
	f.call = call
}

// routed reports whether p's receiver has a cached route, without
// waiting on a LOCATE. The ship client's routes never expire (a receiver
// never moves: a restarted standby comes back on a fresh port) and a
// ship round never evicts one, so every peer that took a base has a
// route — unless a reprobe that timed out evicted it, and then the next
// reprobe locates it again.
func (s *Shipper) routed(p *peer) bool {
	_, ok := s.c.Resolver().Cached(p.dest)
	return ok
}

// step takes one reply already in, if any; otherwise it sleeps on the
// open flight due first — for its reply, its timeout or the end of its
// pause — and moves it on. It reports whether any flight is still open.
func (s *Shipper) step(r *round) bool {
	var next *flight
	for i := range r.fl {
		f := &r.fl[i]
		switch {
		case f.over:
		case !f.paused && f.call.Ready():
			rep, err := f.call.Await(s.ctx, nil)
			s.land(r, f, rep, err)
			return true
		case next == nil || f.due < next.due:
			next = f
		}
	}
	if next == nil {
		return false
	}
	d := time.Duration(next.due - clock.Mono(s.c.Clock()))
	if r.timer == nil {
		r.timer = s.c.Clock().NewTimer(d)
	} else {
		r.timer.Reset(d)
	}
	if next.paused {
		select {
		case <-s.ctx.Done():
		case <-r.timer.C():
		}
		s.launch(r, next)
		return true
	}
	rep, err := next.call.Await(s.ctx, r.timer.C())
	s.land(r, next, rep, err)
	return true
}

// land books what one reply — or its absence, err — proves, and moves f
// on: to its next frame, a second send, a backoff pause, or its end. A
// conflict — the receiver saw a sequence gap and refused to apply out of
// order, or it acknowledged from another term — marks the peer lost at
// once: reprobe re-joins it, the route every other loss takes.
func (s *Shipper) land(r *round, f *flight, rep rpc.Reply, err error) {
	f.call = rpc.Call{}
	var status rpc.Status
	if err == nil {
		status = s.book(f.p, f.sent, rep)
	}
	switch {
	case r.kind == beatRound:
		s.finish(r, f, err) // a heartbeat's outcome is its booking
	case err == nil && status == rpc.StatusOK:
		f.p.fails.Store(0)
		f.frame, f.tries = f.frame+1, 0
		if f.frame == len(r.frames) {
			s.finish(r, f, nil)
			return
		}
		s.launch(r, f)
	case err == nil && status == rpc.StatusStale:
		s.finish(r, f, ErrDeposed)
	case err == nil && status == rpc.StatusConflict:
		f.p.lost.Store(true)
		s.finish(r, f, ErrBackupLost)
	case s.stopped.Load():
		s.n.dropped.Add(1)
		s.finish(r, f, context.Canceled)
	case err != nil && f.tries == 0:
		f.tries++ // the attempt's second send
		s.launch(r, f)
	default:
		s.failed(r, f)
	}
}

// book records what one reply proves. Any OK is a lease grant, stamped
// with the time taken BEFORE the send — a grant is only as fresh as the
// moment the renewal left — and max-stored, since a heartbeat and a
// batch to one peer may be acked out of order. It is an acknowledgement
// only if its Pos is in this shipper's term: a receiver that answers
// from another term is alive but not on this stream (it never took our
// base), which book reports as the conflict it is. A stale-term bounce
// deposes this shipper.
func (s *Shipper) book(p *peer, sent int64, rep rpc.Reply) rpc.Status {
	switch rep.Status {
	case rpc.StatusOK:
		storeMax(&p.grant, sent)
		at, err := ParseAck(rep.Data)
		if err != nil || at.Term != s.o.Term {
			return rpc.StatusConflict
		}
		storeMax(&p.acked, at.Seq)
		storeMax(&s.n.acked, at.Seq)
	case rpc.StatusStale:
		s.Depose()
	}
	return rep.Status
}

// failed books one failed attempt against f's peer: once its budget is
// spent the peer is marked lost, otherwise f pauses for the backoff and
// then sends its frame again.
func (s *Shipper) failed(r *round, f *flight) {
	s.n.retries.Add(1)
	if int(f.p.fails.Add(1)) >= s.o.Attempts {
		f.p.lost.Store(true)
		s.finish(r, f, ErrBackupLost)
		return
	}
	f.tries, f.paused = 0, true
	f.due = clock.Mono(s.c.Clock()) + int64(s.o.Backoff)
}

// finish closes f with its outcome.
func (s *Shipper) finish(r *round, f *flight, err error) {
	f.over, f.err = true, err
	if r.kind != beatRound {
		f.p.busy.Add(-1)
	}
}

// storeMax raises a to v unless it is already there.
func storeMax[T int64 | uint64, A interface {
	Load() T
	CompareAndSwap(old, new T) bool
}](a A, v T) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// every runs tick once per period, on the primary machine's clock,
// until the shipper stops or reaches a terminal state, and then closes
// done.
//
// Deliberate silence on any terminal state — deposed, sealed, or
// self-demoted. Sealing and demotion are sticky: this primary will never
// acknowledge again, so continuing to heartbeat would only hold the
// standbys' detectors open forever and wedge the whole group behind a
// leader that cannot lead. Going dark is what lets the existing election
// machinery recover: contact goes stale, detectors fire, the highest
// standby takes over. (This is also the liveness half of the
// one-way-partition story: a primary that can send but not hear seals
// under load, then stops transmitting, so the standbys that were hearing
// its one-way traffic finally see the silence they need.) The reprobes
// stop too: a re-based peer would read as contact, and a sealed or
// demoted primary must not touch the group again.
func (s *Shipper) every(period time.Duration, tick func(), done chan<- struct{}) {
	defer close(done)
	t := s.c.Clock().NewTimer(period)
	defer t.Stop()
	for {
		select {
		case <-s.ctx.Done():
			return
		case <-t.C():
		}
		t.Reset(period) // at once, as a ticker re-arms: a slow tick does not push back the next
		if s.deposed.Load() || s.demoted.Load() || s.sealed.Load() {
			return
		}
		tick()
	}
}

// heartbeat renews the group lease while the commit stream is idle: one
// bare frame per peer per LeaseTerm/3 (see every), single attempt — a
// missed heartbeat just waits for the next tick, and three fit in a
// term, so one loss never lapses the lease.
//
// Lost peers are heartbeated too: a peer that missed a few frames is
// LOST to the data stream (reprobe re-bases it) but very much alive to
// the lease — if the primary went silent toward it, its failure
// detector would fire and elect a second primary out of a transient
// loss. The heartbeat tells it "your primary lives"; the re-base
// catches its data up separately. Every beat goes out before any is
// awaited, so a dead peer's timeout holds no other peer's heartbeat
// past the detector gap.
func (s *Shipper) heartbeat() { s.ship(beatRound, s.peerList(), s.beat) }

// reprobe is the slow path back from the dead: every Reprobe it pings
// each lost peer's receiver with an OpSeq query (cheap, no records — a
// join attempt on a dead peer would hold the kernel quiesced for a
// whole attempt budget), and a peer that answers is re-joined and
// resumes as a live member of the group.
func (s *Shipper) reprobe() {
	for _, p := range s.peerList() {
		if !p.lost.Load() || s.ctx.Err() != nil {
			continue
		}
		rep, err := s.c.Trans(s.ctx, p.dest, rpc.Request{Op: OpSeq}, s.opts...)
		if err != nil || rep.Status != rpc.StatusOK {
			continue
		}
		// Alive again. Its log may have holes we shipped around while it
		// was lost, so the only safe resumption point is a fresh base;
		// still flaky, and the next tick tries again.
		_ = s.join(false, p)
	}
}
