package repl

import (
	"cmp"
	"context"
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"amoeba/internal/cap"
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
	// before declaring a backup lost (default 8). Each attempt
	// already carries the RPC client's own retries, so a lost frame or
	// two never burns an attempt.
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

// peer is one standby's shipping state. Every frame to a peer — commit
// batches, re-bases, heartbeats — is sent by its lane, one
// long-lived goroutine, so the lane IS the per-peer serializer: nothing
// interleaves on one stream, and a slow peer only slows itself.
type peer struct {
	dest cap.Port

	work chan shipJob  // unbuffered: a send succeeds only into an idle lane
	quit chan struct{} // closed to retire the lane (DropPeer, failed AddPeer)

	fails int // consecutive failed attempts (lane-owned)

	lost  atomic.Bool
	acked atomic.Uint64 // this peer's durable high water, in the shipper's term
	grant atomic.Int64  // unixnano SEND time of the last acked frame
}

// shipJob is one unit of lane work: an encoded batch to deliver, or
// (frames == nil) one bare heartbeat, which nobody waits for.
type shipJob struct {
	frames [][]byte
	batch  *shipBatch   // commit batch: count the ack, release the sink
	reply  chan<- error // re-base: the caller wants the lane's verdict
}

// shipBatch is the countdown one commit batch's lanes report into.
type shipBatch struct {
	wg   sync.WaitGroup
	acks atomic.Int32 // lanes that delivered the whole batch
}

// shipCounters is ShipperStats' live form: bumped lock-free from the
// lanes, the sink and the loops.
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
// all live peers in parallel — the commit's tickets (and therefore the
// clients' replies) wait for every live standby's durable
// acknowledgement, so a double failure still loses nothing that was
// acknowledged.
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
	opts   []rpc.CallOption // per-attempt timeout/retries, built once
	hbOpts []rpc.CallOption // heartbeat-only: one short attempt (see below)
	hb     []byte           // the bare heartbeat frame at this term

	sealed  atomic.Bool
	deposed atomic.Bool
	demoted atomic.Bool
	stopped atomic.Bool // set (under mu) before ctx is cancelled

	// peers is a copy-on-write snapshot: the sink, Fence (twice per
	// operation) and the loops read it with one atomic load; AddPeer and
	// DropPeer publish a fresh slice under mu, which also orders lane
	// starts against Stop.
	peers atomic.Pointer[[]*peer]
	mu    sync.Mutex

	n     shipCounters
	batch shipBatch // the sink's countdown; commits are serialized by the log

	wg sync.WaitGroup // lanes + heartbeat + reprobe loops
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
	// WithRawStale on both option sets: StatusStale IS the replication
	// protocol's term fence — the shipper must see it and depose, not
	// have the client swallow it into an evict-and-relocate dance.
	s.opts = []rpc.CallOption{rpc.WithTimeout(s.o.Timeout), rpc.WithRetries(1), rpc.WithRawStale()}
	// Heartbeats: ONE attempt, bounded by the tick interval. A grant is
	// stamped at send time, so an attempt that drags (or a retry after a
	// lost first attempt) stores a grant that is already stale when it
	// lands — under load that can wedge a lapsed lease permanently,
	// because the fence blocks the data traffic that would otherwise
	// renew it. Better to abandon a slow attempt and re-stamp fresh at
	// the next tick.
	s.hbOpts = []rpc.CallOption{rpc.WithTimeout(s.o.LeaseTerm / 3), rpc.WithRetries(0), rpc.WithRawStale()}
	s.hb = EncodeHeartbeat(s.o.Term)
	s.ctx, s.cancel = context.WithCancel(context.Background())
	peers := make([]*peer, len(dests))
	for i, d := range dests {
		peers[i], _ = s.startLane(d) // cannot fail: nothing has stopped s yet
	}
	if err := s.join(true, peers...); err != nil {
		s.halt()
		s.wg.Wait()
		return nil, err
	}
	// A wedged WAL is a gray failure the group cannot see: the machine
	// keeps heartbeating while its disk silently takes nothing. Convert
	// it to the failure the detectors WERE built for — the primary
	// renounces leadership the moment its log wedges.
	k.OnWedge(func(error) { s.SelfDemote() })
	s.wg.Add(2)
	go s.every(s.o.LeaseTerm/3, s.heartbeat)
	go s.every(s.o.Reprobe, s.reprobe)
	return s, nil
}

// Stop detaches the shipper from the kernel, aborts any in-flight ship
// RPC, and returns once every lane and the heartbeat/reprobe loops have
// exited. Records committed after Stop are not shipped. Kill and
// election paths call it; idempotent.
func (s *Shipper) Stop() {
	s.halt() // first: unblocks the lanes (and so a sink) mid-RPC
	s.k.SetReplicaSink(nil)
	s.wg.Wait()
}

// halt marks the shipper stopped, THEN cancels: who sees the context
// cancelled also sees stopped (not the converse: paths gated on stopped
// return context.Canceled themselves). Under mu: no lane starts after it.
func (s *Shipper) halt() {
	s.mu.Lock()
	s.stopped.Store(true)
	s.mu.Unlock()
	s.cancel()
}

// startLane creates the peer for dest and starts its lane.
func (s *Shipper) startLane(dest cap.Port) (*peer, error) {
	p := &peer{dest: dest, work: make(chan shipJob), quit: make(chan struct{})}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stopped.Load() {
		return nil, context.Canceled
	}
	s.wg.Add(1)
	go s.lane(p)
	return p, nil
}

// lane is a peer's ship goroutine: it owns every frame to that standby
// until the peer is dropped or the shipper stops. A job it has accepted
// is always carried through and reported, so nobody who handed one over
// is left waiting on a retired lane.
func (s *Shipper) lane(p *peer) {
	defer s.wg.Done()
	for {
		select {
		case j := <-p.work:
			if j.frames == nil {
				s.n.heartbeats.Add(1)
				s.exchange(p, s.hb, s.hbOpts)
				continue
			}
			if j.reply != nil {
				p.fails = 0 // a re-base starts on a fresh attempt budget
			}
			var err error
			for _, frame := range j.frames {
				if err = s.sendFrame(p, frame); err != nil {
					break
				}
			}
			if j.batch != nil {
				if err == nil {
					j.batch.acks.Add(1)
				}
				j.batch.wg.Done()
			}
			if j.reply != nil {
				j.reply <- err
			}
		case <-p.quit:
			return
		case <-s.ctx.Done():
			return
		}
	}
}

// handOff gives p's lane a job, waiting out whatever the lane is busy
// with; false means the lane has retired (peer dropped, shipper
// stopped) and will never take it.
func (s *Shipper) handOff(p *peer, j shipJob) bool {
	select {
	case p.work <- j:
		return true
	case <-p.quit:
	case <-s.ctx.Done():
	}
	return false
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
	now := s.c.Clock().Now()
	grants := 1 // the primary grants to itself
	for _, p := range s.peerList() {
		if g := p.grant.Load(); g != 0 && now.Sub(time.Unix(0, g)) <= s.o.LeaseTerm {
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
		// the primary commits. The lanes ship side by side; reply has
		// room for every verdict, so none blocks on an early return.
		reply := make(chan error, len(ps))
		base := shipJob{frames: Encode([]wal.Record{{Seq: next - 1, Checkpoint: true, Data: snap}}, true, s.o.Term), reply: reply}
		for _, p := range ps {
			if !s.handOff(p, base) {
				return cmp.Or(s.ctx.Err(), ErrBackupLost) // dropped mid-join
			}
		}
		for range ps {
			if err := <-reply; err != nil && !(first && errors.Is(err, ErrBackupLost)) {
				return err
			}
		}
		s.mu.Lock()
		defer s.mu.Unlock()
		if s.stopped.Load() {
			return context.Canceled // Stop has detached the sink; stay detached
		}
		peers := slices.Clone(s.peerList())
		for _, p := range ps {
			select {
			case <-p.quit: // dropped with its base in flight: stays out
				continue
			default:
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

// AddPeer starts a lane to the fresh standby at dest and joins it to
// the group — the re-integration path Restart uses.
func (s *Shipper) AddPeer(dest cap.Port) error {
	p, err := s.startLane(dest)
	if err != nil {
		return err
	}
	if err := s.join(false, p); err != nil {
		close(p.quit) // never published: nobody else can reach this lane
		return err
	}
	return nil
}

// DropPeer removes the peer at dest from the group (its machine is
// being restarted with a fresh receiver port, or retired for good) and
// retires its lane, which exits once the frame it may be mid-way
// through resolves.
func (s *Shipper) DropPeer(dest cap.Port) {
	s.mu.Lock()
	defer s.mu.Unlock()
	old := s.peerList()
	for i, p := range old {
		if p.dest == dest {
			peers := append(append([]*peer(nil), old[:i]...), old[i+1:]...)
			s.peers.Store(&peers)
			close(p.quit)
			return
		}
	}
}

// sink is the log's commit sink: called once per group commit (the log
// serializes commits), after the local sync, before the batch's tickets
// complete. It hands the encoded batch to every live peer's lane and
// returns when all have durably acknowledged (or spent their attempt
// budgets): synchronous replication to the whole live group, so even
// the slowest standby holds every acknowledged op.
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

	job := shipJob{frames: Encode(recs, false, s.o.Term), batch: &s.batch}
	s.batch.acks.Store(0)
	shipped := false
	for _, p := range s.peerList() {
		if p.lost.Load() {
			continue
		}
		s.batch.wg.Add(1)
		if s.handOff(p, job) {
			shipped = true
		} else {
			s.batch.wg.Done()
		}
	}
	if !shipped {
		s.n.dropped.Add(uint64(len(recs)))
	}
	s.batch.wg.Wait()
	// Majority seal, the quorum half of the split-brain guard: if this
	// batch did not reach a majority of the CONFIGURED group, a
	// successor could be elected among machines that never saw it —
	// so neither this batch nor anything after it may be acknowledged.
	// A batch that reached NOBODY (every peer lost, or every lane
	// retired) trivially missed its majority and seals like any other:
	// skipping the check would let the primary acknowledge unreplicated
	// ops in the window before its lease lapses, and a subsequent
	// election would silently drop them. Sticky on purpose: the fence
	// refuses from here on, clients fail over, and refusing an op that
	// actually survived is safe (clients retry; the suites tolerate
	// duplicate side effects), while acknowledging one that didn't is
	// the one unforgivable lie.
	if !shipped || int(s.batch.acks.Load())+1 < s.majority() {
		s.sealed.Store(true)
	}
}

// exchange sends one frame to one peer (lane only) and books what the
// reply proves. Any OK is a lease grant, stamped with the time taken
// BEFORE the call — a grant is only as fresh as the moment the renewal
// left. It is an acknowledgement only if its Pos is in this shipper's
// term: a receiver that answers from another term is alive but not on
// this stream (it never took our base), which exchange reports as the
// conflict it is. A stale-term bounce deposes this shipper. s.ctx
// carries only cancellation (Stop); the per-attempt timeout rides the
// call option, so no deadline context is built on this hot path.
func (s *Shipper) exchange(p *peer, payload []byte, opts []rpc.CallOption) (rpc.Status, error) {
	s.n.frames.Add(1)
	sent := s.c.Clock().Now()
	rep, err := s.c.Trans(s.ctx, p.dest, rpc.Request{Op: OpShip, Data: payload}, opts...)
	if err != nil {
		return 0, err
	}
	switch rep.Status {
	case rpc.StatusOK:
		p.grant.Store(sent.UnixNano())
		at, aerr := ParseAck(rep.Data)
		if aerr != nil || at.Term != s.o.Term {
			return rpc.StatusConflict, nil
		}
		storeMax(&p.acked, at.Seq)
		storeMax(&s.n.acked, at.Seq)
	case rpc.StatusStale:
		s.Depose()
	}
	return rep.Status, nil
}

// failed books one failed attempt against p's budget: ErrBackupLost
// once it is spent (the peer is marked lost), otherwise nil after the
// backoff pause.
func (s *Shipper) failed(p *peer) error {
	p.fails++
	s.n.retries.Add(1)
	if p.fails >= s.o.Attempts {
		p.lost.Store(true)
		return ErrBackupLost
	}
	t := s.c.Clock().NewTimer(s.o.Backoff)
	defer t.Stop()
	select {
	case <-s.ctx.Done():
	case <-t.C():
	}
	return nil
}

// sendFrame delivers one frame to one peer (lane only). A conflict —
// the receiver saw a sequence gap and refused to apply out of order, or
// it acknowledged from another term — marks the peer lost at once:
// reprobe re-joins it, the route every other loss takes. Transport
// failures are retried until the attempt budget is spent, and then the
// peer is marked lost.
func (s *Shipper) sendFrame(p *peer, frame []byte) error {
	for {
		if s.stopped.Load() {
			s.n.dropped.Add(1)
			return context.Canceled
		}
		status, err := s.exchange(p, frame, s.opts)
		if err == nil {
			switch status {
			case rpc.StatusOK:
				p.fails = 0
				return nil
			case rpc.StatusStale:
				return ErrDeposed
			case rpc.StatusConflict:
				p.lost.Store(true)
				return ErrBackupLost
			}
		}
		if err := s.failed(p); err != nil {
			return err
		}
	}
}

// storeMax raises a to v unless it is already there.
func storeMax(a *atomic.Uint64, v uint64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// every runs tick once per period, on the primary machine's clock,
// until the shipper stops or reaches a terminal state.
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
func (s *Shipper) every(period time.Duration, tick func()) {
	defer s.wg.Done()
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
func (s *Shipper) heartbeat() {
	for _, p := range s.peerList() {
		// Lost peers are heartbeated too: a peer that missed a few
		// frames is LOST to the data stream (reprobe re-bases it) but
		// very much alive to the lease — if the primary went silent
		// toward it, its failure detector would fire and elect a second
		// primary out of a transient loss. The heartbeat tells it "your
		// primary lives"; the re-base catches its data up separately.
		//
		// An offer, never a wait: each lane burns a dead peer's timeout
		// alone, so one corpse cannot hold the next peer's heartbeat
		// past the detector gap and cascade elections through a healthy
		// group. A busy lane is mid-frame (or mid-heartbeat) to this
		// peer, and that frame's ack will renew the grant better than a
		// heartbeat queued behind it.
		select {
		case p.work <- shipJob{}:
		default:
		}
	}
}

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
