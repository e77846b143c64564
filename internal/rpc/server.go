package rpc

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"amoeba/internal/amnet"
	"amoeba/internal/cap"
	"amoeba/internal/clock"
	"amoeba/internal/crypto"
	"amoeba/internal/fbox"
	"amoeba/internal/obs"
	"amoeba/internal/wire"
)

// Handler processes one request and produces the reply. Handlers run
// on a bounded worker pool, so a handler may itself perform RPC (the
// flat file server does, for nested block-server transactions) — but a
// handler must never send a request back to its *own* server, which
// could starve the pool.
//
// The context is cancelled when the server shuts down, and carries a
// deadline when the client's request arrived with a remaining-time
// budget (Request.Budget); handlers that issue nested RPC should pass
// it on so the caller's deadline bounds the whole call tree.
type Handler func(ctx context.Context, md Meta, req Request) Reply

// Meta carries per-message transport metadata into handlers.
type Meta struct {
	// From is the hardware source machine of the request.
	From amnet.MachineID
	// Sig is the F-transformed signature F(S) of the request, or zero
	// if unsigned; compare with a published value via fbox.VerifySignature.
	Sig cap.Port
	// ReqID is the client-minted request identifier from the wire
	// header (zero for legacy callers); it ties this request to access
	// log records on every machine it touched.
	ReqID uint64
}

// baseCtxKey lets WithoutDeadline recover the server's base context
// from a handler context that carries a request-budget deadline.
type baseCtxKey struct{}

// WithoutDeadline returns a context for work that is past the point of
// no return — cleanup after an irreversible state change — and must
// therefore outlive the caller's deadline. Inside a handler it returns
// the server's base context, which is still cancelled on Server.Close
// so shutdown is not blocked; outside a handler it falls back to
// context.WithoutCancel.
func WithoutDeadline(ctx context.Context) context.Context {
	if base, ok := ctx.Value(baseCtxKey{}).(context.Context); ok {
		return base
	}
	return context.WithoutCancel(ctx)
}

// ServerConfig tunes a Server. The zero value gets sensible defaults.
type ServerConfig struct {
	// Source supplies the secret get-port randomness (nil selects
	// crypto/rand). Ignored when Port is set.
	Source crypto.Source
	// Port pins the secret get-port G (services that must reappear at
	// a well-known put-port after a restart persist G and pass it
	// here). Zero draws a fresh port from Source.
	Port cap.Port
	// MaxInflight is the worker-pool size — the bound on concurrently
	// executing requests, a batch counting as one — fixed for the
	// server's life (zero selects 4×GOMAXPROCS). When every worker is
	// busy the dispatch loop stops pulling from the listener, the
	// listener queue fills, and excess load is shed at the wire instead
	// of as unbounded goroutines. Clients see a timeout and retry,
	// exactly as for a lost frame.
	MaxInflight int
}

// Server is an Amoeba service process: it chooses a secret get-port G,
// does GET(G) through its F-box, and dispatches arriving requests to
// registered handlers. "Every server has one or more ports to which
// client processes can send messages to contact the service" (§2.2).
//
// Dispatch is bounded: requests run on a pool of MaxInflight workers
// with backpressure, not a goroutine per request.
type Server struct {
	fb   *fbox.FBox
	get  cap.Port // the secret G
	put  cap.Port // P = F(G), computed once: PutPort is on request paths
	pool int      // worker-pool size, fixed at construction

	mu       sync.Mutex
	handlers map[uint16]Handler
	inline   map[uint16]bool
	table    *cap.Table
	sealer   CapSealer
	listener *fbox.Listener
	started  bool
	closed   bool
	cancel   context.CancelFunc
	// handlerCtx is the base context (cancelled by Close) pre-wrapped
	// with the WithoutDeadline key, built once at Start so the
	// no-deadline dispatch path allocates no context per request.
	handlerCtx context.Context

	// work hands requests from the dispatch loop to pool workers. It is
	// unbuffered for backpressure: a send succeeds only when a worker is
	// actually free, so a saturated pool stops the loop and the queue
	// builds in the listener, where overload is shed. The loop is its
	// only sender, and closes it on the way out.
	work chan job
	// waits carries Drain's and Quiesce's requests to the dispatch loop,
	// which takes them between frames; done is closed when the loop
	// has exited, its last act after retiring the pool.
	waits chan holdReq
	done  chan struct{}

	// stats, when set before Start, observes every admitted and shed
	// request (SetObserver). Frozen at Start like the handlers.
	stats *obs.ServerStats

	// Admission-control state, all read lock-free on the dispatch path:
	// inflight counts requests handed to (or queued for) the pool;
	// ewmaWait is an EWMA of recent queue waits in nanoseconds (α = 1/8,
	// updated at worker pickup); draining sheds everything once set.
	inflight atomic.Int64
	ewmaWait atomic.Int64
	draining atomic.Bool

	// admitGate, when set, is consulted before every pool admission; a
	// non-nil error sheds the request with StatusOverload. The serving
	// lease installs itself here so a deposed primary refuses new work
	// at the door. Settable after Start (replication attaches late).
	admitGate atomic.Value // of func() error
}

// job is one unit of worker-pool work: a decoded request, carried by
// value so dispatch allocates nothing — or, when hold is set, no
// request at all: the worker that takes it waits until hold closes.
type job struct {
	m    fbox.Received
	req  Request
	enq  time.Time // when dispatch queued it (feeds the queue-wait EWMA)
	hold <-chan struct{}
}

// holdReq asks the dispatch loop, which takes it between frames, to
// hold every worker and admit nothing until release closes. The loop
// closes held once every worker holds.
type holdReq struct{ held, release chan struct{} }

// NewServer creates a server with a fresh secret get-port drawn from
// src (nil selects crypto/rand) and the default worker pool. The
// put-port P = F(G) is available from PutPort for distribution to
// clients.
func NewServer(fb *fbox.FBox, src crypto.Source) *Server {
	return NewServerWithConfig(fb, ServerConfig{Source: src})
}

// NewServerWithConfig creates a server with explicit tuning.
func NewServerWithConfig(fb *fbox.FBox, cfg ServerConfig) *Server {
	g := cfg.Port
	if g == 0 {
		src := cfg.Source
		if src == nil {
			src = crypto.SystemSource()
		}
		g = cap.Port(crypto.Rand48(src))
	}
	n := cfg.MaxInflight
	if n <= 0 {
		n = 4 * runtime.GOMAXPROCS(0)
	}
	return &Server{
		fb:       fb,
		get:      g,
		put:      fb.F(g),
		pool:     n,
		handlers: make(map[uint16]Handler),
	}
}

// PutPort returns the public put-port P = F(G).
func (s *Server) PutPort() cap.Port { return s.put }

// GetPort returns the secret get-port G. Callers must keep it secret;
// it exists so a service can persist its identity across restarts.
func (s *Server) GetPort() cap.Port { return s.get }

// Clock returns the server machine's clock.
func (s *Server) Clock() clock.Clock { return s.fb.Clock() }

// Handle registers a handler for an opcode. It must be called before
// Start; registering twice for one opcode panics (a wiring bug), as
// does registering the reserved OpBatch.
func (s *Server) Handle(op uint16, h Handler) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.started {
		panic("rpc: Handle after Start")
	}
	if op == OpBatch {
		panic("rpc: OpBatch is reserved (the server implements it)")
	}
	if _, dup := s.handlers[op]; dup {
		panic(fmt.Sprintf("rpc: duplicate handler for op %#04x", op))
	}
	s.handlers[op] = h
}

// HandleInline registers a handler executed directly on the dispatch
// loop — no worker-pool handoff, saving two goroutine switches per
// request. ONLY for services that are inherently serial (the
// replication receiver, whose mutex would serialize pool workers
// anyway): an inline handler blocks ALL of this server's dispatch for
// as long as it runs, and it must never issue RPC back through a loop
// it is standing on. Call before Start.
func (s *Server) HandleInline(op uint16, h Handler) {
	s.Handle(op, h)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.inline == nil {
		s.inline = make(map[uint16]bool)
	}
	s.inline[op] = true
}

// ServeTable wires the standard capability-maintenance opcodes
// (OpRestrict, OpRevoke, OpValidate, OpEcho) to a capability table.
// Every Amoeba service calls this (via the svc kernel); it is what
// makes capability handling uniform across services.
//
// revoke, when non-nil, replaces the OpRevoke handler — revocation is
// the one table op that mutates server state, so a durable service
// substitutes one that writes the re-key ahead to its log before
// replying. wrap, when non-nil, is applied to every table handler (the
// service kernel passes its durability barrier, so even a Validate
// reply — which observes table secrets whose re-key record may still
// be in flight — waits for the log).
func (s *Server) ServeTable(t *cap.Table, revoke Handler, wrap func(Handler) Handler) {
	if revoke == nil {
		revoke = func(_ context.Context, _ Meta, req Request) Reply {
			nc, err := t.Revoke(req.Cap)
			if err != nil {
				return ErrReplyFromErr(err)
			}
			return CapReply(nc)
		}
	}
	if wrap == nil {
		wrap = func(h Handler) Handler { return h }
	}
	s.mu.Lock()
	s.table = t
	s.mu.Unlock()
	s.Handle(OpRestrict, wrap(func(_ context.Context, _ Meta, req Request) Reply {
		if len(req.Data) != 1 {
			return ErrReply(StatusBadRequest, "restrict wants a 1-byte mask")
		}
		nc, err := t.Restrict(req.Cap, cap.Rights(req.Data[0]))
		if err != nil {
			return ErrReplyFromErr(err)
		}
		return CapReply(nc)
	}))
	s.Handle(OpRevoke, wrap(revoke))
	s.Handle(OpValidate, wrap(func(_ context.Context, _ Meta, req Request) Reply {
		rights, err := t.Validate(req.Cap)
		if err != nil {
			return ErrReplyFromErr(err)
		}
		return OkReply([]byte{byte(rights)})
	}))
	s.Handle(OpEcho, wrap(func(_ context.Context, _ Meta, req Request) Reply {
		return OkReply(req.Data)
	}))
}

// Table returns the table registered via ServeTable (nil if none).
func (s *Server) Table() *cap.Table {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.table
}

// SetSealer installs a §2.4 capability sealer: request capabilities
// are decrypted under M[source][me] before dispatch, and capabilities
// in replies are encrypted under M[me][source]. Clients must share the
// matrix (ClientConfig.Sealer). Call before Start.
func (s *Server) SetSealer(sealer CapSealer) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.started {
		panic("rpc: SetSealer after Start")
	}
	s.sealer = sealer
}

// SetObserver installs the instrumentation handle that records every
// admitted and shed request (metrics + access log). Like the handlers
// and the sealer it is frozen at Start — the per-opcode metric
// families register then — so the dispatch path reads it lock-free.
func (s *Server) SetObserver(st *obs.ServerStats) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.started {
		panic("rpc: SetObserver after Start")
	}
	s.stats = st
}

// Start performs GET(G) and begins dispatching. The server advertises
// its port for LOCATE broadcasts. The base context handed to every
// handler is cancelled when Close is called, so in-flight handlers
// (and any nested RPC they issue) shut down gracefully.
//
// Handlers and the sealer are frozen at Start (Handle and SetSealer
// panic afterwards), so the dispatch path reads them without locking.
func (s *Server) Start() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.started {
		return errors.New("rpc: server already started")
	}
	if s.closed {
		return fbox.ErrClosed
	}
	l, err := s.fb.Get(s.get, true)
	if err != nil {
		return fmt.Errorf("rpc: GET(G): %w", err)
	}
	s.listener = l
	s.started = true
	var base context.Context
	base, s.cancel = context.WithCancel(context.Background())
	s.handlerCtx = context.WithValue(base, baseCtxKey{}, base)
	s.work = make(chan job)
	s.waits = make(chan holdReq)
	s.done = make(chan struct{})
	if s.stats != nil {
		// Freeze the per-opcode metric families now, so the hot path
		// only ever reads the stats maps.
		ops := make([]uint16, 0, len(s.handlers)+1)
		for op := range s.handlers {
			ops = append(ops, op)
		}
		ops = append(ops, OpBatch)
		s.stats.Freeze(ops)
	}
	for i := 0; i < s.pool; i++ {
		go s.worker()
	}
	go s.loop(l.Recv())
	return nil
}

// worker runs pool jobs until the loop closes the work channel. A hold
// job parks it until the hold is released: it counts toward neither
// inflight nor the queue-wait EWMA.
func (s *Server) worker() {
	for j := range s.work {
		if j.hold != nil {
			<-j.hold
			continue
		}
		// Fold this job's queue wait into the EWMA admission control
		// reads (α = 1/8; the racy load/store loses an occasional
		// update, which a smoothed estimate absorbs).
		wait := clock.Since(s.fb.Clock(), j.enq)
		old := s.ewmaWait.Load()
		s.ewmaWait.Store(old + (int64(wait)-old)/8)
		s.serve(j.m, j.req, wait)
		s.inflight.Add(-1)
	}
}

// loop is the dispatch loop, the only goroutine that admits requests.
// Between frames it takes Drain's and Quiesce's waits. Once Close has
// closed the listener it dispatches what was still queued, holds the
// pool — every admitted request has replied — and retires the workers.
func (s *Server) loop(recv <-chan fbox.Received) {
	defer close(s.done)
	for recv != nil {
		select {
		case m, ok := <-recv:
			if !ok {
				recv = nil
				break
			}
			s.dispatch(m)
		case w := <-s.waits:
			recv = s.holdPool(recv, w.release)
			close(w.held)
			<-w.release
		}
	}
	release := make(chan struct{})
	s.holdPool(nil, release)
	close(s.work)
	close(release)
}

// holdPool sends one hold job per worker. A worker takes one only once
// it has finished its request, so when the last send completes every
// request admitted earlier has replied (an inline one ran on the loop
// itself). Meanwhile a draining server sheds arrivals; any other leaves
// them in the listener. It returns recv, or nil once that has closed.
func (s *Server) holdPool(recv <-chan fbox.Received, release <-chan struct{}) <-chan fbox.Received {
	var in <-chan fbox.Received
	if s.draining.Load() {
		in = recv // dispatch sheds everything: no send on work
	}
	for n := 0; n < s.pool; {
		select {
		case s.work <- job{hold: release}:
			n++
		case m, ok := <-in:
			if !ok {
				recv, in = nil, nil
				continue
			}
			s.dispatch(m)
		}
	}
	return recv
}

// dispatch admits one arriving frame: it answers a malformed or
// unroutable request at once, sheds one that draining, the admit gate
// or the deadline budget refuses, runs an inline handler on the loop,
// and hands the rest to the pool. Handlers and the sealer are frozen
// at Start, so it reads them without a lock.
func (s *Server) dispatch(m fbox.Received) {
	sealer := s.sealer
	req, err := DecodeRequest(m.Payload)
	if err != nil {
		s.reply(sealer, m, ErrReply(StatusBadRequest, err.Error()))
		m.Release()
		return
	}
	// A failed Open yields a garbage capability rather than an error
	// (wrong keys are indistinguishable from forgery); an error here
	// means no key is installed for the source machine.
	if req, err = openRequestCap(sealer, req, m.From); err != nil {
		s.reply(sealer, m, ErrReply(StatusBadCapability, err.Error()))
		m.Release()
		return
	}
	if req.Op != OpBatch && s.handlers[req.Op] == nil {
		s.reply(sealer, m, ErrReply(StatusNoSuchOp, fmt.Sprintf("op %#04x", req.Op)))
		m.Release()
		return
	}
	if s.draining.Load() {
		// Graceful drain: everything new is refused — cheaply, with a
		// status that tells the client the work was never started.
		s.shed(m, req, StatusOverload, shedDraining)
		return
	}
	if s.inline[req.Op] {
		s.serve(m, req, 0) // HandleInline: on the dispatch loop itself
		return
	}
	if g, _ := s.admitGate.Load().(func() error); g != nil {
		if err := g(); err != nil {
			// A gate refusing because its authority is GONE (deposed,
			// sealed, wedged — never coming back) says so with
			// StatusStale, so clients re-LOCATE at once instead of
			// politely backing off against a corpse.
			status := StatusOverload
			if errors.Is(err, ErrStaleAuthority) {
				status = StatusStale
			}
			s.shed(m, req, status, []byte(err.Error()))
			return
		}
	}
	// Deadline-aware admission. Queue wait counts from when the frame came
	// off the NIC (m.At): under a deep burst the listener queue itself
	// holds requests for most of their budget. A request whose remaining
	// budget is spent, or is below recent queue waits while the pool is
	// saturated, would time out in the queue; executing it would waste a
	// worker, and possibly a WAL write, on a reply nobody waits for.
	// Refuse it now, with a status the client can tell apart from loss.
	if req.Budget > 0 {
		remaining := req.Budget - clock.Since(s.fb.Clock(), m.At)
		if remaining <= 0 || (s.inflight.Load() >= int64(s.pool) &&
			time.Duration(s.ewmaWait.Load()) >= remaining) {
			s.shed(m, req, StatusOverload, shedQueueWait)
			return
		}
	}
	s.inflight.Add(1)
	// Backpressure: with every worker busy this send blocks, the listener
	// queue fills, and excess load is shed at the wire (the NIC counts an
	// overrun); clients time out and retry. The job owns m's frame
	// buffer: the worker releases it once the reply is on the wire.
	s.work <- job{m: m, req: req, enq: m.At}
}

// Static shed details: the refusal path must stay cheap under the very
// overload it exists to survive.
var (
	shedDraining  = []byte("server draining")
	shedQueueWait = []byte("queue wait exceeds deadline budget")
)

// shed refuses a request before it touches the worker pool, counts the
// refusal and releases m. The status is StatusOverload, or StatusStale
// for a gate whose authority is permanently gone.
func (s *Server) shed(m fbox.Received, req Request, status Status, detail []byte) {
	if st := s.stats; st != nil {
		st.ObserveShed(req.Op, req.ID, uint32(m.From), uint16(status),
			time.Duration(s.ewmaWait.Load()))
	}
	s.reply(s.sealer, m, Reply{Status: status, Data: detail})
	m.Release()
}

// serve runs one accepted request on a pool worker. It owns m's frame
// buffer: req.Data (and any reply aliasing it, like OpEcho's) stays
// valid until the reply has been encoded, then the buffer is released.
// wait is how long the request queued before pickup (0 for inline).
func (s *Server) serve(m fbox.Received, req Request, wait time.Duration) {
	defer m.Release()
	// The caller's remaining deadline budget (if any) bounds this
	// handler and every nested RPC it issues; the base context stays
	// reachable for WithoutDeadline cleanup. The request ID rides the
	// same context so nested RPC reuses it — the deadline path already
	// allocates a context, so correlation is free where it matters and
	// absent (like the deadline) where the caller declined to pay.
	ctx := s.handlerCtx
	if req.Budget > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, req.Budget)
		defer cancel()
		if req.ID != 0 {
			ctx = ContextWithRequestID(ctx, req.ID)
		}
	}
	md := Meta{From: m.From, Sig: m.Sig, ReqID: req.ID}
	st, clk := s.stats, s.fb.Clock()
	var start time.Time
	if st != nil {
		start = clk.Now()
	}
	var rep Reply
	if req.Op == OpBatch {
		rep = s.serveBatch(ctx, s.sealer, md, req)
	} else {
		rep = s.handlers[req.Op](ctx, md, req)
	}
	status := rep.Status
	s.reply(s.sealer, m, rep)
	if st != nil {
		st.Observe(req.Op, req.ID, uint32(m.From), uint16(status), wait, clock.Since(clk, start))
	}
}

// serveBatch runs an OpBatch frame's sub-requests in order, on the
// worker that admitted the frame, and packs the replies. A batch is
// one in-flight request to admission control and to the pool: it
// occupies exactly one worker, however many sub-requests it carries.
// Every item is decoded and checked before any of them runs.
func (s *Server) serveBatch(ctx context.Context, sealer CapSealer, md Meta, req Request) Reply {
	raw, err := DecodeBatchItems(req.Data)
	if err != nil {
		return ErrReply(StatusBadRequest, err.Error())
	}
	subs := make([]Request, len(raw))
	for i, b := range raw {
		sub, err := DecodeRequest(b)
		if err != nil {
			return ErrReply(StatusBadRequest, fmt.Sprintf("batch item %d: %v", i, err))
		}
		if sub.Op == OpBatch {
			return ErrReply(StatusBadRequest, "batch transactions may not nest")
		}
		if sealer != nil {
			sub, err = openRequestCap(sealer, sub, md.From)
			if err != nil {
				return ErrReply(StatusBadCapability, fmt.Sprintf("batch item %d: %v", i, err))
			}
		}
		subs[i] = sub
	}
	replies := make([]Reply, len(subs))
	for i, sub := range subs {
		if h := s.handlers[sub.Op]; h != nil {
			replies[i] = h(ctx, md, sub)
		} else {
			replies[i] = ErrReply(StatusNoSuchOp, fmt.Sprintf("op %#04x", sub.Op))
		}
	}
	size := 0
	for i := range replies {
		replies[i] = sealReplyCap(sealer, replies[i], md.From)
		size += wireHeader + len(replies[i].Data)
	}
	// An over-MTU reply frame would be dropped by the wire and the
	// client would retry (re-executing the batch) forever; fail loudly
	// instead so the caller learns to chunk.
	if size > MaxBatchBytes {
		for i := range replies {
			replies[i].releaseBuf()
		}
		return ErrReply(StatusBadRequest,
			fmt.Sprintf("batch reply of %d bytes exceeds %d; split the batch", size, MaxBatchBytes))
	}
	// Pack every sub-reply into one pooled buffer handed onward to the
	// reply path, which ships it as the reply frame in place.
	out := NewReplyBuf(2 + size + 4*len(replies))
	appendBatchCount(out, len(replies))
	for i := range replies {
		appendBatchItemHeader(out, wireHeader+len(replies[i].Data))
		appendReply(out, replies[i])
		replies[i].releaseBuf()
	}
	return Reply{Status: StatusOK, Data: out.Bytes(), Buf: out}
}

func (s *Server) reply(sealer CapSealer, m fbox.Received, rep Reply) {
	if m.Reply == 0 {
		rep.releaseBuf()
		return // no reply requested
	}
	rep = sealReplyCap(sealer, rep, m.From)
	var b *wire.Buf
	if rep.Buf != nil && replyDataIsBuf(rep) {
		// Zero-copy: the handler built its result in a pooled buffer
		// (NewReplyBuf reserves header headroom); the reply header is
		// prepended in place and the same backing array ships.
		b = rep.Buf
		putReplyHeader(b.Prepend(wireHeader), rep)
	} else {
		// Encode into a pooled frame buffer with headroom for the
		// F-box header, then retire the handler's scratch.
		b = wire.Get(wire.DefaultHeadroom, wireHeader+len(rep.Data))
		appendReply(b, rep)
		rep.releaseBuf()
	}
	// Best effort: an unreachable client retries with a new port. But a
	// reply the wire refuses to carry would be dropped on EVERY retry —
	// the client would re-execute the request until its deadline — so
	// that one is answered, for every handler, with a status that fits.
	size := b.Len()
	if err := s.fb.PutBuf(m.From, m.Reply, nil, 0, b); errors.Is(err, amnet.ErrTooLarge) {
		s.reply(nil, m, ErrReply(StatusServerError,
			fmt.Sprintf("reply of %d bytes exceeds the %d-byte network MTU", size, amnet.MTU)))
	}
}

// replyDataIsBuf reports whether rep.Data is exactly the live payload
// of rep.Buf — the precondition for shipping the handler's buffer
// directly (a sliced or swapped Data falls back to the copying path).
func replyDataIsBuf(rep Reply) bool {
	bb := rep.Buf.Bytes()
	if len(rep.Data) != len(bb) {
		return false
	}
	return len(bb) == 0 || &rep.Data[0] == &bb[0]
}

// SetAdmitGate installs (or, with nil, removes) a predicate consulted
// before every pool admission; a non-nil error sheds the request with
// StatusOverload carrying the error text. Unlike the handlers it may be
// installed or swapped after Start — replication attaches to a running
// kernel — and it must be cheap and non-blocking: it runs on the
// dispatch loop under the very overload it exists to manage.
func (s *Server) SetAdmitGate(g func() error) {
	s.admitGate.Store(g)
}

// Quiesce stops admitting requests and waits for every in-flight
// handler (and its replies) to finish, returning the resume function.
// While quiesced the server's state is still — the window in which a
// durable service snapshots itself for a checkpoint. Requests arriving
// meanwhile queue in the listener (and, past its queue, shed at the
// wire). A second Quiesce waits for the first one's resume. On a server
// whose dispatch loop is not running (never started, or closed) it
// returns at once.
func (s *Server) Quiesce() (resume func()) {
	s.mu.Lock()
	started := s.started
	s.mu.Unlock()
	if started {
		w := holdReq{make(chan struct{}), make(chan struct{})}
		select {
		case s.waits <- w:
			<-w.held
			return func() { close(w.release) }
		case <-s.done:
		}
	}
	return func() {}
}

// Drain flips the server into refuse-everything mode — every request
// arriving from now on is shed with StatusOverload, never executed —
// and waits, shedding all the while, for the requests already admitted
// to finish. The listener stays up (clients get a crisp refusal rather
// than silence) and the server's state stops changing, which is the
// moment a graceful shutdown wants for its final checkpoint. Drain does
// not reverse; the only exit is Close. Before Start it returns at once,
// and the server sheds from its first frame.
func (s *Server) Drain() {
	s.draining.Store(true)
	s.Quiesce()()
}

// Draining reports whether Drain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// QueueWaitEWMA returns the smoothed recent queue wait admission
// control compares deadline budgets against.
func (s *Server) QueueWaitEWMA() time.Duration {
	return time.Duration(s.ewmaWait.Load())
}

// Inflight returns the number of requests currently queued for or
// occupying pool workers (the queue-depth gauge).
func (s *Server) Inflight() int { return int(s.inflight.Load()) }

// Close stops the dispatch loop, cancels the context handed to every
// running handler, waits for accepted requests to finish, and retires
// the worker pool. It does not close the F-box (several servers may
// share one machine).
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	l, cancel := s.listener, s.cancel
	s.mu.Unlock()
	if l == nil {
		return nil // never started
	}
	l.Close()
	cancel()
	<-s.done // the loop has held the pool and closed work
	return nil
}
