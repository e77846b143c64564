package rpc

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"amoeba/internal/amnet"
	"amoeba/internal/cap"
	"amoeba/internal/crypto"
	"amoeba/internal/fbox"
	"amoeba/internal/locate"
	"amoeba/internal/wire"
)

// ErrTimeout is returned when a transaction exhausts its retries
// without a reply.
var ErrTimeout = errors.New("rpc: transaction timed out")

// NoRetries is the ClientConfig.Retries sentinel for "no retries at
// all": a zero value means "use the default" (2), so configurations
// that genuinely want a single attempt say Retries: NoRetries.
// Per-call, WithRetries(0) expresses the same thing exactly.
const NoRetries = -1

// ClientConfig tunes a Client. The zero value gets sensible defaults
// (see the package documentation for the full default table).
type ClientConfig struct {
	// Timeout bounds each attempt's wait for a reply (default 1s).
	Timeout time.Duration
	// Retries is how many additional attempts follow a timeout
	// (default 2; NoRetries for none). Each retry re-locates the
	// destination port, so a migrated or restarted server is found
	// again.
	Retries int
	// RetryBackoff is an optional pause inserted before each retry
	// (default 0). The pause is cut short if the call's context is
	// cancelled.
	RetryBackoff time.Duration
	// Source supplies reply-port randomness (default crypto/rand).
	Source crypto.Source
	// Sealer, if set, encrypts the capability in every request header
	// under the §2.4 key matrix (and decrypts capabilities in replies).
	// The server must share the matrix (Server.SetSealer).
	Sealer CapSealer
}

func (c ClientConfig) withDefaults() ClientConfig {
	if c.Timeout <= 0 {
		c.Timeout = time.Second
	}
	switch {
	case c.Retries < 0:
		// NoRetries (or any negative): exactly one attempt.
		c.Retries = 0
	case c.Retries == 0:
		c.Retries = 2
	}
	if c.RetryBackoff < 0 {
		c.RetryBackoff = 0
	}
	if c.Source == nil {
		c.Source = crypto.SystemSource()
	}
	return c
}

// callOptions is the per-transaction view of the configuration after
// CallOptions are applied.
type callOptions struct {
	timeout  time.Duration
	retries  int
	backoff  time.Duration
	sig      cap.Port
	rawStale bool
}

// CallOption tunes one transaction, overriding the client-wide
// configuration for that call only.
type CallOption func(*callOptions)

// WithTimeout bounds each attempt's wait for a reply on this call.
func WithTimeout(d time.Duration) CallOption {
	return func(o *callOptions) {
		if d > 0 {
			o.timeout = d
		}
	}
}

// WithRetries sets how many additional attempts follow a timeout on
// this call. WithRetries(0) means exactly one attempt — unlike the
// zero value of ClientConfig.Retries, it is honoured literally.
func WithRetries(n int) CallOption {
	return func(o *callOptions) {
		if n < 0 {
			n = 0
		}
		o.retries = n
	}
}

// WithSigner signs the transaction: the signer's secret rides in the
// message header and is transformed to F(S) by the F-box (§2.2).
func WithSigner(s fbox.Signer) CallOption {
	return func(o *callOptions) { o.sig = s.Secret() }
}

// WithRawStale disables the client's automatic StatusStale failover
// (evict the cached route and retry elsewhere) for this call: the
// stale reply is handed back as-is. Protocols that USE StatusStale as
// a first-class answer — the replication stream, where a stale ack is
// how a deposed shipper learns about the new term — must see it raw,
// not have the transport chase a successor on their behalf.
func WithRawStale() CallOption {
	return func(o *callOptions) { o.rawStale = true }
}

// Client performs blocking transactions through an F-box. It is safe
// for concurrent use; each transaction has its own one-shot reply port.
type Client struct {
	fb  *fbox.FBox
	res *locate.Resolver
	cfg ClientConfig
	// reqID mints wire request identifiers: seeded with process
	// randomness in the high bits so IDs from different client
	// processes don't collide in a merged access log, incremented per
	// transaction.
	reqID atomic.Uint64
}

// NewClient builds a client over fb, resolving ports with res.
func NewClient(fb *fbox.FBox, res *locate.Resolver, cfg ClientConfig) *Client {
	c := &Client{fb: fb, res: res, cfg: cfg.withDefaults()}
	c.reqID.Store(crypto.Rand48(c.cfg.Source) << 16)
	return c
}

// reqIDCtxKey carries a request ID through a handler's context so
// nested RPC reuses the originating request's identifier.
type reqIDCtxKey struct{}

// ContextWithRequestID tags ctx with a wire request ID. The rpc server
// does this for every budgeted request it dispatches; clients inside
// handlers then mint nothing and the whole call tree shares one ID.
func ContextWithRequestID(ctx context.Context, id uint64) context.Context {
	return context.WithValue(ctx, reqIDCtxKey{}, id)
}

// RequestIDFromContext returns the request ID riding ctx (0 if none).
func RequestIDFromContext(ctx context.Context) uint64 {
	id, _ := ctx.Value(reqIDCtxKey{}).(uint64)
	return id
}

// requestID picks the wire ID for a transaction: the explicit one if
// the caller set it, the originating request's if we are inside a
// handler, a freshly minted one otherwise.
func (c *Client) requestID(ctx context.Context, explicit uint64) uint64 {
	if explicit != 0 {
		return explicit
	}
	if id := RequestIDFromContext(ctx); id != 0 {
		return id
	}
	return c.reqID.Add(1)
}

// Resolver exposes the client's locate cache (for seeding and stats).
func (c *Client) Resolver() *locate.Resolver { return c.res }

// options applies the per-call options over the client defaults.
func (c *Client) options(opts []CallOption) callOptions {
	o := callOptions{
		timeout: c.cfg.Timeout,
		retries: c.cfg.Retries,
		backoff: c.cfg.RetryBackoff,
	}
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

// Trans performs one blocking transaction: locate the server machine,
// PUT the request at the destination port with a fresh reply port, and
// wait for the reply. On timeout the locate cache entry is invalidated
// and the transaction retried.
//
// The context governs the whole transaction: cancellation or deadline
// expiry aborts the locate, the reply wait and any retry backoff,
// returning ctx.Err(). When the context carries a deadline, the
// remaining budget also rides in the request header so servers that
// issue nested RPC inherit it (see Request.Budget).
func (c *Client) Trans(ctx context.Context, dest cap.Port, req Request, opts ...CallOption) (Reply, error) {
	rep, _, err := c.transact(ctx, dest, opts, routeOf(dest, req.Cap), func(machine amnet.MachineID) (*wire.Buf, error) {
		return c.encodeRequest(ctx, req, machine, nil)
	})
	return rep, err
}

// route is the shard-routing key of a transaction: the object number
// the request names, when it names one on the destination port. The
// resolver routes (port, object) to the object's home shard; an
// objectless request (object creation, echo) is spread round-robin.
type route struct {
	obj    uint32
	hasObj bool
}

// routeOf derives the routing key from the request's capability.
func routeOf(dest cap.Port, c0 cap.Capability) route {
	if c0 != cap.Nil && c0.Server == dest {
		return route{obj: c0.Object, hasObj: true}
	}
	return route{}
}

// encodeRequest seals and encodes a request into a pooled buffer with
// headroom for the layers below. The request data is req.Data followed
// by parts, appended straight into the buffer.
func (c *Client) encodeRequest(ctx context.Context, req Request, machine amnet.MachineID, parts [][]byte) (*wire.Buf, error) {
	sealed, err := sealRequestCap(c.cfg.Sealer, req, machine)
	if err != nil {
		return nil, fmt.Errorf("rpc: sealing capability: %w", err)
	}
	sealed.Budget = remainingBudget(ctx)
	sealed.ID = c.requestID(ctx, req.ID)
	size := reqHeader + len(sealed.Data)
	for _, p := range parts {
		size += len(p)
	}
	b := wire.Get(wire.DefaultHeadroom, size)
	appendRequest(b, sealed, parts...)
	return b, nil
}

// transact is the engine under Trans and Batch: locate the server
// machine, build the payload for it (sealing needs the destination
// machine, so the payload is rebuilt per attempt), PUT, await the
// reply, retry on timeout. It returns the machine that answered so
// callers can open per-item sealed capabilities.
func (c *Client) transact(ctx context.Context, dest cap.Port, opts []CallOption, rt route, build func(amnet.MachineID) (*wire.Buf, error)) (Reply, amnet.MachineID, error) {
	o := c.options(opts)
	var lastErr error
	// backoffNext marks retries that genuinely wait something out — a
	// timeout, a no-route, an unanswered LOCATE — as the only ones that
	// sleep RetryBackoff before the next attempt. StatusStale and
	// StatusWrongShard retries re-route immediately (their "no backoff"
	// promise used to be broken by an unconditional top-of-loop sleep),
	// and StatusOverload paces itself with overloadBackoff below.
	backoffNext := false
	// locRetries budgets the extra LOCATE rounds after ErrNotFound. One
	// per authority: a StatusStale eviction re-arms it, so a broadcast
	// burned on the old topology (say, a WrongShard refresh landing
	// mid-election) cannot starve the re-locate the NEW primary needs.
	locRetries := 1
	for attempt := 0; attempt <= o.retries; attempt++ {
		if err := ctx.Err(); err != nil {
			if lastErr != nil {
				return Reply{}, 0, fmt.Errorf("rpc: %v after %d attempts: %w (last error: %v)", dest, attempt, err, lastErr)
			}
			return Reply{}, 0, fmt.Errorf("rpc: %v: %w", dest, err)
		}
		if backoffNext && o.backoff > 0 {
			if err := sleepCtx(ctx, o.backoff); err != nil {
				return Reply{}, 0, fmt.Errorf("rpc: %v: %w", dest, err)
			}
		}
		backoffNext = false
		machine, err := c.res.LookupObject(ctx, dest, rt.obj, rt.hasObj)
		if err != nil {
			lastErr = fmt.Errorf("rpc: locating %v: %w", dest, err)
			if errors.Is(err, locate.ErrNotFound) && locRetries > 0 && attempt < o.retries {
				// Nobody answered the broadcast — the failover window
				// between a crash and its standby's promotion looks
				// exactly like this. One extra round of LOCATE attempts
				// (the resolver already retried internally) often lands
				// after the promotion; more per authority would multiply
				// the locate budget by the retry count for genuinely-gone
				// servers. Promotions take real time, so this retry DOES
				// back off.
				locRetries--
				backoffNext = true
				continue
			}
			return Reply{}, 0, lastErr
		}
		payload, err := build(machine)
		if err != nil {
			return Reply{}, 0, err
		}
		rep, err := c.attempt(ctx, machine, dest, payload, o)
		if err == nil {
			if rep.Status == StatusStale && !o.rawStale && attempt < o.retries {
				// The answering machine's authority is gone for good — a
				// fenced or deposed old primary after a failover. Unlike
				// overload there is nothing to wait out, so skip the
				// backoff: evict the cached route and re-LOCATE at once.
				// By now the successor answers the broadcast, so the
				// client fails over in one extra round trip instead of
				// camping on the corpse until its deadline lapses. The
				// authority changed, so the locate budget re-arms: any
				// broadcast burned before this reply went to a topology
				// that no longer exists.
				c.res.Evict(dest, machine)
				if locRetries < 1 {
					locRetries = 1
				}
				lastErr = &StatusError{Status: StatusStale, Detail: string(rep.Data)}
				continue
			}
			if rep.Status == StatusWrongShard {
				// We routed on a stale shard map — the object migrated,
				// or the map changed under us. Nothing was executed.
				// The reply carries the server's current generation;
				// record both sides' generations so an exhausted call
				// reports how far behind the client was, not a blind
				// status.
				srvGen := WrongShardGen(rep.Data)
				cliGen := c.res.MapGen(dest)
				lastErr = &StatusError{
					Status: StatusWrongShard,
					Detail: fmt.Sprintf("server map generation %d, client had %d at send", srvGen, cliGen),
				}
				if attempt >= o.retries {
					break
				}
				// Refresh the cached map (no broadcast) and re-route; no
				// backoff, the next attempt routes on a map at least
				// that new.
				c.res.Refresh(dest, srvGen)
				continue
			}
			if rep.Status != StatusOverload || attempt >= o.retries {
				return rep, machine, nil
			}
			// The server shed the request before executing it, so a
			// retry is always safe — but only worth the wire time if
			// the caller's deadline can still be met. When the budget
			// is nearly gone, hand the shed reply back instead of
			// burning the last of the deadline on backoff.
			d := overloadBackoff(o.backoff, attempt)
			if dl, ok := ctx.Deadline(); ok {
				left := time.Until(dl)
				if left <= minOverloadRetryBudget {
					return rep, machine, nil
				}
				if d > left/4 {
					d = left / 4
				}
			}
			lastErr = &StatusError{Status: StatusOverload, Detail: string(rep.Data)}
			if d > 0 {
				if serr := sleepCtx(ctx, d); serr != nil {
					return rep, machine, nil // deadline hit mid-backoff
				}
			}
			continue
		}
		lastErr = err
		if errors.Is(err, ErrTimeout) || errors.Is(err, amnet.ErrNoRoute) {
			// The server may have moved or restarted: forget the cached
			// location and re-broadcast on the next attempt. A crashed
			// machine shows up either as silence (timeout) or, on the
			// simulated LAN, as no-route — both mean the same thing.
			// Evict, not Invalidate: only the machine THIS attempt
			// failed against is suspect; an entry a concurrent lookup
			// refreshed to the server's new home stays. This is the
			// wait-something-out case RetryBackoff exists for.
			c.res.Evict(dest, machine)
			backoffNext = true
			continue
		}
		return Reply{}, 0, err
	}
	return Reply{}, 0, fmt.Errorf("rpc: %v after %d attempts: %w", dest, o.retries+1, lastErr)
}

// Batch performs several sub-requests in ONE transaction frame: the
// requests are packed into an OpBatch message, the server fans them
// out across its worker pool, and the replies come back together, in
// order. A multi-object operation — the flat file server fetching
// every block of a file — costs one network round trip instead of N.
//
// The whole frame shares one reply port, one timeout and one retry
// budget: a retry re-sends (and the server re-executes) every
// sub-request, so batches of non-idempotent operations carry the same
// at-least-once caveat as single transactions. Per-sub-request
// failures are reported in each Reply.Status; Batch itself returns an
// error only for transport-level failures or a rejected batch frame.
//
// The packed payload must fit the network MTU; callers splitting bulk
// work should size against MaxBatchBytes and MaxBatchItems.
func (c *Client) Batch(ctx context.Context, dest cap.Port, reqs []Request, opts ...CallOption) ([]Reply, error) {
	if len(reqs) == 0 {
		return nil, nil
	}
	if len(reqs) > MaxBatchItems {
		return nil, fmt.Errorf("rpc: batch of %d requests exceeds %d", len(reqs), MaxBatchItems)
	}
	// A batch routes on its first item's capability: mixed-shard
	// batches are a documented non-goal (callers split per shard).
	rep, machine, err := c.transact(ctx, dest, opts, routeOf(dest, reqs[0].Cap), func(machine amnet.MachineID) (*wire.Buf, error) {
		budget := remainingBudget(ctx)
		// One wire ID for the frame and every item in it: the batch is
		// one logical request as far as correlation goes.
		id := c.requestID(ctx, 0)
		size := 0
		for _, r := range reqs {
			size += reqHeader + len(r.Data)
		}
		if size > MaxBatchBytes {
			return nil, fmt.Errorf("rpc: batch payload %d bytes exceeds %d", size, MaxBatchBytes)
		}
		// The whole frame — outer request, item count, every sealed
		// sub-request — is encoded into one pooled buffer; no
		// intermediate per-item slices.
		dataLen := 2 + size + 4*len(reqs)
		b := wire.Get(wire.DefaultHeadroom, reqHeader+dataLen)
		appendRequestHeader(b, OpBatch, cap.Nil, budget, id, dataLen)
		appendBatchCount(b, len(reqs))
		for i, r := range reqs {
			sealed, err := sealRequestCap(c.cfg.Sealer, r, machine)
			if err != nil {
				b.Release()
				return nil, fmt.Errorf("rpc: sealing batch item %d: %w", i, err)
			}
			sealed.Budget = budget
			sealed.ID = id
			appendBatchItemHeader(b, reqHeader+len(sealed.Data))
			appendRequest(b, sealed)
		}
		return b, nil
	})
	if err != nil {
		return nil, err
	}
	if rep.Status != StatusOK {
		return nil, &StatusError{Status: rep.Status, Detail: string(rep.Data)}
	}
	raw, err := DecodeBatchItems(rep.Data)
	if err != nil {
		return nil, err
	}
	if len(raw) != len(reqs) {
		return nil, fmt.Errorf("%w: batch reply has %d items, want %d", ErrBadMessage, len(raw), len(reqs))
	}
	out := make([]Reply, len(raw))
	for i, b := range raw {
		sub, err := DecodeReply(b)
		if err != nil {
			return nil, fmt.Errorf("rpc: batch reply item %d: %w", i, err)
		}
		sub, err = openReplyCap(c.cfg.Sealer, sub, machine)
		if err != nil {
			return nil, fmt.Errorf("rpc: opening batch reply capability %d: %w", i, err)
		}
		out[i] = sub
	}
	return out, nil
}

// minOverloadRetryBudget is the deadline budget below which a shed
// reply is returned rather than retried: too little time remains for a
// retry to plausibly queue, execute and reply.
const minOverloadRetryBudget = 2 * time.Millisecond

// overloadBackoff is the pause before retrying a shed request:
// exponential from the configured backoff (or a small default), capped
// so a burst of sheds converges on a spread-out retry pattern instead
// of a synchronized stampede back into the queue.
func overloadBackoff(base time.Duration, attempt int) time.Duration {
	if base <= 0 {
		base = 2 * time.Millisecond
	}
	d := base << uint(attempt)
	if d > 50*time.Millisecond {
		d = 50 * time.Millisecond
	}
	return d
}

// remainingBudget converts a context deadline into the wire budget: the
// time left until the deadline, or 0 when the context has none.
func remainingBudget(ctx context.Context) time.Duration {
	dl, ok := ctx.Deadline()
	if !ok {
		return 0
	}
	if left := time.Until(dl); left > 0 {
		return left
	}
	return time.Nanosecond // expired: smallest non-zero budget
}

// sleepCtx waits d, returning early with ctx.Err() on cancellation.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// timerPool recycles attempt timers: with Go's post-1.23 timer
// semantics Reset after Stop is race-free, so one timer serves many
// transactions instead of three allocations per attempt.
var timerPool sync.Pool

func startTimer(d time.Duration) *time.Timer {
	if t, ok := timerPool.Get().(*time.Timer); ok {
		t.Reset(d)
		return t
	}
	return time.NewTimer(d)
}

func stopTimer(t *time.Timer) {
	t.Stop()
	timerPool.Put(t)
}

// attempt sends one request and waits one timeout for the reply. It
// owns payload: the buffer is consumed by the PUT (or released on the
// paths that never reach it).
func (c *Client) attempt(ctx context.Context, machine amnet.MachineID, dest cap.Port, payload *wire.Buf, o callOptions) (Reply, error) {
	// Fresh one-shot reply port per attempt: stray replies from a
	// previous timed-out attempt cannot be confused with this one.
	gPrime := cap.Port(crypto.Rand48(c.cfg.Source))
	l, err := c.fb.GetReply(gPrime)
	if err != nil {
		payload.Release()
		return Reply{}, fmt.Errorf("rpc: reply port: %w", err)
	}
	defer l.Close()

	if err := c.fb.PutBuf(machine, dest, l, o.sig, payload); err != nil {
		return Reply{}, fmt.Errorf("rpc: put: %w", err)
	}
	timer := startTimer(o.timeout)
	defer stopTimer(timer)
	select {
	case m, ok := <-l.Recv():
		if !ok {
			return Reply{}, fbox.ErrClosed
		}
		rep, err := DecodeReply(m.Payload)
		if err != nil {
			m.Release()
			return Reply{}, err
		}
		rep, err = openReplyCap(c.cfg.Sealer, rep, m.From)
		if err != nil {
			m.Release()
			return Reply{}, fmt.Errorf("rpc: opening reply capability: %w", err)
		}
		// Copy the results out of the pooled frame before releasing
		// it: the caller owns rep.Data outright.
		rep.Data = append([]byte(nil), rep.Data...)
		m.Release()
		return rep, nil
	case <-ctx.Done():
		return Reply{}, fmt.Errorf("rpc: %v: %w", dest, ctx.Err())
	case <-timer.C:
		return Reply{}, ErrTimeout
	}
}

// Call is the convenience most callers want: it sends op on the
// object named by capability c0 (routing to c0.Server) and converts
// non-OK statuses into *StatusError values.
func (c *Client) Call(ctx context.Context, c0 cap.Capability, op uint16, data []byte, opts ...CallOption) (Reply, error) {
	rep, err := c.Trans(ctx, c0.Server, Request{Cap: c0, Op: op, Data: data}, opts...)
	if err != nil {
		return Reply{}, err
	}
	if rep.Status != StatusOK {
		return rep, &StatusError{Status: rep.Status, Detail: string(rep.Data)}
	}
	return rep, nil
}

// CallParts is Call with a vectored payload: the request data is the
// concatenation of parts, appended piece by piece into the pooled wire
// buffer. Typed service clients use it to lay a small parameter header
// (a stack array) in front of bulk data without first gluing them into
// a fresh intermediate slice.
func (c *Client) CallParts(ctx context.Context, c0 cap.Capability, op uint16, parts ...[]byte) (Reply, error) {
	req := Request{Cap: c0, Op: op}
	rep, _, err := c.transact(ctx, c0.Server, nil, routeOf(c0.Server, c0), func(machine amnet.MachineID) (*wire.Buf, error) {
		return c.encodeRequest(ctx, req, machine, parts)
	})
	if err != nil {
		return Reply{}, err
	}
	if rep.Status != StatusOK {
		return rep, &StatusError{Status: rep.Status, Detail: string(rep.Data)}
	}
	return rep, nil
}

// Restrict asks the server to fabricate a weaker capability (OpRestrict).
func (c *Client) Restrict(ctx context.Context, c0 cap.Capability, mask cap.Rights, opts ...CallOption) (cap.Capability, error) {
	rep, err := c.Call(ctx, c0, OpRestrict, []byte{byte(mask)}, opts...)
	if err != nil {
		return cap.Nil, err
	}
	return rep.Cap, nil
}

// Revoke asks the server to re-key the object (OpRevoke), invalidating
// every outstanding capability; the fresh owner capability is returned.
func (c *Client) Revoke(ctx context.Context, c0 cap.Capability, opts ...CallOption) (cap.Capability, error) {
	rep, err := c.Call(ctx, c0, OpRevoke, nil, opts...)
	if err != nil {
		return cap.Nil, err
	}
	return rep.Cap, nil
}

// Validate asks the server which rights the capability conveys
// (OpValidate).
func (c *Client) Validate(ctx context.Context, c0 cap.Capability, opts ...CallOption) (cap.Rights, error) {
	rep, err := c.Call(ctx, c0, OpValidate, nil, opts...)
	if err != nil {
		return 0, err
	}
	if len(rep.Data) != 1 {
		return 0, fmt.Errorf("%w: validate reply %d bytes", ErrBadMessage, len(rep.Data))
	}
	return cap.Rights(rep.Data[0]), nil
}
