package repl

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"amoeba/internal/rpc"
)

// Lease errors, surfaced through the kernel's replica fence. The
// transient one (a lapsed lease, which the next heartbeat round may
// renew) maps to rpc.StatusOverload — the client backs off and retries
// in place. The permanent ones (sealed, deposed, self-demoted: this
// incarnation will never serve again) wrap rpc.ErrStaleAuthority so
// the fence surfaces them as rpc.StatusStale — the client evicts its
// cached binding and re-LOCATEs the successor in one round trip
// instead of grinding through a backoff ladder against a corpse.
var (
	// ErrLeaseLapsed means a majority of the group has stopped granting
	// renewals: the primary no longer knows it is the primary, so it
	// must not acknowledge durable operations.
	ErrLeaseLapsed = errors.New("repl: serving lease lapsed (no majority of grants)")
	// ErrSealed means a committed batch failed to reach a majority of
	// the group: acknowledging it — or anything after it — could be
	// contradicted by an election among the majority that never saw it.
	ErrSealed = fmt.Errorf("repl: group sealed (batch missed majority): %w", rpc.ErrStaleAuthority)
	// ErrDeposed means a peer has seen a higher term: an election has
	// already replaced this primary.
	ErrDeposed = fmt.Errorf("repl: deposed (newer term observed): %w", rpc.ErrStaleAuthority)
	// ErrSelfDemoted means the primary's own WAL wedged: it can no
	// longer make anything durable, so it has renounced the leadership
	// it could only betray. Shipping and heartbeats stop deliberately —
	// to the group's failure detectors a dead disk is a dead machine.
	ErrSelfDemoted = fmt.Errorf("repl: self-demoted (local WAL wedged): %w", rpc.ErrStaleAuthority)
)

// Detector is a standby's failure detector: it watches its receiver's
// Silence and fires onExpire exactly once when the primary's heartbeats
// have been silent for longer than the expiry gap. The gap must exceed
// the primary's lease term by the cluster's assumed clock skew: the
// primary measures its lease on its own clock from frame SEND time and
// the standby measures silence on its own clock from frame RECEIVE
// time, so with clocks within the skew bound the old primary stops
// acknowledging strictly before any standby starts an election — the
// split-brain guard is time plus quorum, not an operator's memory of
// who was promoted.
type Detector struct {
	r        *Receiver
	gap      time.Duration
	onExpire func()

	fired atomic.Bool
	once  sync.Once
	stop  chan struct{}
	done  chan struct{}
}

// NewDetector builds (but does not start) a detector over standby
// receiver r. onExpire runs at most once, on the detector's own
// goroutine.
func NewDetector(r *Receiver, gap time.Duration, onExpire func()) *Detector {
	return &Detector{
		r:        r,
		gap:      gap,
		onExpire: onExpire,
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
}

// Start begins watching. The first check comes one full gap after
// Start, whatever the silence then: a detector re-armed after a refused
// election must give the primary a whole gap to be heard again, not
// fire at once on a silence that predates it. After that one timer is
// re-armed for the first instant past the gap, given the silence each
// check finds, so the detector fires the moment silence passes the gap
// and never while it is at or under it; under steady contact it wakes
// about once a gap. The re-arm is never zero: on a clock that can read
// the same instant twice, a zero re-arm at silence equal to the gap
// would wake the detector at that instant for ever.
func (d *Detector) Start() {
	go func() {
		defer close(d.done)
		t := d.r.srv.Clock().NewTimer(d.gap)
		defer t.Stop()
		for {
			select {
			case <-t.C():
				s := d.r.Silence()
				if s > d.gap {
					d.fired.Store(true)
					d.onExpire()
					return
				}
				t.Reset(d.gap - s + 1)
			case <-d.stop:
				return
			}
		}
	}()
}

// Stop cancels the watch (idempotent; safe against a concurrent fire —
// onExpire may still run once if it was already in flight).
func (d *Detector) Stop() {
	d.once.Do(func() { close(d.stop) })
	<-d.done
}

// Fired reports whether the detector has fired.
func (d *Detector) Fired() bool { return d.fired.Load() }
