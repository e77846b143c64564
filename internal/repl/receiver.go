package repl

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"amoeba/internal/cap"
	"amoeba/internal/clock"
	"amoeba/internal/crypto"
	"amoeba/internal/fbox"
	"amoeba/internal/rpc"
	"amoeba/internal/svc"
	"amoeba/internal/wal"
)

// ReceiverStats counts replication traffic on the standby.
type ReceiverStats struct {
	Frames      uint64 // ship frames processed
	Applied     uint64 // records applied (incl. checkpoints)
	Skipped     uint64 // stale/duplicate items ignored
	Gaps        uint64 // frames rejected with a sequence gap
	Rebased     uint64 // base snapshots installed
	Checkpoints uint64 // in-stream checkpoints applied (standby log compactions)
	Pos         Pos    // durable position: the base's term, high water in it
	Based       bool
}

// Receiver is the standby half of the replication channel: an RPC
// server on the backup machine's own private port that appends shipped
// records to the standby kernel's log and applies them to its state.
// The standby kernel must be durable, Recovered, and NOT Started — its
// state belongs to the stream until promotion. Batches are serialized
// by a mutex, so the service's replay applier runs single-threaded,
// exactly as it does during crash recovery.
//
// An acknowledgement (the position in each reply) is sent only
// after the batch's records are durable on the standby's OWN log: a
// promoted backup that itself crashes still replays every record it
// ever acknowledged.
type Receiver struct {
	srv *rpc.Server
	k   *svc.Kernel

	// contact is when the last TERM-VALID ship frame arrived (a
	// clock.Mono reading of this machine's clock) — heartbeats
	// included, OpSeq probes excluded (a deposed primary's reprobes
	// must not suppress the failure detector). It is what the
	// standby's Detector watches.
	contact atomic.Int64

	mu    sync.Mutex
	st    stream
	term  uint64 // highest replication epoch seen; lower-term frames bounce
	dead  error  // a failed commit on the standby's own log is fatal
	stats ReceiverStats
}

// NewReceiver builds a receiver feeding the standby kernel k, which
// applies service records through the applier its service handed to
// svc.Kernel.Recover. Call Start to begin listening; the receiver's
// port (a fresh private one, NOT the service port) is what the primary
// ships to.
func NewReceiver(fb *fbox.FBox, src crypto.Source, k *svc.Kernel) *Receiver {
	r := &Receiver{k: k}
	r.srv = rpc.NewServer(fb, src)
	// Inline dispatch: the stream is serialized by r.mu anyway, so the
	// worker-pool handoff would buy nothing and cost two goroutine
	// switches on the path that gates the primary's client replies.
	r.srv.HandleInline(OpShip, r.handleShip)
	r.srv.HandleInline(OpSeq, r.handleSeq)
	return r
}

// Port returns the receiver's put-port (the shipper's destination).
func (r *Receiver) Port() cap.Port { return r.srv.PutPort() }

// Start begins receiving (advertises the private port for LOCATE).
// The contact clock starts now: a standby that never hears from its
// primary at all should still detect the silence, measured from its
// own birth rather than from a heartbeat that never came.
func (r *Receiver) Start() error {
	r.contact.Store(clock.Mono(r.srv.Clock()))
	return r.srv.Start()
}

// LastContact returns the arrival time of the last term-valid ship
// frame, on the standby machine's clock.
func (r *Receiver) LastContact() time.Time {
	return clock.MonoTime(r.contact.Load())
}

// Silence is how long the primary has been silent, measured on the
// standby machine's own clock: the failure detector's input.
func (r *Receiver) Silence() time.Duration {
	return time.Duration(clock.Mono(r.srv.Clock()) - r.contact.Load())
}

// Term returns the highest replication epoch this receiver has seen.
func (r *Receiver) Term() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.term
}

// Close stops the receiver. Promotion closes it before starting the
// service kernel, so a stale primary's ships bounce off a dead port
// instead of mutating a now-live service.
func (r *Receiver) Close() error { return r.srv.Close() }

// Pos returns the durable position acknowledged so far: the term of the
// base this standby's numbering started from, and the high water in it.
// An election picks its winner by Pos.Less over these.
func (r *Receiver) Pos() Pos {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.st.pos()
}

// Stats returns a snapshot of the counters.
func (r *Receiver) Stats() ReceiverStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.stats
	s.Pos = r.st.pos()
	s.Based = r.st.based
	return s
}

// conflict is the sequence-gap refusal: nothing was applied out of
// order, and the sender must re-base this receiver.
func conflict(at Pos) rpc.Reply {
	return rpc.Reply{Status: rpc.StatusConflict, Data: ackData(at)}
}

func (r *Receiver) handleShip(_ context.Context, _ rpc.Meta, req rpc.Request) rpc.Reply {
	items, rebase, term, err := Decode(req.Data)
	if err != nil {
		return rpc.ErrReply(rpc.StatusBadRequest, err.Error())
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.dead != nil {
		return rpc.ErrReplyFromErr(r.dead)
	}
	// Epoch fencing: a frame from a lower term is a deposed primary's
	// — its stream must not touch this standby's state (and must not
	// read as a sign of life), it must learn it has been superseded.
	if term < r.term {
		return rpc.Reply{Status: rpc.StatusStale, Data: ackData(Pos{Term: r.term})}
	}
	r.term = term
	r.contact.Store(clock.Mono(r.srv.Clock()))
	if len(items) == 0 {
		// Heartbeat: nothing to apply, just acknowledge (the ack is
		// the lease grant) with the durable position.
		r.stats.Frames++
		return rpc.OkReply(ackData(r.st.ack()))
	}
	r.stats.Frames++
	gap := false
	var last *wal.Ticket
	// abort resets the stream on a bad frame. Records the frame already
	// staged still need their waiter (see wal.Log.Append); the reply is
	// an error either way, so the wait's own error adds nothing.
	abort := func(rep rpc.Reply) rpc.Reply {
		_ = last.Wait()
		r.st.reset()
		return rep
	}
	for _, it := range items {
		v, rec, err := r.st.offer(it, rebase, term)
		if err != nil {
			return abort(rpc.ErrReply(rpc.StatusBadRequest, err.Error()))
		}
		switch v {
		case vSkip:
			r.stats.Skipped++
		case vWait:
			// fragment buffered
		case vGap:
			gap = true
		case vApply:
			t, err := r.k.ReplicaApply(rec)
			if t != nil {
				last = t
			}
			if err != nil {
				return abort(rpc.ErrReplyFromErr(err))
			}
			r.st.applied(rec, rebase, term)
			r.stats.Applied++
			switch {
			case rebase:
				r.stats.Rebased++
			case rec.Checkpoint:
				r.stats.Checkpoints++
			}
		}
		if gap {
			break
		}
	}
	// Durability before acknowledgement: the standby's own log must
	// cover every record in the frame before its sequence counts as
	// high water. One wait covers them all — the log commits in stage
	// order, so the LAST record's ticket implies the rest (a checkpoint
	// is durable on return and commits everything staged before it) —
	// and the wait leads the commit on this goroutine, so the ack (which
	// gates the primary's client reply) pays no scheduler hand-off. A failed
	// commit here is fatal: the stream has advanced past records the
	// standby's disk never took, so no later frame may be acknowledged
	// either — the shipper sees the persistent error and declares the
	// backup lost.
	if err := last.Wait(); err != nil {
		r.dead = fmt.Errorf("repl: standby log failed: %w", err)
		return rpc.ErrReplyFromErr(r.dead)
	}
	if gap {
		r.stats.Gaps++
		return conflict(r.st.pos())
	}
	return rpc.OkReply(ackData(r.st.ack()))
}

func (r *Receiver) handleSeq(_ context.Context, _ rpc.Meta, _ rpc.Request) rpc.Reply {
	r.mu.Lock()
	defer r.mu.Unlock()
	// A standby whose own log wedged answers probes with its death, not
	// its position: an OK here would invite the primary to re-base a
	// disk that takes nothing, and the ack quorum must not count us.
	if r.dead != nil {
		return rpc.ErrReplyFromErr(r.dead)
	}
	based := byte(0)
	if r.st.based {
		based = 1
	}
	return rpc.OkReply(append([]byte{based}, ackData(r.st.pos())...))
}
