package repl

import (
	"fmt"

	"amoeba/internal/wal"
)

// verdict is stream.offer's decision for one item.
type verdict int

const (
	// vApply: the item completes a record; apply it, then call applied.
	vApply verdict = iota
	// vSkip: stale or duplicate — already applied, ignore.
	vSkip
	// vWait: a fragment was buffered; the record is not yet complete.
	vWait
	// vGap: the item is ahead of the stream, or numbered in a term the
	// stream has no base for — records were lost in transit; refuse the
	// frame, so the shipper marks the peer lost and re-bases it.
	vGap
)

// stream is the receiver's sequencing core, kept free of I/O so the
// fuzz harness can drive it directly with adversarial inputs. It
// enforces the replication stream's safety rules:
//
//   - nothing applies before a base (rebase) checkpoint arrives, and a
//     record applies only in the term of the base it is numbered from
//     (one from a newer term, whose base never arrived, is a gap);
//   - each record applies exactly once, in sequence order — stale and
//     duplicate items (network duplicates, RPC retries) are skipped,
//     future items (a gap) are rejected;
//   - fragments reassemble strictly in order, and a duplicate of the
//     frame that is mid-assembly re-offers its fragments harmlessly;
//   - a base OLDER than the stream (Pos.Less: a delayed base frame
//     redelivered by the network, or one from a superseded term) is
//     skipped; a base at a newer term always applies, however low its
//     sequence — the new primary numbers its own log.
//
// offer never mutates the applied horizon; the caller advances it with
// applied() only after the record really was applied, so an apply
// failure leaves the stream consistent for the shipper's retry.
type stream struct {
	based bool
	next  Pos // term of the applied base ∥ next sequence to apply in it
	part  *partial
}

// partial is a record mid-reassembly.
type partial struct {
	at         Pos
	checkpoint bool
	rebase     bool
	total      uint32
	buf        []byte
}

// pos is the acknowledged position: the base's term and the high-water
// sequence in it (zero before the base).
func (st *stream) pos() Pos {
	if !st.based || st.next.Seq == 0 {
		return Pos{Term: st.next.Term}
	}
	return Pos{Term: st.next.Term, Seq: st.next.Seq - 1}
}

// ack is the position a frame's reply carries: pos, except while a base
// is mid-assembly. Nothing of that base is durable yet, so pos is still
// the old base's — but the sender reads the ack's term as "this receiver
// is on my stream", and a receiver buffering its base IS: the ack names
// the base's term, with nothing (Seq 0) acknowledged in it. Elections
// read pos, never ack: a buffered base is no claim to hold it.
func (st *stream) ack() Pos {
	if p := st.part; p != nil && p.rebase {
		return Pos{Term: p.at.Term}
	}
	return st.pos()
}

// reset drops any partial reassembly (after a failed apply, so the
// shipper's retry rebuilds the record from its first fragment).
func (st *stream) reset() { st.part = nil }

// offer examines one decoded item of a frame sent at term and says what
// to do with it. When it returns vApply, rec is the complete record; the
// caller applies it and then calls applied(rec, rebase, term).
func (st *stream) offer(it Item, rebase bool, term uint64) (v verdict, rec wal.Record, err error) {
	at := Pos{Term: term, Seq: it.Seq}
	if rebase {
		if !it.Checkpoint {
			return 0, rec, fmt.Errorf("repl: rebase item %d is not a checkpoint", it.Seq)
		}
		// A base older than the stream must not rewind state that newer
		// records already moved.
		if st.based && at.Less(st.next) {
			return vSkip, rec, nil
		}
		return st.assemble(it, true, at)
	}
	if !st.based {
		return vGap, rec, nil
	}
	switch {
	case at.Less(st.next):
		return vSkip, rec, nil
	case st.next.Less(at):
		return vGap, rec, nil
	}
	return st.assemble(it, false, at)
}

// assemble routes an in-sequence item through fragment reassembly.
func (st *stream) assemble(it Item, rebase bool, at Pos) (verdict, wal.Record, error) {
	whole := it.Off == 0 && uint32(len(it.Frag)) == it.Total
	if whole {
		st.part = nil
		return vApply, wal.Record{Seq: it.Seq, Checkpoint: it.Checkpoint, Data: it.Frag}, nil
	}
	p := st.part
	if p == nil || p.at != at || p.rebase != rebase {
		if it.Off != 0 {
			return vGap, wal.Record{}, nil // lost the head of this record
		}
		st.part = &partial{
			at:         at,
			checkpoint: it.Checkpoint,
			rebase:     rebase,
			total:      it.Total,
			buf:        append(make([]byte, 0, it.Total), it.Frag...),
		}
		return st.finish()
	}
	if p.checkpoint != it.Checkpoint || p.total != it.Total {
		return 0, wal.Record{}, fmt.Errorf("repl: record %d fragments disagree on shape", it.Seq)
	}
	filled := uint32(len(p.buf))
	switch {
	case it.Off+uint32(len(it.Frag)) <= filled:
		return vSkip, wal.Record{}, nil // duplicate fragment (RPC retry)
	case it.Off == filled:
		p.buf = append(p.buf, it.Frag...)
		return st.finish()
	default:
		return vGap, wal.Record{}, nil // missing bytes between filled and Off
	}
}

// finish checks whether the partial under assembly is complete.
func (st *stream) finish() (verdict, wal.Record, error) {
	p := st.part
	if uint32(len(p.buf)) > p.total {
		st.part = nil
		return 0, wal.Record{}, fmt.Errorf("repl: record %d overflows its declared size", p.at.Seq)
	}
	if uint32(len(p.buf)) < p.total {
		return vWait, wal.Record{}, nil
	}
	st.part = nil
	return vApply, wal.Record{Seq: p.at.Seq, Checkpoint: p.checkpoint, Data: p.buf}, nil
}

// applied advances the stream past a successfully applied record; a
// base also moves it into the term it was sent at.
func (st *stream) applied(rec wal.Record, rebase bool, term uint64) {
	if rebase {
		st.based = true
		st.next.Term = term
	}
	st.next.Seq = rec.Seq + 1
	st.part = nil
}
