package repl

import (
	"testing"

	"amoeba/internal/wal"
)

// offerAll pushes records through a stream the way the receiver does,
// at term 0, returning the sequence numbers that were applied.
func offerAll(t *testing.T, st *stream, recs []wal.Record, rebase bool) (applied []uint64, gaps int) {
	t.Helper()
	return offerAt(t, st, recs, rebase, 0)
}

// offerAt is offerAll for a frame sent at the given term.
func offerAt(t *testing.T, st *stream, recs []wal.Record, rebase bool, at uint64) (applied []uint64, gaps int) {
	t.Helper()
	for _, f := range Encode(recs, rebase, at) {
		items, rb, term, err := Decode(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, it := range items {
			v, rec, err := st.offer(it, rb, term)
			if err != nil {
				t.Fatal(err)
			}
			switch v {
			case vApply:
				applied = append(applied, rec.Seq)
				st.applied(rec, rb, term)
			case vGap:
				gaps++
			}
		}
	}
	return applied, gaps
}

func rec(seq uint64) wal.Record { return wal.Record{Seq: seq, Data: []byte{byte(seq)}} }

func TestStreamOrderAndRebase(t *testing.T) {
	st := &stream{}
	// Nothing applies before a base.
	if _, gaps := offerAll(t, st, []wal.Record{rec(1)}, false); gaps != 1 {
		t.Fatal("un-based stream accepted a record")
	}
	base := []wal.Record{{Seq: 0, Checkpoint: true, Data: []byte("base")}}
	if applied, _ := offerAll(t, st, base, true); len(applied) != 1 {
		t.Fatal("base not applied")
	}
	applied, gaps := offerAll(t, st, []wal.Record{rec(1), rec(2), rec(3)}, false)
	if len(applied) != 3 || gaps != 0 {
		t.Fatalf("in-order stream: applied %v gaps %d", applied, gaps)
	}
	if st.pos() != (Pos{Seq: 3}) {
		t.Fatalf("position %+v, want seq 3 of term 0", st.pos())
	}

	// Duplicates (an RPC retry re-delivering the whole batch): skipped.
	applied, gaps = offerAll(t, st, []wal.Record{rec(2), rec(3)}, false)
	if len(applied) != 0 || gaps != 0 {
		t.Fatalf("duplicates: applied %v gaps %d", applied, gaps)
	}

	// A gap: rejected, high unmoved.
	if _, gaps = offerAll(t, st, []wal.Record{rec(7)}, false); gaps != 1 {
		t.Fatal("gap not rejected")
	}
	if st.pos() != (Pos{Seq: 3}) {
		t.Fatalf("gap moved the position to %+v", st.pos())
	}

	// A delayed duplicate of the base — same term, older sequence — must
	// not rewind the stream.
	if applied, _ = offerAll(t, st, base, true); len(applied) != 0 {
		t.Fatal("stale rebase rewound the stream")
	}
	if !st.based || st.next != (Pos{Seq: 4}) {
		t.Fatalf("stream state disturbed: based=%v next=%+v", st.based, st.next)
	}

	// A NEWER rebase (a later base snapshot) resets forward.
	if applied, _ = offerAll(t, st, []wal.Record{{Seq: 9, Checkpoint: true, Data: []byte("b2")}}, true); len(applied) != 1 {
		t.Fatal("forward rebase rejected")
	}
	if st.pos() != (Pos{Seq: 9}) {
		t.Fatalf("position %+v after rebase, want seq 9", st.pos())
	}
}

// TestRebaseAcrossTermsRewinds: every standby numbers its own log, so a
// newly elected primary's base carries ITS sequence, which is usually
// lower than what its siblings reached in the old primary's numbering.
// The base must apply, the numbering must restart there, and nothing
// numbered in the old term may apply afterwards. Comparing sequences
// alone skipped this base and every record below the old high water
// while acknowledging that high water: ROADMAP item 1's acked-op loss.
func TestRebaseAcrossTermsRewinds(t *testing.T) {
	st := &stream{}
	offerAt(t, st, []wal.Record{{Seq: 349, Checkpoint: true, Data: []byte("old")}}, true, 1)
	if st.pos() != (Pos{Term: 1, Seq: 349}) {
		t.Fatalf("term-1 base left the stream at %+v", st.pos())
	}
	// The successor at term 2 was a re-attached standby: its log is at 120.
	if applied, _ := offerAt(t, st, []wal.Record{{Seq: 120, Checkpoint: true, Data: []byte("new")}}, true, 2); len(applied) != 1 {
		t.Fatal("a newer term's base with a lower sequence was skipped")
	}
	if st.pos() != (Pos{Term: 2, Seq: 120}) {
		t.Fatalf("position %+v after the term-2 base, want {2 120}", st.pos())
	}
	applied, gaps := offerAt(t, st, []wal.Record{rec(121), rec(122)}, false, 2)
	if len(applied) != 2 || gaps != 0 {
		t.Fatalf("records in the new numbering: applied %v gaps %d", applied, gaps)
	}
	// The deposed primary's stream is older by term, whatever its sequence:
	// its records are stale and its base must not take the stream back.
	if applied, gaps = offerAt(t, st, []wal.Record{rec(350)}, false, 1); len(applied) != 0 || gaps != 0 {
		t.Fatalf("a term-1 record reached a term-2 stream: applied %v gaps %d", applied, gaps)
	}
	if applied, _ = offerAt(t, st, []wal.Record{{Seq: 400, Checkpoint: true, Data: []byte("old")}}, true, 1); len(applied) != 0 {
		t.Fatal("an older term's base rewound the stream")
	}
	// And a term-3 record with no term-3 base is a gap, never an apply.
	if applied, gaps = offerAt(t, st, []wal.Record{rec(123)}, false, 3); len(applied) != 0 || gaps != 1 {
		t.Fatalf("a record from a term with no base: applied %v gaps %d", applied, gaps)
	}
	if st.pos() != (Pos{Term: 2, Seq: 122}) {
		t.Fatalf("position %+v, want {2 122}", st.pos())
	}
}

// TestPosOrdersTermFirst is the election's winner pick: a standby left
// on the old term's base at sequence 350 loses to one the new primary
// re-based at 120.
func TestPosOrdersTermFirst(t *testing.T) {
	stale, fresh := Pos{Term: 1, Seq: 350}, Pos{Term: 2, Seq: 120}
	if !stale.Less(fresh) || fresh.Less(stale) {
		t.Fatal("positions ordered by sequence across terms")
	}
	if !(Pos{Term: 2, Seq: 119}).Less(fresh) || fresh.Less(fresh) {
		t.Fatal("positions not ordered by sequence within a term")
	}
}

func TestStreamFragmentRetry(t *testing.T) {
	big := make([]byte, MaxShipBytes+100)
	frames := Encode([]wal.Record{{Seq: 5, Data: big}}, false, 0)
	if len(frames) != 2 {
		t.Fatalf("%d frames, want 2", len(frames))
	}
	items0, _, _, _ := Decode(frames[0])
	items1, _, _, _ := Decode(frames[1])

	st := &stream{based: true, next: Pos{Seq: 5}}
	if v, _, _ := st.offer(items0[0], false, 0); v != vWait {
		t.Fatalf("first fragment verdict %v", v)
	}
	// Duplicate of the first fragment (retry): harmless skip.
	if v, _, _ := st.offer(items0[0], false, 0); v != vSkip {
		t.Fatal("duplicate fragment not skipped")
	}
	// Continuation completes the record.
	v, rec, _ := st.offer(items1[0], false, 0)
	if v != vApply || len(rec.Data) != len(big) {
		t.Fatalf("continuation verdict %v", v)
	}
	st.applied(rec, false, 0)

	// A continuation fragment with no head (the head was lost): gap.
	st2 := &stream{based: true, next: Pos{Seq: 5}}
	if v, _, _ := st2.offer(items1[0], false, 0); v != vGap {
		t.Fatal("headless fragment accepted")
	}
	// After a reset (failed apply), the retry rebuilds from scratch.
	st3 := &stream{based: true, next: Pos{Seq: 5}}
	st3.offer(items0[0], false, 0)
	st3.reset()
	if v, _, _ := st3.offer(items1[0], false, 0); v != vGap {
		t.Fatal("post-reset continuation accepted without its head")
	}
	if v, _, _ := st3.offer(items0[0], false, 0); v != vWait {
		t.Fatal("post-reset head rejected")
	}
}

// TestStreamAckNamesBufferedBaseTerm: while a newer term's base is arriving in
// fragments the stream's durable position stays where it was (an
// election must not mistake a buffered base for a held one), but the ack
// names the new term with nothing acknowledged in it — the shipper's
// "this receiver took my base" check reads the ack of every frame, not
// just the last.
func TestStreamAckNamesBufferedBaseTerm(t *testing.T) {
	st := &stream{}
	offerAt(t, st, []wal.Record{{Seq: 349, Checkpoint: true, Data: []byte("old")}}, true, 1)
	frames := Encode([]wal.Record{{Seq: 120, Checkpoint: true, Data: make([]byte, MaxShipBytes+100)}}, true, 2)
	if len(frames) != 2 {
		t.Fatalf("%d frames, want 2", len(frames))
	}
	head, _, _, _ := Decode(frames[0])
	tail, _, _, _ := Decode(frames[1])
	if v, _, _ := st.offer(head[0], true, 2); v != vWait {
		t.Fatalf("base head verdict %v", v)
	}
	if st.pos() != (Pos{Term: 1, Seq: 349}) || st.ack() != (Pos{Term: 2}) {
		t.Fatalf("mid-base: pos %+v ack %+v, want {1 349} {2 0}", st.pos(), st.ack())
	}
	v, rec, _ := st.offer(tail[0], true, 2)
	if v != vApply {
		t.Fatalf("base tail verdict %v", v)
	}
	st.applied(rec, true, 2)
	if st.pos() != (Pos{Term: 2, Seq: 120}) || st.ack() != st.pos() {
		t.Fatalf("after the base: pos %+v ack %+v, want both {2 120}", st.pos(), st.ack())
	}
	// A failed apply drops the buffer, and the claim with it.
	fresh := &stream{}
	if v, _, _ := fresh.offer(head[0], true, 2); v != vWait || fresh.ack() != (Pos{Term: 2}) {
		t.Fatalf("fresh stream mid-base: verdict %v ack %+v", v, fresh.ack())
	}
	fresh.reset()
	if fresh.ack() != (Pos{}) {
		t.Fatalf("ack %+v outlived the dropped buffer", fresh.ack())
	}
}
