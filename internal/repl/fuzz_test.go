package repl

import (
	"bytes"
	"testing"

	"amoeba/internal/wal"
)

// FuzzDecode: arbitrary bytes never panic the ship-frame decoder, and
// everything Encode produces round-trips exactly.
func FuzzDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00, 0x00, 0x00})
	f.Add([]byte{0x01, 0x00, 0x01, 0, 0, 0, 0, 0, 0, 0, 1, 2, 0, 0, 0, 4, 0, 0, 0, 0, 0, 0, 0, 4})
	for _, fr := range Encode([]wal.Record{
		{Seq: 1, Data: []byte("hello")},
		{Seq: 2, Checkpoint: true, Data: bytes.Repeat([]byte{7}, 300)},
	}, false, 3) {
		f.Add(fr)
	}
	f.Add(EncodeHeartbeat(9))
	f.Fuzz(func(t *testing.T, data []byte) {
		items, rebase, _, err := Decode(data)
		if err != nil {
			return
		}
		// A decodable frame must re-encode its whole records losslessly:
		// feed items through a permissive stream and re-frame the output.
		_ = rebase
		for _, it := range items {
			if uint32(len(it.Frag)) > it.Total || it.Off > it.Total {
				t.Fatalf("decoder let bad geometry through: %+v", it)
			}
		}
	})
}

// FuzzEncodeRoundTrip: frames built from fuzz-derived records decode to
// exactly the bytes that went in.
func FuzzEncodeRoundTrip(f *testing.F) {
	f.Add(uint64(1), []byte("a"), []byte("bb"), false)
	f.Add(uint64(900), bytes.Repeat([]byte{3}, 70000), []byte{}, true)
	f.Fuzz(func(t *testing.T, seq uint64, d1, d2 []byte, ck bool) {
		recs := []wal.Record{{Seq: seq, Checkpoint: ck, Data: d1}}
		if len(d2) > 0 {
			recs = append(recs, wal.Record{Seq: seq + 1, Data: d2})
		}
		st := &stream{based: true, next: Pos{Term: seq ^ 0xBEEF, Seq: seq}}
		var got []wal.Record
		for _, fr := range Encode(recs, false, seq^0xBEEF) {
			items, rebase, term, err := Decode(fr)
			if err != nil {
				t.Fatalf("self-encoded frame rejected: %v", err)
			}
			if term != seq^0xBEEF {
				t.Fatalf("term round-tripped to %d", term)
			}
			for _, it := range items {
				v, rec, err := st.offer(it, rebase, term)
				if err != nil {
					t.Fatal(err)
				}
				if v == vApply {
					got = append(got, rec)
					st.applied(rec, rebase, term)
				}
			}
		}
		if len(got) != len(recs) {
			t.Fatalf("round-tripped %d records, want %d", len(got), len(recs))
		}
		for i := range recs {
			if got[i].Seq != recs[i].Seq || got[i].Checkpoint != recs[i].Checkpoint ||
				!bytes.Equal(got[i].Data, recs[i].Data) {
				t.Fatalf("record %d diverged", i)
			}
		}
	})
}

// FuzzStreamNeverDoubleApplies drives the sequencing core with an
// adversarial item schedule — stale, duplicate, reordered, gapped,
// fragmented, and from several terms — and asserts the exactly-once,
// in-order contract against a three-field model: a whole base applies
// exactly when it is not older than the stream by Pos.Less (so a newer
// term's base applies however low its sequence), every applied record
// is exactly the expected one in the applied base's term, each applies
// once per base, the horizon never moves backwards in (term, seq), the
// stream never reports a Pos in a term whose base it did not apply, and
// its ack leaves that Pos only while a base it accepted is mid-assembly
// (then naming that base's term, nothing acknowledged in it).
func FuzzStreamNeverDoubleApplies(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 2, 1, 9, 4})
	f.Add([]byte{5, 5, 5, 0, 0, 1, 2, 200, 3})
	f.Add([]byte{28, 13, 70, 71, 72, 14, 135, 28}) // a term-1 base below the term-0 horizon
	f.Fuzz(func(t *testing.T, script []byte) {
		st := &stream{}
		applied := map[Pos]int{}
		var horizon Pos // model: applied base's term ∥ next sequence
		based := false
		var pending *uint64 // term of the base fragment being buffered
		for i, b := range script {
			// Derive an adversarial item from the script byte.
			seq := uint64(b % 16)
			term := uint64(b / 64)
			rebase := b%7 == 0
			it := Item{
				Seq:        seq,
				Checkpoint: rebase || b%5 == 0,
				Total:      4,
				Off:        0,
				Frag:       []byte{1, 2, 3, 4},
			}
			whole := b%11 != 3
			if !whole { // sometimes a fragment
				it.Frag = it.Frag[:2]
			}
			at := Pos{Term: term, Seq: seq}
			v, rec, err := st.offer(it, rebase, term)
			if err != nil {
				continue
			}
			if rebase && whole && (v == vApply) != (!based || !at.Less(horizon)) {
				t.Fatalf("step %d: base at %+v against horizon %+v (based %v): verdict %v", i, at, horizon, based, v)
			}
			if v == vApply {
				st.applied(rec, rebase, term)
				switch {
				case rebase:
					based = true
					horizon = Pos{Term: term, Seq: rec.Seq + 1}
					clear(applied) // a base restarts the numbering
				case !based:
					t.Fatalf("step %d: applied %+v before any base", i, at)
				case at != horizon:
					t.Fatalf("step %d: applied %+v, horizon %+v", i, at, horizon)
				default:
					if applied[at]++; applied[at] > 1 {
						t.Fatalf("step %d: %+v applied twice", i, at)
					}
					horizon.Seq++
				}
			}
			if got := st.pos(); based && (got.Term != horizon.Term || got.Seq+1 != horizon.Seq) {
				t.Fatalf("step %d: stream reports %+v, model horizon %+v", i, got, horizon)
			}
			switch {
			case rebase && v == vWait:
				pending = &term
			case v == vApply || v == vWait:
				pending = nil
			}
			want := st.pos()
			if pending != nil {
				want = Pos{Term: *pending}
			}
			if got := st.ack(); got != want {
				t.Fatalf("step %d: stream acks %+v, want %+v (pos %+v)", i, got, want, st.pos())
			}
		}
	})
}

// FuzzAckRoundTrip keeps the 16-byte ack payload codec honest.
func FuzzAckRoundTrip(f *testing.F) {
	f.Add(uint64(0), uint64(0))
	f.Add(uint64(3), uint64(1<<60))
	f.Fuzz(func(t *testing.T, term, seq uint64) {
		at := Pos{Term: term, Seq: seq}
		got, err := ParseAck(ackData(at))
		if err != nil || got != at {
			t.Fatalf("ack %+v round-tripped to (%+v, %v)", at, got, err)
		}
		// The pre-Pos 8-byte ack, and anything else off-size, is refused.
		if _, err := ParseAck(ackData(at)[:8]); err == nil {
			t.Fatal("short ack accepted")
		}
	})
}
