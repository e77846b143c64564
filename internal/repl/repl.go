// Package repl is the hot-standby replication layer: a primary
// service's committed write-ahead-log stream, shipped over RPC to the
// standby machines of its replication group, each of which keeps a
// warm, durable copy of the service ready for promotion, plus the
// leased leadership (lease.go) that decides when one of them may be.
//
// In the paper's model a service lives at a *port*, not a machine —
// LOCATE re-broadcast (§2.2) exists precisely so clients find whoever
// currently serves the port. This package exploits that: the standby
// holds the same secret get-port as the primary but keeps it dark (its
// kernel is never Started), receiving the stream on a private port of
// its own. Promotion is then nothing but starting the standby's kernel:
// it advertises the shared put-port, clients' stale routes time out,
// invalidate, re-broadcast, and land on the new incarnation — with
// every acknowledged operation present, because the primary's group
// commit does not complete (and so no client reply is sent) until the
// standby has appended the batch to its OWN log and acknowledged it.
//
// Shipping piggybacks on the primary's group commit — one ship RPC per
// standby per commit batch, handed to that standby's ship lane after
// the local sync and awaited before the batch's tickets complete — so
// replication adds a network round trip but NO extra fsyncs.
//
// Wire format of one ship frame (the payload of an OpShip request):
//
//	flags(1) ∥ term(8) ∥ count(2) ∥ count × item
//	item: seq(8) ∥ kind(1) ∥ total(4) ∥ off(4) ∥ fragLen(4) ∥ frag
//
// Records larger than a frame are fragmented (off/total); the receiver
// reassembles in order. flags bit 0 marks a rebase frame: its (single,
// possibly fragmented) checkpoint record replaces the standby's whole
// state and resets the expected sequence — how a standby attaches to a
// primary mid-life. A frame with count = 0 is a heartbeat: it renews
// the sender's lease grant and refreshes the receiver's failure
// detector without carrying records. term is the sender's replication
// epoch; a receiver that has seen a higher term rejects the frame with
// rpc.StatusStale (the sender is a deposed primary) and otherwise
// adopts the term. Replies carry the receiver's durable position,
// term(8) ∥ seq(8) (Pos); the shipper counts an acknowledgement only if
// that term is its own (while a multi-frame base is still buffered the
// reply names that base's term, sequence 0). A sequence gap is refused with
// rpc.StatusConflict (same payload): nothing applies out of order, the
// shipper marks the peer lost and re-bases it.
package repl

import (
	"encoding/binary"
	"fmt"

	"amoeba/internal/amnet"
	"amoeba/internal/wal"
)

// Operation codes (the replication channel's private protocol).
const (
	// OpShip carries one ship frame; reply data is the receiver's Pos.
	OpShip uint16 = 0x0700 + iota
	// OpSeq queries the receiver: reply data is based(1) ∥ Pos.
	OpSeq
)

const (
	kindData       = 0x01
	kindCheckpoint = 0x02

	flagRebase = 0x01

	frameHdr = 11 // flags(1) term(8) count(2)
	itemHdr  = 21 // seq(8) kind(1) total(4) off(4) fragLen(4)
)

// MaxShipBytes bounds one ship frame's payload, leaving headroom under
// the network MTU for the RPC and F-box headers.
const MaxShipBytes = amnet.MTU - 4096

// MaxRecordTotal bounds a single record's reassembled size — a decode
// guard so a forged frame cannot make the receiver reserve gigabytes.
const MaxRecordTotal = 1 << 26

// Item is one decoded ship-frame entry: a whole record when Off == 0
// and len(Frag) == Total, otherwise a fragment of one.
type Item struct {
	Seq        uint64
	Checkpoint bool
	Total      uint32
	Off        uint32
	Frag       []byte
}

// Pos is a position in a replication stream. Every standby numbers its
// own log from 1, so a sequence means something only inside the term
// whose base started the numbering: positions order by term first,
// sequence second, and this is the only comparison of two positions
// anywhere in the package.
type Pos struct{ Term, Seq uint64 }

// Less reports whether p is strictly older than q.
func (p Pos) Less(q Pos) bool {
	return p.Term < q.Term || p.Term == q.Term && p.Seq < q.Seq
}

// Encode packs records into one or more ship frames stamped with the
// sender's term, splitting records that exceed MaxShipBytes into
// fragments.
func Encode(recs []wal.Record, rebase bool, term uint64) [][]byte {
	flags := byte(0)
	if rebase {
		flags = flagRebase
	}
	// Size frames for the batch at hand (capped at MaxShipBytes): the
	// common commit batch is a handful of small records, and zeroing a
	// full MTU-sized buffer per batch would dominate the ship cost.
	need := frameHdr
	for _, r := range recs {
		need += itemHdr + len(r.Data)
	}
	if need > MaxShipBytes {
		need = MaxShipBytes
	}
	var frames [][]byte
	var cur []byte // the frame being filled; nil until an item needs one
	count := 0
	flush := func() {
		if count == 0 {
			return
		}
		binary.BigEndian.PutUint16(cur[9:11], uint16(count))
		frames = append(frames, cur)
		cur, count = nil, 0
	}
	for _, r := range recs {
		kind := byte(kindData)
		if r.Checkpoint {
			kind = kindCheckpoint
		}
		off := 0
		for {
			if cur == nil {
				cur = make([]byte, frameHdr, need)
				cur[0] = flags
				binary.BigEndian.PutUint64(cur[1:9], term)
			}
			space := MaxShipBytes - len(cur) - itemHdr
			if space <= 0 || (count >= 0xFFFF) {
				flush()
				continue
			}
			n := len(r.Data) - off
			if n > space {
				n = space
			}
			var hdr [itemHdr]byte
			binary.BigEndian.PutUint64(hdr[0:], r.Seq)
			hdr[8] = kind
			binary.BigEndian.PutUint32(hdr[9:], uint32(len(r.Data)))
			binary.BigEndian.PutUint32(hdr[13:], uint32(off))
			binary.BigEndian.PutUint32(hdr[17:], uint32(n))
			cur = append(cur, hdr[:]...)
			cur = append(cur, r.Data[off:off+n]...)
			count++
			off += n
			if off >= len(r.Data) {
				break
			}
		}
	}
	flush()
	return frames
}

// EncodeHeartbeat builds the empty ship frame that renews a lease: no
// records, just the sender's term.
func EncodeHeartbeat(term uint64) []byte {
	b := make([]byte, frameHdr)
	binary.BigEndian.PutUint64(b[1:9], term)
	return b
}

// Decode parses one ship frame. It never panics on arbitrary input
// (fuzzed); a malformed frame returns an error.
func Decode(frame []byte) (items []Item, rebase bool, term uint64, err error) {
	if len(frame) < frameHdr {
		return nil, false, 0, fmt.Errorf("repl: short frame (%d bytes)", len(frame))
	}
	flags := frame[0]
	if flags&^flagRebase != 0 {
		return nil, false, 0, fmt.Errorf("repl: unknown flags %#02x", flags)
	}
	term = binary.BigEndian.Uint64(frame[1:9])
	count := int(binary.BigEndian.Uint16(frame[9:11]))
	at := frameHdr
	cap := count
	if cap > 64 {
		cap = 64 // trust the data length, not the claimed count
	}
	items = make([]Item, 0, cap)
	for i := 0; i < count; i++ {
		if len(frame)-at < itemHdr {
			return nil, false, 0, fmt.Errorf("repl: truncated item %d", i)
		}
		seq := binary.BigEndian.Uint64(frame[at:])
		kind := frame[at+8]
		total := binary.BigEndian.Uint32(frame[at+9:])
		off := binary.BigEndian.Uint32(frame[at+13:])
		fl := binary.BigEndian.Uint32(frame[at+17:])
		at += itemHdr
		if kind != kindData && kind != kindCheckpoint {
			return nil, false, 0, fmt.Errorf("repl: item %d: unknown kind %#02x", i, kind)
		}
		if total > MaxRecordTotal || off > total || fl > total-off {
			return nil, false, 0, fmt.Errorf("repl: item %d: bad geometry total=%d off=%d frag=%d", i, total, off, fl)
		}
		if uint32(len(frame)-at) < fl {
			return nil, false, 0, fmt.Errorf("repl: item %d: truncated fragment", i)
		}
		items = append(items, Item{
			Seq:        seq,
			Checkpoint: kind == kindCheckpoint,
			Total:      total,
			Off:        off,
			Frag:       frame[at : at+int(fl)],
		})
		at += int(fl)
	}
	if at != len(frame) {
		return nil, false, 0, fmt.Errorf("repl: %d trailing bytes", len(frame)-at)
	}
	return items, flags&flagRebase != 0, term, nil
}

// ackData encodes a reply payload carrying the receiver's position.
func ackData(p Pos) []byte {
	var b [16]byte
	binary.BigEndian.PutUint64(b[0:], p.Term)
	binary.BigEndian.PutUint64(b[8:], p.Seq)
	return b[:]
}

// ParseAck decodes a ship reply's position.
func ParseAck(data []byte) (Pos, error) {
	if len(data) != 16 {
		return Pos{}, fmt.Errorf("repl: ack payload of %d bytes", len(data))
	}
	return Pos{Term: binary.BigEndian.Uint64(data), Seq: binary.BigEndian.Uint64(data[8:])}, nil
}
