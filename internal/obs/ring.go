// Ring-buffer access log: the last N request records, written
// lock-free from the serving hot path and dumped on demand from the
// debug endpoint. The production rationale is the usual one — when a
// tail-latency page fires, the first question is "what were the last
// thousand requests?", and a fixed ring answers it with zero steady
// state cost and zero retention policy to misconfigure.
package obs

import (
	"encoding/json"
	"io"
	"sync/atomic"
	"time"

	"amoeba/internal/clock"
)

// ReqRecord is one completed (or shed) request as seen by a server.
type ReqRecord struct {
	Time      time.Time     `json:"time"`
	ReqID     uint64        `json:"req_id"`
	Service   string        `json:"service"`
	Op        string        `json:"op"`
	Status    string        `json:"status"`
	From      uint32        `json:"from"`
	QueueWait time.Duration `json:"queue_wait_ns"`
	Handle    time.Duration `json:"handle_ns"`
	Shed      bool          `json:"shed,omitempty"`
}

// slot is one ring entry. Every field is an atomic word and the slot
// carries a seqlock: writers bump seq to odd, store the fields, bump
// to even; readers snapshot seq-fields-seq and discard torn reads.
// This keeps Push wait-free for writers (a reader can never block a
// writer) and keeps the race detector quiet without a lock.
type slot struct {
	seq    atomic.Uint64
	timeNS atomic.Int64
	reqID  atomic.Uint64
	// packed is status<<48 | op<<32 | svcIdx<<16 | flags (flag bit 0 = shed).
	packed atomic.Uint64
	from   atomic.Uint32
	waitNS atomic.Int64
	workNS atomic.Int64
}

// Ring is a fixed-size lock-free log of recent requests. The zero
// value is not usable; build with NewRing.
type Ring struct {
	slots []slot
	mask  uint64
	pos   atomic.Uint64 // next slot to claim

	// services maps the svcIdx packed into slots back to a service
	// name at dump time. Registered at server start, read-only after.
	services []string
	svcMu    atomicSvcList
}

// atomicSvcList guards service-name registration; it is a mutex in a
// trench coat but keeps the Ring struct's hot fields lock-free.
type atomicSvcList struct{ busy atomic.Bool }

func (l *atomicSvcList) lock() {
	for !l.busy.CompareAndSwap(false, true) {
	}
}
func (l *atomicSvcList) unlock() { l.busy.Store(false) }

// NewRing builds a ring holding the most recent n records (rounded up
// to a power of two, minimum 16).
func NewRing(n int) *Ring {
	size := 16
	for size < n {
		size <<= 1
	}
	return &Ring{slots: make([]slot, size), mask: uint64(size - 1)}
}

// RegisterService interns a service name and returns its index for
// Push. Idempotent: registering the same name again (a restarted
// service) returns the original index.
func (r *Ring) RegisterService(name string) uint16 {
	r.svcMu.lock()
	defer r.svcMu.unlock()
	for i, s := range r.services {
		if s == name {
			return uint16(i)
		}
	}
	r.services = append(r.services, name)
	return uint16(len(r.services) - 1)
}

// Push records one request. Wait-free; called from the serving hot
// path, so it performs no allocation and takes no lock.
func (r *Ring) Push(svcIdx uint16, reqID uint64, op uint16, status uint16, from uint32, queueWait, handle time.Duration, shed bool) {
	i := r.pos.Add(1) - 1
	s := &r.slots[i&r.mask]
	var flags uint64
	if shed {
		flags = 1
	}
	s.seq.Add(1) // odd: write in progress
	s.timeNS.Store(clock.Real.Now().UnixNano())
	s.reqID.Store(reqID)
	s.packed.Store(uint64(status)<<48 | uint64(op)<<32 | uint64(svcIdx)<<16 | flags)
	s.from.Store(from)
	s.waitNS.Store(int64(queueWait))
	s.workNS.Store(int64(handle))
	s.seq.Add(1) // even: write complete
}

// Len returns how many records the ring currently holds.
func (r *Ring) Len() int {
	n := r.pos.Load()
	if n > uint64(len(r.slots)) {
		return len(r.slots)
	}
	return int(n)
}

// Dump returns up to max records, newest first. A record mid-write
// (torn seqlock) is skipped rather than retried — the dump is a
// diagnostic snapshot, not a transaction.
func (r *Ring) Dump(max int, statusName func(uint16) string) []ReqRecord {
	r.svcMu.lock()
	services := append([]string(nil), r.services...)
	r.svcMu.unlock()

	n := r.Len()
	if max > 0 && n > max {
		n = max
	}
	head := r.pos.Load()
	out := make([]ReqRecord, 0, n)
	for k := 0; k < n; k++ {
		idx := (head - 1 - uint64(k)) & r.mask
		s := &r.slots[idx]
		seq1 := s.seq.Load()
		if seq1%2 != 0 || seq1 == 0 {
			continue // mid-write or never written
		}
		rec := ReqRecord{
			Time:      time.Unix(0, s.timeNS.Load()),
			ReqID:     s.reqID.Load(),
			From:      s.from.Load(),
			QueueWait: time.Duration(s.waitNS.Load()),
			Handle:    time.Duration(s.workNS.Load()),
		}
		packed := s.packed.Load()
		if s.seq.Load() != seq1 {
			continue // torn
		}
		status := uint16(packed >> 48)
		op := uint16(packed >> 32)
		svcIdx := uint16(packed >> 16)
		rec.Shed = packed&1 != 0
		rec.Op = OpName(op)
		if statusName != nil {
			rec.Status = statusName(status)
		}
		if int(svcIdx) < len(services) {
			rec.Service = services[svcIdx]
		}
		out = append(out, rec)
	}
	return out
}

// WriteJSON dumps up to max records as a JSON array, newest first.
func (r *Ring) WriteJSON(w io.Writer, max int, statusName func(uint16) string) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Dump(max, statusName))
}
