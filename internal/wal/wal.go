// Package wal is a write-ahead log over a virtual disk: the durability
// layer under the Amoeba services. The paper's services survive machine
// crashes because their state lives behind a server that can be
// restarted and relocated (§2.2's LOCATE re-broadcast exists precisely
// so clients find a re-incarnated server); this log is what makes the
// restarted server remember.
//
// Layout: block 0 is a superblock; the remaining blocks form a circular
// byte arena of CRC-framed records addressed by monotonically
// increasing offsets. Appends are group-committed — concurrent
// appenders share one Store.Sync, run by whichever of them waits first
// (the log starts no goroutine of its own) — and a reply is only sent
// once Wait returns, so every capability a client holds names durable
// state.
// Checkpoint writes a state snapshot into the log and advances the
// superblock's start pointer past everything the snapshot covers,
// reclaiming the space behind it. Recovery scans from the start
// pointer, restoring the newest checkpoint it meets and re-applying the
// records after it; a torn tail (a crash mid-write) fails the CRC or
// sequence check and is cleanly truncated.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sync"
	"time"

	"amoeba/internal/clock"
	"amoeba/internal/obs"
	"amoeba/internal/vdisk"
)

// Errors.
var (
	// ErrFull is returned when an append would overwrite live records;
	// a checkpoint reclaims space.
	ErrFull = errors.New("wal: log full (checkpoint to reclaim space)")
	// ErrClosed is returned after Close.
	ErrClosed = errors.New("wal: closed")
	// ErrTooLarge is returned for records beyond the log's record bound:
	// the smaller of 1 MiB and a quarter of the arena.
	ErrTooLarge = errors.New("wal: record too large")
	// ErrNotRecovered is returned by Append before Recover has run:
	// appending into an unscanned log would clobber the tail.
	ErrNotRecovered = errors.New("wal: Recover must run before Append")
	// ErrCorrupt is returned for an unusable superblock.
	ErrCorrupt = errors.New("wal: corrupt superblock")
	// ErrWedged wraps the I/O failure that wedged the log: a failed
	// commit (or superblock write) makes the log permanently read-only,
	// and every Append, Barrier and Close after it returns an error
	// satisfying errors.Is(err, ErrWedged). The gray-failure contract
	// is built on this sentinel — a machine whose WAL is wedged still
	// answers the network, so upper layers (kernel fencing, replica
	// self-demotion) key off the typed error, not off silence.
	ErrWedged = errors.New("wal: wedged (I/O failure; log is read-only)")
)

// Record is one log record as seen by a replication sink: the payload
// plus the metadata that orders and classifies it.
type Record struct {
	// Seq is the record's log sequence number (contiguous; gaps on the
	// receiving side mean lost shipments).
	Seq uint64
	// Checkpoint marks a checkpoint snapshot record; Data is then the
	// full state envelope, not a redo record.
	Checkpoint bool
	// Data is the record payload. Sink callbacks own it (it is copied
	// out of the staging buffer).
	Data []byte
}

const (
	superMagic   = 0xA0EBA1A5_0000_0001
	superVersion = 1
	superSize    = 40 // magic(8) ver(4) nblocks(4) bs(4) start(8) seq(8) crc(4)

	// frame: size(4) seq(8) kind(1) crc(4) ∥ payload. The CRC covers
	// the first 13 header bytes and the payload.
	frameHeader = 17

	kindData       = 0x01
	kindCheckpoint = 0x02

	// maxRecordBytes bounds one record's payload; a log whose arena is
	// under 4 MiB bounds it at a quarter of the arena instead, so a
	// checkpoint always fits.
	maxRecordBytes = 1 << 20
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Options tunes a log. The zero value observes nothing.
type Options struct {
	// Metrics, when set, has the commit path observe its group
	// commits: the wall time of each write+sync pass and how many
	// records it covered. Sync latency is the floor under every
	// durable operation's tail, and batch size is whether group commit
	// is actually grouping — the two numbers that tell an overloaded
	// durable service apart from a slow disk.
	Metrics *Metrics
}

// Metrics receives commit-path observations (see Options.Metrics).
// Either histogram may be nil to skip it.
type Metrics struct {
	// SyncLatency observes nanoseconds per group commit (arena write
	// plus Store.Sync).
	SyncLatency *obs.Histogram
	// BatchRecords observes records per group commit.
	BatchRecords *obs.Histogram
}

// Stats counts log activity.
type Stats struct {
	Appends     uint64 // records staged
	Commits     uint64 // group commits (one Store.Sync each)
	Checkpoints uint64
	Used        uint64 // live bytes (head - start)
	Capacity    uint64 // arena bytes usable before ErrFull
}

// Ticket is a commit handle: Wait blocks until every record staged in
// the ticket's batch is on stable storage.
type Ticket struct {
	done chan struct{}
	err  error
	log  *Log
}

// Wait blocks for the group commit. A nil ticket (from a volatile
// kernel) returns immediately.
//
// The log has no commit goroutine: the batch's first waiter LEADS the
// commit on its own goroutine — one write, one Store.Sync and one sink
// call for every record staged so far — and completes the ticket.
// Waiters that queued behind the leader find their ticket complete and
// return without a pass of their own, so a batch costs one sync and one
// ship however many appenders wait on it, and no scheduler hand-off
// sits between a record and its acknowledgement.
func (t *Ticket) Wait() error {
	if t == nil {
		return nil
	}
	select {
	case <-t.done: // already committed
	default:
		t.log.lead(t)
		<-t.done
	}
	return t.err
}

// Log is a write-ahead log over one vdisk.Store. Safe for concurrent
// appenders; whichever of them waits first commits the batch for all of
// them (see Ticket.Wait).
type Log struct {
	store     vdisk.Store
	bs        uint64 // block size
	arena     uint64 // arena bytes (blocks 1..n-1)
	maxRecord int    // min(maxRecordBytes, arena/4)
	highWater uint64 // half the capacity: past it, Pressure fires
	metrics   *Metrics

	mu         sync.Mutex
	recovered  bool
	closed     bool
	ioErr      error // a failed commit wedges the log read-only (wraps ErrWedged)
	onWedge    []func(err error)
	start      uint64
	startSeq   uint64
	head       uint64 // absolute append offset
	flushed    uint64 // bytes < flushed are on stable storage
	seq        uint64 // next sequence number
	buf        []byte // staged bytes [bufStart, bufStart+len(buf))
	bufStart   uint64 // block-aligned
	ticket     *Ticket
	signaled   bool // pressure sent since the last checkpoint
	stats      Stats
	sink       func(recs []Record) // commit sink (replication shipper)
	pending    []Record            // staged-but-uncommitted sink records
	stagedRecs uint64              // records in the staged batch (metrics)

	ckMu sync.Mutex // serializes Checkpoint

	// commitMu serializes commit passes: leading waiters and Close never
	// write the arena concurrently, and Abandon fences on it.
	commitMu sync.Mutex
	tail     []byte // commitMu: the zero-padded partial tail block

	pressure chan struct{}
}

// Open attaches a log to a store, formatting it when empty. Call
// Recover before the first Append — it is what finds the tail.
func Open(store vdisk.Store, opts Options) (*Log, error) {
	bs := uint64(store.BlockSize())
	if store.NBlocks() < 5 {
		return nil, fmt.Errorf("wal: store has %d blocks, need at least 5", store.NBlocks())
	}
	l := &Log{
		store:    store,
		bs:       bs,
		arena:    uint64(store.NBlocks()-1) * bs,
		tail:     make([]byte, bs),
		pressure: make(chan struct{}, 1),
	}
	l.metrics = opts.Metrics
	l.maxRecord = min(maxRecordBytes, int(l.arena/4))
	l.highWater = l.capacity() / 2
	if err := l.loadSuper(); err != nil {
		return nil, err
	}
	return l, nil
}

// capacity is the byte budget before ErrFull: one block is reserved so
// the zero-padded tail block can never alias the start block.
func (l *Log) capacity() uint64 { return l.arena - l.bs }

func (l *Log) loadSuper() error {
	blk, err := l.store.Read(0)
	if err != nil {
		return fmt.Errorf("wal: reading superblock: %w", err)
	}
	if binary.BigEndian.Uint64(blk) == superMagic {
		if crc32.Checksum(blk[:superSize-4], crcTable) != binary.BigEndian.Uint32(blk[superSize-4:]) {
			return fmt.Errorf("%w: bad CRC", ErrCorrupt)
		}
		if v := binary.BigEndian.Uint32(blk[8:]); v != superVersion {
			return fmt.Errorf("%w: version %d", ErrCorrupt, v)
		}
		nb := binary.BigEndian.Uint32(blk[12:])
		gbs := binary.BigEndian.Uint32(blk[16:])
		if nb != l.store.NBlocks() || uint64(gbs) != l.bs {
			return fmt.Errorf("%w: geometry %d×%d, store is %d×%d",
				ErrCorrupt, nb, gbs, l.store.NBlocks(), l.bs)
		}
		l.start = binary.BigEndian.Uint64(blk[20:])
		l.startSeq = binary.BigEndian.Uint64(blk[28:])
		return nil
	}
	for _, b := range blk {
		if b != 0 {
			return fmt.Errorf("%w: not a write-ahead log", ErrCorrupt)
		}
	}
	// Fresh store: format.
	l.start, l.startSeq = 0, 1
	return l.writeSuper()
}

// writeSuper persists the (start, startSeq) pointers; called at format
// and after every checkpoint, each time with its own sync.
func (l *Log) writeSuper() error {
	blk := make([]byte, l.bs)
	binary.BigEndian.PutUint64(blk[0:], superMagic)
	binary.BigEndian.PutUint32(blk[8:], superVersion)
	binary.BigEndian.PutUint32(blk[12:], l.store.NBlocks())
	binary.BigEndian.PutUint32(blk[16:], uint32(l.bs))
	binary.BigEndian.PutUint64(blk[20:], l.start)
	binary.BigEndian.PutUint64(blk[28:], l.startSeq)
	binary.BigEndian.PutUint32(blk[superSize-4:], crc32.Checksum(blk[:superSize-4], crcTable))
	if err := l.store.Write(0, blk); err != nil {
		return fmt.Errorf("wal: writing superblock: %w", err)
	}
	if err := l.store.Sync(); err != nil {
		return fmt.Errorf("wal: syncing superblock: %w", err)
	}
	return nil
}

// blockOf maps an absolute arena offset to its physical block number.
func (l *Log) blockOf(off uint64) uint32 { return 1 + uint32((off%l.arena)/l.bs) }

// Recover scans the log from the superblock's start pointer: the
// newest checkpoint snapshot (if any) is handed to restore, every
// record after it to apply, in log order. The scan stops — and the log
// tail is truncated — at the first frame that fails its length, kind,
// sequence or CRC check: a torn tail from a crash mid-commit. Recover
// must run (exactly once) before the first Append.
func (l *Log) Recover(restore func(snap []byte) error, apply func(rec []byte) error) error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	if l.recovered {
		l.mu.Unlock()
		return errors.New("wal: already recovered")
	}
	off, seq := l.start, l.startSeq
	l.mu.Unlock()

	s := &scanner{l: l, block: ^uint32(0)}
	for {
		rec, kind, next, ok := s.frame(off, seq)
		if !ok {
			break
		}
		var err error
		switch kind {
		case kindCheckpoint:
			if restore != nil {
				err = restore(rec)
			}
		default:
			if apply != nil {
				err = apply(rec)
			}
		}
		if err != nil {
			return fmt.Errorf("wal: replaying record %d: %w", seq, err)
		}
		off, seq = next, seq+1
	}

	l.mu.Lock()
	defer l.mu.Unlock()
	l.head, l.flushed, l.seq = off, off, seq
	l.bufStart = off - off%l.bs
	l.buf = l.buf[:0]
	if off > l.bufStart {
		// Cache the partial tail block so later appends rewrite it
		// with the earlier bytes intact.
		blk, err := l.store.Read(l.blockOf(l.bufStart))
		if err != nil {
			return fmt.Errorf("wal: reading tail block: %w", err)
		}
		l.buf = append(l.buf, blk[:off-l.bufStart]...)
	}
	l.recovered = true
	return nil
}

// scanner reads frames sequentially with a one-block cache.
type scanner struct {
	l     *Log
	cache []byte
	block uint32
}

// read copies [off, off+len(dst)) arena bytes into dst.
func (s *scanner) read(off uint64, dst []byte) bool {
	for len(dst) > 0 {
		b := s.l.blockOf(off)
		if b != s.block {
			blk, err := s.l.store.Read(b)
			if err != nil {
				return false
			}
			s.cache, s.block = blk, b
		}
		at := off % s.l.bs
		n := copy(dst, s.cache[at:])
		dst = dst[n:]
		off += uint64(n)
	}
	return true
}

// frame decodes the frame at off, expecting sequence number seq. It
// returns the payload, the kind, and the next frame's offset; ok is
// false at the log's tail (any malformed, stale or torn frame).
func (s *scanner) frame(off, seq uint64) (rec []byte, kind byte, next uint64, ok bool) {
	l := s.l
	var hdr [frameHeader]byte
	// Header and payload must fit the capacity measured from start.
	if off-l.start+frameHeader > l.capacity() || !s.read(off, hdr[:]) {
		return nil, 0, 0, false
	}
	size := uint64(binary.BigEndian.Uint32(hdr[0:]))
	k := hdr[12]
	if size == 0 || size > uint64(l.maxRecord) ||
		off-l.start+frameHeader+size > l.capacity() {
		return nil, 0, 0, false
	}
	if k != kindData && k != kindCheckpoint {
		return nil, 0, 0, false
	}
	if binary.BigEndian.Uint64(hdr[4:]) != seq {
		return nil, 0, 0, false // stale frame from a previous arena lap
	}
	rec = make([]byte, size)
	if !s.read(off+frameHeader, rec) {
		return nil, 0, 0, false
	}
	crc := crc32.Checksum(hdr[:13], crcTable)
	crc = crc32.Update(crc, crcTable, rec)
	if crc != binary.BigEndian.Uint32(hdr[13:]) {
		return nil, 0, 0, false
	}
	return rec, k, off + frameHeader + size, true
}

// Append stages one record and returns the batch's commit ticket; the
// record is durable once Ticket.Wait returns nil. Callers ordering
// matters to (a service appending under its object lock) rely on stage
// order being commit order, which the single staging buffer guarantees.
//
// Append wakes nothing: the batch commits when one of its waiters leads
// it (see Ticket.Wait), or at Close. Every staged record must therefore
// have a waiter — Barrier waits passively for the pending batch and
// relies on it. A caller that drops its ticket leaves the record staged
// until a later record's waiter or Close commits it.
func (l *Log) Append(rec []byte) (*Ticket, error) {
	t, _, _, err := l.stage(kindData, rec)
	return t, err
}

// stage frames rec into the staging buffer under the lock, returning
// the frame's offset and sequence number.
func (l *Log) stage(kind byte, rec []byte) (*Ticket, uint64, uint64, error) {
	if len(rec) == 0 {
		return nil, 0, 0, errors.New("wal: empty record")
	}
	if len(rec) > l.maxRecord {
		return nil, 0, 0, fmt.Errorf("%w: %d bytes (max %d)", ErrTooLarge, len(rec), l.maxRecord)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	switch {
	case l.closed:
		return nil, 0, 0, ErrClosed
	case !l.recovered:
		return nil, 0, 0, ErrNotRecovered
	case l.ioErr != nil:
		return nil, 0, 0, l.ioErr
	}
	frameLen := uint64(frameHeader + len(rec))
	if l.head+frameLen-l.start > l.capacity() {
		l.signalPressure()
		return nil, 0, 0, ErrFull
	}
	var hdr [frameHeader]byte
	binary.BigEndian.PutUint32(hdr[0:], uint32(len(rec)))
	binary.BigEndian.PutUint64(hdr[4:], l.seq)
	hdr[12] = kind
	crc := crc32.Checksum(hdr[:13], crcTable)
	crc = crc32.Update(crc, crcTable, rec)
	binary.BigEndian.PutUint32(hdr[13:], crc)
	at, seq := l.head, l.seq
	l.buf = append(l.buf, hdr[:]...)
	l.buf = append(l.buf, rec...)
	l.head += frameLen
	l.seq++
	l.stats.Appends++
	l.stagedRecs++
	if l.sink != nil {
		// The sink sees the record after its batch commits; copy now so
		// the caller may reuse rec.
		l.pending = append(l.pending, Record{
			Seq:        seq,
			Checkpoint: kind == kindCheckpoint,
			Data:       append([]byte(nil), rec...),
		})
	}
	if l.ticket == nil {
		l.ticket = &Ticket{done: make(chan struct{}), log: l}
	}
	if l.head-l.start > l.highWater {
		l.signalPressure()
	}
	return l.ticket, at, seq, nil
}

// signalPressure nudges the checkpoint listener once per high-water
// crossing. Callers hold l.mu.
func (l *Log) signalPressure() {
	if l.signaled {
		return
	}
	l.signaled = true
	select {
	case l.pressure <- struct{}{}:
	default:
	}
}

// lead commits t's batch on the waiter's goroutine. It is ticket-aware:
// a waiter whose batch committed while it queued for commitMu returns
// without a pass — committing whatever was staged since would split the
// next batch, whose own waiters are about to lead it.
func (l *Log) lead(t *Ticket) {
	l.commitMu.Lock()
	defer l.commitMu.Unlock()
	select {
	case <-t.done:
	default:
		l.commit()
	}
}

// commit is one group-commit pass: it writes every staged byte, issues
// ONE Store.Sync for the whole batch, then wakes every appender that
// staged into it. Callers hold commitMu.
func (l *Log) commit() {
	l.mu.Lock()
	t := l.ticket
	if t == nil {
		// Nothing staged — or Abandon took the batch, and the crash
		// contract says its bytes never reach the store.
		l.mu.Unlock()
		return
	}
	l.ticket = nil
	if l.ioErr != nil {
		// The log is wedged: a failed batch must NEVER be retried onto
		// the disk (its appenders were already told it failed), so no
		// further bytes are written — pending waiters get the error.
		t.err = l.ioErr
		l.mu.Unlock()
		close(t.done)
		return
	}
	// The pass writes straight from the staging buffer, capped at its
	// length: appenders only write past it, and finishCommit trims the
	// buffer (under commitMu) only after the write.
	data := l.buf[:len(l.buf):len(l.buf)]
	ds, nf := l.bufStart, l.head
	ship, sink := l.pending, l.sink
	l.pending = nil
	batchRecs := l.stagedRecs
	l.stagedRecs = 0
	l.mu.Unlock()

	var syncStart time.Time
	if l.metrics != nil {
		syncStart = clock.Real.Now() // the disk's real work, not protocol time
	}
	err := l.writeRange(ds, data)
	if err == nil {
		err = l.store.Sync()
	}
	if err == nil && l.metrics != nil {
		if h := l.metrics.SyncLatency; h != nil {
			h.ObserveDuration(clock.Since(clock.Real, syncStart))
		}
		if h := l.metrics.BatchRecords; h != nil {
			h.Observe(batchRecs)
		}
	}
	// Ship the batch AFTER local durability and BEFORE waking its
	// appenders: a handler's reply — sent after Ticket.Wait — then
	// implies the record is on local stable storage AND acknowledged by
	// the backup, which is what makes failover lossless. The sink rides
	// the group commit (one call per batch), so replication adds no
	// fsyncs on the primary.
	if err == nil && sink != nil && len(ship) > 0 {
		sink(ship)
	}
	l.finishCommit(t, err, nf)
}

// wedge makes the failed operation's error the log's permanent state:
// ioErr is set (wrapping ErrWedged) and the registered wedge callbacks
// fire, each on its own goroutine so a callback that takes locks (a
// replica self-demoting, a cluster tearing the machine down) cannot
// deadlock the commit path. Only the FIRST failure wedges; callers
// hold l.mu. The wedged error is returned for the caller to report.
func (l *Log) wedge(cause error) error {
	if l.ioErr != nil {
		return l.ioErr
	}
	l.ioErr = fmt.Errorf("%w: %w", ErrWedged, cause)
	fire := l.onWedge
	l.onWedge = nil
	for _, fn := range fire {
		go fn(l.ioErr)
	}
	return l.ioErr
}

// finishCommit records the commit's outcome and wakes the batch.
func (l *Log) finishCommit(t *Ticket, err error, nf uint64) {
	l.mu.Lock()
	if err != nil {
		err = l.wedge(err)
		l.pending = nil // a failed batch is never shipped (nor retried)
	} else {
		l.stats.Commits++
		if nf > l.flushed {
			l.flushed = nf
		}
		// Trim the buffer down to the partial tail block.
		nb := l.flushed - l.flushed%l.bs
		if nb > l.bufStart {
			drop := nb - l.bufStart
			l.buf = append(l.buf[:0], l.buf[drop:]...)
			l.bufStart = nb
		}
	}
	l.mu.Unlock()
	t.err = err
	close(t.done)
}

// writeRange writes the staged bytes [ds, ds+len(data)) block by block,
// zero-padding the partial tail block (the pad is rewritten by the next
// commit; a crash leaves zeros the scanner treats as the tail). Callers
// hold commitMu, which owns the tail scratch block.
func (l *Log) writeRange(ds uint64, data []byte) error {
	for i := 0; i < len(data); i += int(l.bs) {
		chunk := data[i:min(i+int(l.bs), len(data))]
		out := chunk
		if len(chunk) < int(l.bs) {
			copy(l.tail, chunk)
			clear(l.tail[len(chunk):])
			out = l.tail
		}
		if err := l.store.Write(l.blockOf(ds+uint64(i)), out); err != nil {
			return fmt.Errorf("wal: writing log block: %w", err)
		}
	}
	return nil
}

// Checkpoint writes snap as a checkpoint record, commits it, and
// advances the superblock's start pointer to it: every byte before the
// checkpoint is reclaimed, and the next Recover restores snap first.
// The caller must guarantee snap is consistent with every record
// already staged (the service kernel quiesces its handlers around this
// call).
func (l *Log) Checkpoint(snap []byte) error {
	l.ckMu.Lock()
	defer l.ckMu.Unlock()
	// A failed checkpoint re-arms the pressure signal, so the next
	// append re-triggers a retry instead of leaving the log to fill
	// in silence.
	rearm := func() {
		l.mu.Lock()
		l.signaled = false
		l.mu.Unlock()
	}
	t, at, seq, err := l.stage(kindCheckpoint, snap)
	if err != nil {
		rearm()
		return err
	}
	if err := t.Wait(); err != nil {
		rearm()
		return err
	}
	l.mu.Lock()
	l.start, l.startSeq = at, seq
	l.mu.Unlock()
	if err := l.writeSuper(); err != nil {
		l.mu.Lock()
		err = l.wedge(err)
		l.mu.Unlock()
		return err
	}
	l.mu.Lock()
	l.signaled = false
	l.stats.Checkpoints++
	l.mu.Unlock()
	return nil
}

// SetSink installs fn as the log's commit sink: after every successful
// group commit, the pass hands fn the batch's records — in stage
// (= commit = replay) order, on the leading waiter's goroutine with
// commitMu held (so no two calls overlap), and BEFORE the batch's
// tickets complete, so a handler that replies after Ticket.Wait knows
// the sink has seen its record. Only records staged after the sink is
// installed are delivered (a replica attaching mid-life gets the
// earlier state from a base snapshot instead). A nil fn detaches. The
// sink must not append to this log.
func (l *Log) SetSink(fn func(recs []Record)) {
	l.mu.Lock()
	l.sink = fn
	if fn == nil {
		l.pending = nil
	}
	l.mu.Unlock()
}

// NextSeq returns the sequence number the next staged record will get.
func (l *Log) NextSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq
}

// Barrier returns once every record staged BEFORE the call is on
// stable storage and — on a replicated log — delivered to the commit
// sink. It is the read-your-writes fence for replies that OBSERVE
// state rather than mutate it: a duplicate-suppression error ("entry
// exists"), a read, an absence. Such a reply acknowledges state whose
// record may still be in flight; sending it early would let a client
// learn state that a crash-plus-failover forgets. With no batch in
// flight Barrier is two uncontended mutex hops.
func (l *Log) Barrier() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	t := l.ticket
	l.mu.Unlock()
	if t != nil {
		// The observed record is in this batch or an earlier one;
		// commits are ordered, so this ticket covers it. Wait
		// PASSIVELY — leading the commit here (Ticket.Wait) would split
		// group-commit batches early and charge observers an extra
		// sync+ship; the batch's own appenders lead it, and every staged
		// record has an appender about to Wait (see Append).
		<-t.done
		return t.err
	}
	// No pending ticket: the record's batch is either done or mid-pass
	// (claimed); taking commitMu waits any in-flight pass out.
	l.commitMu.Lock()
	defer l.commitMu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ioErr
}

// Wedged reports whether the log has wedged read-only after an I/O
// failure. A wedged log never recovers in place: the process must
// restart onto a healthy store (or a replica must take over).
func (l *Log) Wedged() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ioErr != nil
}

// OnWedge registers fn to run when the log wedges, with the ErrWedged
// error that did it. Callbacks fire exactly once, each on its own
// goroutine (they may take arbitrary locks — the commit path does not
// wait for them). Registering on an already-wedged log fires fn
// immediately. This is the health signal gray-failure handling hangs
// off: the disk died but the machine still talks, so somebody has to
// say so out loud.
func (l *Log) OnWedge(fn func(err error)) {
	l.mu.Lock()
	if l.ioErr != nil {
		err := l.ioErr
		l.mu.Unlock()
		go fn(err)
		return
	}
	l.onWedge = append(l.onWedge, fn)
	l.mu.Unlock()
}

// Pressure signals (at most once per checkpoint cycle) when the log
// crosses its high-water mark; the kernel's checkpoint loop listens.
func (l *Log) Pressure() <-chan struct{} { return l.pressure }

// Stats returns a snapshot of the counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := l.stats
	s.Used = l.head - l.start
	s.Capacity = l.capacity()
	return s
}

// Close commits any staged stragglers on the caller's goroutine and
// closes the log. Records whose tickets were never waited on are still
// made durable — a crash (see Abandon) loses them instead, which is safe
// because their replies were never sent.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	l.mu.Unlock()
	l.commitMu.Lock()
	l.commit()
	l.commitMu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ioErr
}

// Abandon closes the log the way a machine crash would: staged records
// that have not yet group-committed are DROPPED — no final flush — and
// any waiters on the pending batch fail with ErrClosed. Only records
// whose Wait already returned nil are on the store. The kernel's Crash
// path uses it so kill/restart tests exercise a genuinely unflushed
// tail.
func (l *Log) Abandon() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	t := l.ticket
	l.ticket = nil
	l.mu.Unlock()
	// Fence in-flight commit passes: a leading waiter can be mid-write
	// when Abandon lands. Taking commitMu waits any such pass out, so
	// when Abandon returns no goroutine is writing the store (a Restart
	// may reopen the disk immediately); a waiter that leads after this
	// finds no ticket to take and writes nothing (see commit).
	l.commitMu.Lock()
	l.commitMu.Unlock() //nolint:staticcheck // empty critical section IS the fence
	if t != nil {
		t.err = ErrClosed
		close(t.done)
	}
	return nil
}
