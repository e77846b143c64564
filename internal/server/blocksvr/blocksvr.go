// Package blocksvr implements the Amoeba block server (§3.2): "The
// block server can be requested to allocate a disk block and return a
// capability for it. Using this capability, the block can be written,
// read, or deallocated. The block server has no concept of a file."
//
// Splitting the block server from the file server lets any user build
// special-purpose file systems without touching disk storage
// management; package flatfs is exactly such a client.
package blocksvr

import (
	"context"

	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"

	"amoeba/internal/cap"
	"amoeba/internal/crypto"
	"amoeba/internal/fbox"
	"amoeba/internal/rpc"
	"amoeba/internal/svc"
	"amoeba/internal/vdisk"
	"amoeba/internal/wire"
)

// Operation codes.
const (
	// OpAlloc allocates one block and returns its capability.
	OpAlloc uint16 = 0x0200 + iota
	// OpRead reads the whole block. Needs RightRead.
	OpRead
	// OpWrite replaces the block: data = block bytes (shorter writes
	// are zero-padded to the block size). Needs RightWrite.
	OpWrite
	// OpFree deallocates the block. Needs RightDestroy.
	OpFree
	// OpStat returns blockSize(4) ∥ nblocks(4) ∥ nfree(4). No
	// capability needed (it names no object).
	OpStat
)

// ErrDiskFull is reported (as a server-error status) when no blocks
// remain.
var errDiskFull = fmt.Errorf("blocksvr: disk full")

// Server is a block server instance over one virtual disk. Block
// capabilities use the block number as the object number, so the
// object table and the allocation bitmap stay aligned.
//
// Locking discipline: the data path takes NO server-wide lock — the
// capability check goes through the lock-striped table, liveness is an
// atomic load, and each block has its own mutex held across its vdisk
// I/O. So the server holds no lock of its own that makes operations on
// *different* blocks wait for each other's I/O; whether they overlap
// at the disk is the store's business (vdisk.Disk takes its whole-disk
// lock exclusively for every Write, so writes serialize there).
// Free/write races on the *same* block are serialized (a write that
// passed validation can never land on a block after it has been
// freed, zeroed and reallocated). Only the allocator (bitmap scan,
// free count, cursor) takes allocMu, and it is pure in-memory work.
type Server struct {
	*svc.Kernel
	table *cap.Table
	disk  vdisk.Store

	used  []atomic.Bool // liveness per block; mutated under allocMu/block lock
	locks []sync.Mutex  // per-block I/O locks

	allocMu sync.Mutex
	nfree   uint32
	next    uint32 // allocation cursor
}

// New builds a block server over disk on the service kernel. Call
// Start to begin serving.
func New(fb *fbox.FBox, scheme cap.Scheme, src crypto.Source, disk vdisk.Store) (*Server, error) {
	return build(fb, scheme, svc.Config{Source: src}, disk)
}

// NewWithPort is New with an explicit secret get-port, for services
// that must reappear at the same put-port after a restart (pair with
// a persistent disk and the kernel's RestoreEnvelope: a block server's
// checkpoint is its table alone).
func NewWithPort(fb *fbox.FBox, scheme cap.Scheme, g cap.Port, disk vdisk.Store) (*Server, error) {
	return build(fb, scheme, svc.Config{Port: g}, disk)
}

func build(fb *fbox.FBox, scheme cap.Scheme, cfg svc.Config, disk vdisk.Store) (*Server, error) {
	if disk.NBlocks() > cap.ObjectMask {
		return nil, fmt.Errorf("blocksvr: disk has %d blocks; capabilities address at most %d",
			disk.NBlocks(), cap.ObjectMask)
	}
	s := &Server{
		disk:  disk,
		used:  make([]atomic.Bool, disk.NBlocks()),
		locks: make([]sync.Mutex, disk.NBlocks()),
		nfree: disk.NBlocks(),
	}
	cfg.Restore = s.restoreBitmap
	s.Kernel = svc.NewWithConfig(fb, scheme, cfg)
	s.table = s.Table()
	s.Handle(OpAlloc, s.alloc)
	s.Handle(OpRead, s.read)
	s.Handle(OpWrite, s.write)
	s.Handle(OpFree, s.free)
	s.Handle(OpStat, s.stat)
	return s, nil
}

func (s *Server) alloc(_ context.Context, _ rpc.Meta, _ rpc.Request) rpc.Reply {
	s.allocMu.Lock()
	if s.nfree == 0 {
		s.allocMu.Unlock()
		return rpc.ErrReplyFromErr(errDiskFull)
	}
	var block uint32
	found := false
	for i := uint32(0); i < s.disk.NBlocks(); i++ {
		b := (s.next + i) % s.disk.NBlocks()
		if !s.used[b].Load() {
			block = b
			found = true
			break
		}
	}
	if !found { // nfree said otherwise; internal inconsistency
		s.allocMu.Unlock()
		return rpc.ErrReplyFromErr(errDiskFull)
	}
	s.used[block].Store(true)
	s.nfree--
	s.next = block + 1
	s.allocMu.Unlock()

	c, err := s.table.CreateObject(block)
	if err != nil {
		s.allocMu.Lock()
		s.used[block].Store(false)
		s.nfree++
		s.allocMu.Unlock()
		return rpc.ErrReplyFromErr(err)
	}
	return rpc.CapReply(c)
}

// demandBlock validates the capability and checks the block is live.
// It takes no lock beyond the table lookup: liveness is an atomic
// load, so the data path never serializes behind the allocator.
func (s *Server) demandBlock(c cap.Capability, need cap.Rights) (uint32, error) {
	if _, err := s.table.Demand(c, need); err != nil {
		return 0, err
	}
	block := c.Object
	if block >= uint32(len(s.used)) || !s.used[block].Load() {
		return 0, fmt.Errorf("blocksvr: block %d not allocated: %w", block, cap.ErrNoSuchObject)
	}
	return block, nil
}

func (s *Server) read(_ context.Context, _ rpc.Meta, req rpc.Request) rpc.Reply {
	block, err := s.demandBlock(req.Cap, cap.RightRead)
	if err != nil {
		return rpc.ErrReplyFromErr(err)
	}
	s.locks[block].Lock()
	defer s.locks[block].Unlock()
	// Re-VALIDATE under the block lock, not just re-check liveness: if
	// a free won the race and the block was reallocated, the new owner
	// has a fresh secret, so a stale capability fails here (an ABA the
	// used flag alone cannot see).
	if _, err := s.demandBlock(req.Cap, cap.RightRead); err != nil {
		return rpc.ErrReplyFromErr(err)
	}
	// Read straight into a pooled reply buffer that ships on the wire
	// as-is: no per-read block allocation, no reply copy.
	b := rpc.NewReplyBuf(s.disk.BlockSize())
	if err := s.disk.ReadInto(block, b.Extend(s.disk.BlockSize())); err != nil {
		b.Release()
		return rpc.ErrReplyFromErr(err)
	}
	return rpc.OkReplyBuf(b)
}

func (s *Server) write(_ context.Context, _ rpc.Meta, req rpc.Request) rpc.Reply {
	block, err := s.demandBlock(req.Cap, cap.RightWrite)
	if err != nil {
		return rpc.ErrReplyFromErr(err)
	}
	if len(req.Data) > s.disk.BlockSize() {
		return rpc.ErrReply(rpc.StatusBadRequest,
			fmt.Sprintf("write of %d bytes into %d-byte block", len(req.Data), s.disk.BlockSize()))
	}
	// A full block goes to the disk straight from the request, which
	// the disk copies into its own storage; only a short write is
	// zero-padded, in pooled scratch released after the disk's copy.
	img := req.Data
	if len(img) < s.disk.BlockSize() {
		b := wire.Get(0, s.disk.BlockSize())
		defer b.Release()
		img = b.Extend(s.disk.BlockSize())
		clear(img[copy(img, req.Data):])
	}
	s.locks[block].Lock()
	defer s.locks[block].Unlock()
	// See read: re-validate, don't just re-check the reusable flag.
	if _, err := s.demandBlock(req.Cap, cap.RightWrite); err != nil {
		return rpc.ErrReplyFromErr(err)
	}
	if err := s.disk.Write(block, img); err != nil {
		return rpc.ErrReplyFromErr(err)
	}
	return rpc.OkReply(nil)
}

func (s *Server) free(_ context.Context, _ rpc.Meta, req rpc.Request) rpc.Reply {
	block, err := s.demandBlock(req.Cap, cap.RightDestroy)
	if err != nil {
		return rpc.ErrReplyFromErr(err)
	}
	// The block lock spans the table destroy, the zeroing and the
	// bitmap release: an in-flight read/write that already validated
	// waits here and then fails its liveness re-check, so no I/O can
	// land on the block once it is reallocated.
	s.locks[block].Lock()
	defer s.locks[block].Unlock()
	if err := s.table.Destroy(req.Cap); err != nil {
		return rpc.ErrReplyFromErr(err)
	}
	// Zero on free so the next holder of this block number cannot read
	// stale contents.
	if err := s.disk.Zero(block); err != nil {
		return rpc.ErrReplyFromErr(err)
	}
	s.allocMu.Lock()
	s.used[block].Store(false)
	s.nfree++
	s.allocMu.Unlock()
	return rpc.OkReply(nil)
}

func (s *Server) stat(_ context.Context, _ rpc.Meta, _ rpc.Request) rpc.Reply {
	s.allocMu.Lock()
	nfree := s.nfree
	s.allocMu.Unlock()
	out := make([]byte, 12)
	binary.BigEndian.PutUint32(out[0:], uint32(s.disk.BlockSize()))
	binary.BigEndian.PutUint32(out[4:], s.disk.NBlocks())
	binary.BigEndian.PutUint32(out[8:], nfree)
	return rpc.OkReply(out)
}

// Client is the typed client for a block server.
type Client struct {
	c    *rpc.Client
	port cap.Port

	// bsize caches the disk block size (learned from Stat on first
	// use) for sizing batch transactions against the MTU. The fast
	// path is a lock-free load; bsizeMu only serializes the one-time
	// probe so concurrent first users issue a single Stat.
	bsize   atomic.Int64
	bsizeMu sync.Mutex
}

// NewClient builds a client speaking to the block server at port.
func NewClient(c *rpc.Client, port cap.Port) *Client {
	return &Client{c: c, port: port}
}

// Port returns the server's put-port.
func (b *Client) Port() cap.Port { return b.port }

// Alloc allocates a block and returns its capability.
func (b *Client) Alloc(ctx context.Context) (cap.Capability, error) {
	rep, err := b.c.Trans(ctx, b.port, rpc.Request{Op: OpAlloc})
	if err != nil {
		return cap.Nil, err
	}
	if rep.Status != rpc.StatusOK {
		return cap.Nil, &rpc.StatusError{Status: rep.Status, Detail: string(rep.Data)}
	}
	return rep.Cap, nil
}

// Read returns the block's contents.
func (b *Client) Read(ctx context.Context, blk cap.Capability) ([]byte, error) {
	rep, err := b.c.Call(ctx, blk, OpRead, nil)
	if err != nil {
		return nil, err
	}
	return rep.Data, nil
}

// Write replaces the block's contents (zero-padded to the block size).
func (b *Client) Write(ctx context.Context, blk cap.Capability, data []byte) error {
	_, err := b.c.Call(ctx, blk, OpWrite, data)
	return err
}

// Free deallocates the block.
func (b *Client) Free(ctx context.Context, blk cap.Capability) error {
	_, err := b.c.Call(ctx, blk, OpFree, nil)
	return err
}

// Stat returns the disk geometry and free count.
func (b *Client) Stat(ctx context.Context) (blockSize, nblocks, nfree uint32, err error) {
	rep, err := b.c.Trans(ctx, b.port, rpc.Request{Op: OpStat})
	if err != nil {
		return 0, 0, 0, err
	}
	if rep.Status != rpc.StatusOK {
		return 0, 0, 0, &rpc.StatusError{Status: rep.Status, Detail: string(rep.Data)}
	}
	if len(rep.Data) != 12 {
		return 0, 0, 0, fmt.Errorf("blocksvr: stat reply %d bytes", len(rep.Data))
	}
	bs := binary.BigEndian.Uint32(rep.Data[0:])
	if bs > 0 {
		b.bsize.Store(int64(bs)) // feed the batch-sizing cache for free
	}
	return bs,
		binary.BigEndian.Uint32(rep.Data[4:]),
		binary.BigEndian.Uint32(rep.Data[8:]), nil
}

// batchItemOverhead is a conservative per-item wire overhead for
// sizing batch transactions: request header, reply header and the
// batch length prefixes.
const batchItemOverhead = 64

// batchBlockSize returns the disk block size, probing Stat once and
// caching the answer.
func (b *Client) batchBlockSize(ctx context.Context) (int, error) {
	if bs := b.bsize.Load(); bs != 0 {
		return int(bs), nil
	}
	b.bsizeMu.Lock()
	defer b.bsizeMu.Unlock()
	if bs := b.bsize.Load(); bs != 0 { // lost the probe race: done
		return int(bs), nil
	}
	bs, _, _, err := b.Stat(ctx)
	if err != nil {
		return 0, err
	}
	b.bsize.Store(int64(bs))
	return int(bs), nil
}

// chunk splits n items into runs of at most per (per >= 1), calling fn
// with each [lo, hi) range and stopping on the first error.
func chunk(n, per int, fn func(lo, hi int) error) error {
	if per < 1 {
		per = 1
	}
	for lo := 0; lo < n; lo += per {
		hi := lo + per
		if hi > n {
			hi = n
		}
		if err := fn(lo, hi); err != nil {
			return err
		}
	}
	return nil
}

// ReadBatch reads many blocks in as few transactions as possible: the
// block capabilities are packed into OpBatch frames sized against the
// network MTU, the server runs each frame's reads in order on one
// worker, and the contents come back in order — one round trip where a
// loop over Read would take N. Any failed sub-read fails the whole call.
func (b *Client) ReadBatch(ctx context.Context, blks []cap.Capability, opts ...rpc.CallOption) ([][]byte, error) {
	if len(blks) == 0 {
		return nil, nil
	}
	bsize, err := b.batchBlockSize(ctx)
	if err != nil {
		return nil, err
	}
	per := rpc.MaxBatchBytes / (bsize + batchItemOverhead)
	out := make([][]byte, 0, len(blks))
	err = chunk(len(blks), per, func(lo, hi int) error {
		reqs := make([]rpc.Request, hi-lo)
		for i, c := range blks[lo:hi] {
			reqs[i] = rpc.Request{Cap: c, Op: OpRead}
		}
		reps, err := b.c.Batch(ctx, b.port, reqs, opts...)
		if err != nil {
			return err
		}
		for i, rep := range reps {
			if rep.Status != rpc.StatusOK {
				return fmt.Errorf("blocksvr: batch read item %d: %w", lo+i,
					&rpc.StatusError{Status: rep.Status, Detail: string(rep.Data)})
			}
			out = append(out, rep.Data)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// WriteBatch writes many blocks in as few transactions as possible
// (see ReadBatch). data[i] replaces the block named by blks[i],
// zero-padded to the block size. Any failed sub-write fails the whole
// call; earlier sub-writes in the same frame may have been applied
// (batches are not transactionally atomic, matching the paper's
// individual operations).
func (b *Client) WriteBatch(ctx context.Context, blks []cap.Capability, data [][]byte, opts ...rpc.CallOption) error {
	if len(blks) != len(data) {
		return fmt.Errorf("blocksvr: WriteBatch: %d capabilities, %d payloads", len(blks), len(data))
	}
	if len(blks) == 0 {
		return nil
	}
	bsize, err := b.batchBlockSize(ctx)
	if err != nil {
		return err
	}
	per := rpc.MaxBatchBytes / (bsize + batchItemOverhead)
	return chunk(len(blks), per, func(lo, hi int) error {
		reqs := make([]rpc.Request, hi-lo)
		for i := range reqs {
			reqs[i] = rpc.Request{Cap: blks[lo+i], Op: OpWrite, Data: data[lo+i]}
		}
		reps, err := b.c.Batch(ctx, b.port, reqs, opts...)
		if err != nil {
			return err
		}
		for i, rep := range reps {
			if rep.Status != rpc.StatusOK {
				return fmt.Errorf("blocksvr: batch write item %d: %w", lo+i,
					&rpc.StatusError{Status: rep.Status, Detail: string(rep.Data)})
			}
		}
		return nil
	})
}

// AllocBatch allocates n blocks in as few transactions as possible,
// returning their capabilities. On a partial failure the blocks
// already allocated are returned along with the error so the caller
// can free them.
func (b *Client) AllocBatch(ctx context.Context, n int, opts ...rpc.CallOption) ([]cap.Capability, error) {
	out := make([]cap.Capability, 0, n)
	err := chunk(n, 1024, func(lo, hi int) error {
		reqs := make([]rpc.Request, hi-lo)
		for i := range reqs {
			reqs[i] = rpc.Request{Op: OpAlloc}
		}
		reps, err := b.c.Batch(ctx, b.port, reqs, opts...)
		if err != nil {
			return err
		}
		for i, rep := range reps {
			if rep.Status != rpc.StatusOK {
				return fmt.Errorf("blocksvr: batch alloc item %d: %w", lo+i,
					&rpc.StatusError{Status: rep.Status, Detail: string(rep.Data)})
			}
			out = append(out, rep.Cap)
		}
		return nil
	})
	return out, err
}

// FreeBatch deallocates many blocks in as few transactions as
// possible. It keeps going past per-block failures (a destroy sweep
// wants every block it can release gone) and returns the first error.
func (b *Client) FreeBatch(ctx context.Context, blks []cap.Capability, opts ...rpc.CallOption) error {
	var firstErr error
	_ = chunk(len(blks), 1024, func(lo, hi int) error {
		reqs := make([]rpc.Request, hi-lo)
		for i := range reqs {
			reqs[i] = rpc.Request{Cap: blks[lo+i], Op: OpFree}
		}
		reps, err := b.c.Batch(ctx, b.port, reqs, opts...)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			return nil // keep freeing the rest
		}
		for i, rep := range reps {
			if rep.Status != rpc.StatusOK && firstErr == nil {
				firstErr = fmt.Errorf("blocksvr: batch free item %d: %w", lo+i,
					&rpc.StatusError{Status: rep.Status, Detail: string(rep.Data)})
			}
		}
		return nil
	})
	return firstErr
}

// Restrict fabricates a weaker capability via the server.
func (b *Client) Restrict(ctx context.Context, c cap.Capability, mask cap.Rights) (cap.Capability, error) {
	return b.c.Restrict(ctx, c, mask)
}

// restoreBitmap rebuilds the allocation bitmap from the object table,
// which the kernel has just restored: object numbers are block
// numbers, so the table alone is the block server's checkpoint.
func (s *Server) restoreBitmap([]byte) error {
	s.allocMu.Lock()
	defer s.allocMu.Unlock()
	for i := range s.used {
		s.used[i].Store(false)
	}
	s.nfree = s.disk.NBlocks()
	for _, obj := range s.table.Objects() {
		if obj >= s.disk.NBlocks() {
			return fmt.Errorf("blocksvr: checkpoint names block %d beyond disk (%d blocks)", obj, s.disk.NBlocks())
		}
		s.used[obj].Store(true)
		s.nfree--
	}
	return nil
}
