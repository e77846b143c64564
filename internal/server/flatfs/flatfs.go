// Package flatfs implements the Amoeba flat file server (§3.3): files
// are linear byte sequences with CREATE FILE, DESTROY FILE, WRITE FILE
// and READ FILE, each operation naming the file by capability and a
// position by parameter. "The server does not have any concept of an
// 'open' file. One can operate on any file for which a valid
// capability can be presented."
//
// True to the modular design of §3.2, the flat file server stores its
// data through a *block server client*: it is itself an ordinary
// client of another capability-protected service, holding block
// capabilities in its file tables. The two servers may run on
// different machines; the file server neither knows nor cares.
package flatfs

import (
	"context"
	"encoding/binary"
	"fmt"
	"sync"

	"amoeba/internal/cap"
	"amoeba/internal/crypto"
	"amoeba/internal/fbox"
	"amoeba/internal/rpc"
	"amoeba/internal/server/blocksvr"
	"amoeba/internal/store"
	"amoeba/internal/svc"
)

// Operation codes.
const (
	// OpCreate creates an empty file and returns its capability.
	OpCreate uint16 = 0x0300 + iota
	// OpDestroy destroys the file, freeing its blocks. Needs
	// RightDestroy.
	OpDestroy
	// OpWrite writes at a position: data = pos(8) ∥ bytes. The file
	// grows as needed. Needs RightWrite.
	OpWrite
	// OpRead reads from a position: data = pos(8) ∥ length(4); returns
	// up to length bytes, short at end of file. Needs RightRead.
	OpRead
	// OpSize returns the file size (8 bytes). Needs RightRead.
	OpSize
	// OpTruncate sets the size: data = size(8). Shrinking frees whole
	// blocks beyond the new end. Needs RightWrite.
	OpTruncate
)

// MaxFileSize bounds a single file (256 MiB here; the object is to
// keep runaway tests honest, not to model 1986 drives).
const MaxFileSize = 256 << 20

// file is the per-file table entry: the block capabilities that make
// up the file, in order, plus the byte size.
type file struct {
	mu     sync.RWMutex
	size   uint64
	blocks []cap.Capability
}

// Server is a flat file server instance. The file index is a
// lock-striped map keyed by object number with a lock per file, so
// operations on different files proceed in parallel; block transfers
// to the block server ride OpBatch frames, so a spanning read or
// write costs one nested round trip instead of one per block.
type Server struct {
	*svc.Kernel
	table  *cap.Table
	blocks *blocksvr.Client
	bsize  uint64

	files *store.Map[*file]
}

// New builds a flat file server on the service kernel, storing data
// via blocks, whose block size it learns with a Stat transaction at
// construction time (bounded by ctx).
func New(ctx context.Context, fb *fbox.FBox, scheme cap.Scheme, src crypto.Source, blocks *blocksvr.Client) (*Server, error) {
	bs, _, _, err := blocks.Stat(ctx)
	if err != nil {
		return nil, fmt.Errorf("flatfs: probing block server: %w", err)
	}
	s := &Server{
		Kernel: svc.New(fb, scheme, src),
		blocks: blocks,
		bsize:  uint64(bs),
		files:  store.New[*file](0),
	}
	s.table = s.Table()
	s.Handle(OpCreate, s.create)
	s.Handle(OpDestroy, s.destroy)
	s.Handle(OpWrite, s.write)
	s.Handle(OpRead, s.read)
	s.Handle(OpSize, s.sizeOp)
	s.Handle(OpTruncate, s.truncate)
	return s, nil
}

func (s *Server) create(_ context.Context, _ rpc.Meta, _ rpc.Request) rpc.Reply {
	c, err := s.table.Create()
	if err != nil {
		return rpc.ErrReplyFromErr(err)
	}
	s.files.Put(c.Object, &file{})
	return rpc.CapReply(c)
}

func (s *Server) lookup(c cap.Capability, need cap.Rights) (*file, error) {
	if _, err := s.table.Demand(c, need); err != nil {
		return nil, err
	}
	f, ok := s.files.Get(c.Object)
	if !ok {
		return nil, fmt.Errorf("flatfs: object %d: %w", c.Object, cap.ErrNoSuchObject)
	}
	return f, nil
}

func (s *Server) destroy(ctx context.Context, _ rpc.Meta, req rpc.Request) rpc.Reply {
	f, err := s.lookup(req.Cap, cap.RightDestroy)
	if err != nil {
		return rpc.ErrReplyFromErr(err)
	}
	// Winning the state delete elects THE destroyer: state leaves the
	// map before the number can be reused, and only the winner retires
	// the (already Demand-checked) table entry — by number, so a
	// concurrent revoke cannot leave an orphaned entry behind.
	if _, ok := s.files.Delete(req.Cap.Object); !ok {
		return rpc.ErrReplyFromErr(fmt.Errorf("flatfs: object %d: %w", req.Cap.Object, cap.ErrNoSuchObject))
	}
	if err := s.table.DestroyObject(req.Cap.Object); err != nil {
		return rpc.ErrReplyFromErr(err)
	}
	f.mu.Lock()
	blocks := f.blocks
	f.blocks = nil
	f.size = 0
	f.mu.Unlock()
	// Free the data blocks in batched frames; best effort (an
	// unreachable block server leaves orphans, the 1986 answer being a
	// scavenger pass). The file object is already gone, so this
	// cleanup must not be cut short by the caller's deadline — but it
	// still aborts on server shutdown.
	_ = s.blocks.FreeBatch(rpc.WithoutDeadline(ctx), blocks)
	return rpc.OkReply(nil)
}

func (s *Server) write(ctx context.Context, _ rpc.Meta, req rpc.Request) rpc.Reply {
	if len(req.Data) < 8 {
		return rpc.ErrReply(rpc.StatusBadRequest, "write wants pos(8) ∥ bytes")
	}
	f, err := s.lookup(req.Cap, cap.RightWrite)
	if err != nil {
		return rpc.ErrReplyFromErr(err)
	}
	pos := binary.BigEndian.Uint64(req.Data)
	payload := req.Data[8:]
	if pos+uint64(len(payload)) > MaxFileSize {
		return rpc.ErrReply(rpc.StatusBadRequest, "file size limit exceeded")
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	end := pos + uint64(len(payload))
	if err := s.growLocked(ctx, f, end); err != nil {
		return rpc.ErrReplyFromErr(err)
	}
	// An empty write only extends the file (possibly growing it) —
	// there is no span to rewrite.
	if len(payload) == 0 {
		if end > f.size {
			f.size = end
		}
		return rpc.OkReply(nil)
	}
	// Read-modify-write, batched: a block the payload covers whole is
	// written straight from the request (the batch frame is its only
	// copy); only the boundary blocks it covers partially — at most the
	// first and the last — have their current contents fetched. All
	// reads ride one batch frame, then all writes ride another: two
	// nested round trips for the whole span instead of two per block.
	first := pos / s.bsize
	last := (end - 1) / s.bsize
	images := make([][]byte, last-first+1)
	var bound [2]int // images indexes of the partially covered blocks
	var partial [2]cap.Capability
	nb := 0
	for i := range images {
		bstart := (first + uint64(i)) * s.bsize
		if pos > bstart || end < bstart+s.bsize {
			bound[nb], partial[nb] = i, f.blocks[first+uint64(i)]
			nb++
		} else {
			images[i] = payload[bstart-pos : bstart-pos+s.bsize]
		}
	}
	if nb > 0 {
		blks, err := s.blocks.ReadBatch(ctx, partial[:nb])
		if err != nil {
			return rpc.ErrReplyFromErr(err)
		}
		for j, i := range bound[:nb] {
			bstart := (first + uint64(i)) * s.bsize
			lo := uint64(0)
			if pos > bstart {
				lo = pos - bstart
			}
			hi := min(end-bstart, s.bsize)
			copy(blks[j][lo:hi], payload[bstart+lo-pos:])
			images[i] = blks[j]
		}
	}
	if err := s.blocks.WriteBatch(ctx, f.blocks[first:last+1], images); err != nil {
		return rpc.ErrReplyFromErr(err)
	}
	if end > f.size {
		f.size = end
	}
	return rpc.OkReply(nil)
}

// growLocked extends the block list to cover [0, end), allocating all
// missing blocks in one batched transaction.
func (s *Server) growLocked(ctx context.Context, f *file, end uint64) error {
	need := int((end + s.bsize - 1) / s.bsize)
	if missing := need - len(f.blocks); missing > 0 {
		bs, err := s.blocks.AllocBatch(ctx, missing)
		// Keep whatever was allocated — it is tracked for later
		// freeing either way.
		f.blocks = append(f.blocks, bs...)
		if err != nil {
			return fmt.Errorf("flatfs: allocating %d blocks: %w", missing, err)
		}
	}
	return nil
}

func (s *Server) read(ctx context.Context, _ rpc.Meta, req rpc.Request) rpc.Reply {
	if len(req.Data) != 12 {
		return rpc.ErrReply(rpc.StatusBadRequest, "read wants pos(8) ∥ length(4)")
	}
	f, err := s.lookup(req.Cap, cap.RightRead)
	if err != nil {
		return rpc.ErrReplyFromErr(err)
	}
	pos := binary.BigEndian.Uint64(req.Data)
	want := uint64(binary.BigEndian.Uint32(req.Data[8:]))
	f.mu.RLock()
	defer f.mu.RUnlock()
	if pos >= f.size {
		return rpc.OkReply(nil) // read at or past EOF: empty
	}
	if pos+want > f.size {
		want = f.size - pos
	}
	if want == 0 {
		return rpc.OkReply(nil)
	}
	// Fetch every spanned block in one batched transaction — the
	// headline win over a per-block read loop (see BenchmarkBatch_*).
	first := pos / s.bsize
	last := (pos + want - 1) / s.bsize
	blks, err := s.blocks.ReadBatch(ctx, f.blocks[first:last+1])
	if err != nil {
		return rpc.ErrReplyFromErr(err)
	}
	// Assemble the span in a pooled reply buffer that ships on the
	// wire in place.
	out := rpc.NewReplyBuf(int(want))
	for off := pos; off < pos+want; {
		bi := off / s.bsize
		bo := off % s.bsize
		n := s.bsize - bo
		if n > pos+want-off {
			n = pos + want - off
		}
		out.AppendBytes(blks[bi-first][bo : bo+n])
		off += n
	}
	return rpc.OkReplyBuf(out)
}

func (s *Server) sizeOp(_ context.Context, _ rpc.Meta, req rpc.Request) rpc.Reply {
	f, err := s.lookup(req.Cap, cap.RightRead)
	if err != nil {
		return rpc.ErrReplyFromErr(err)
	}
	f.mu.RLock()
	defer f.mu.RUnlock()
	var out [8]byte
	binary.BigEndian.PutUint64(out[:], f.size)
	return rpc.OkReply(out[:])
}

func (s *Server) truncate(ctx context.Context, _ rpc.Meta, req rpc.Request) rpc.Reply {
	if len(req.Data) != 8 {
		return rpc.ErrReply(rpc.StatusBadRequest, "truncate wants size(8)")
	}
	f, err := s.lookup(req.Cap, cap.RightWrite)
	if err != nil {
		return rpc.ErrReplyFromErr(err)
	}
	newSize := binary.BigEndian.Uint64(req.Data)
	if newSize > MaxFileSize {
		return rpc.ErrReply(rpc.StatusBadRequest, "file size limit exceeded")
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if newSize >= f.size {
		if err := s.growLocked(ctx, f, newSize); err != nil {
			return rpc.ErrReplyFromErr(err)
		}
		f.size = newSize
		return rpc.OkReply(nil)
	}
	keep := int((newSize + s.bsize - 1) / s.bsize)
	freed := append([]cap.Capability(nil), f.blocks[keep:]...)
	f.blocks = f.blocks[:keep]
	f.size = newSize
	// Past the point of no return: the frees and the tail zeroing run
	// under a context immune to the caller's deadline (see destroy).
	// Zeroing strictly after the size commit means a lost reply can at
	// worst leave stale bytes past EOF, never touch live data.
	cleanup := rpc.WithoutDeadline(ctx)
	_ = s.blocks.FreeBatch(cleanup, freed)
	// Zero the tail of the last kept block so regrowth reads zeros.
	if keep > 0 && newSize%s.bsize != 0 {
		blk, err := s.blocks.Read(cleanup, f.blocks[keep-1])
		if err != nil {
			return rpc.ErrReplyFromErr(err)
		}
		for i := newSize % s.bsize; i < s.bsize; i++ {
			blk[i] = 0
		}
		if err := s.blocks.Write(cleanup, f.blocks[keep-1], blk); err != nil {
			return rpc.ErrReplyFromErr(err)
		}
	}
	return rpc.OkReply(nil)
}

// Client is the typed client for a flat file server.
type Client struct {
	c    *rpc.Client
	port cap.Port
}

// NewClient builds a client speaking to the file server at port.
func NewClient(c *rpc.Client, port cap.Port) *Client {
	return &Client{c: c, port: port}
}

// Port returns the server's put-port.
func (f *Client) Port() cap.Port { return f.port }

// Create creates an empty file and returns its capability.
func (f *Client) Create(ctx context.Context) (cap.Capability, error) {
	rep, err := f.c.Trans(ctx, f.port, rpc.Request{Op: OpCreate})
	if err != nil {
		return cap.Nil, err
	}
	if rep.Status != rpc.StatusOK {
		return cap.Nil, &rpc.StatusError{Status: rep.Status, Detail: string(rep.Data)}
	}
	return rep.Cap, nil
}

// Destroy destroys the file.
func (f *Client) Destroy(ctx context.Context, fc cap.Capability) error {
	_, err := f.c.Call(ctx, fc, OpDestroy, nil)
	return err
}

// transferChunk bounds a single WRITE/READ transaction's data so
// requests stay well under the network MTU; larger operations are
// split into a succession of transactions, exactly the §2.3 example's
// "succession of data messages, each containing the capability and
// some data".
const transferChunk = 64 << 10

// WriteAt writes data at pos, growing the file as needed. Writes
// larger than one transaction's worth are split into a succession of
// messages; each chunk is atomic, the whole write is not (neither were
// the paper's).
func (f *Client) WriteAt(ctx context.Context, fc cap.Capability, pos uint64, data []byte) error {
	for {
		n := len(data)
		if n > transferChunk {
			n = transferChunk
		}
		var hdr [8]byte
		binary.BigEndian.PutUint64(hdr[:], pos)
		if _, err := f.c.CallParts(ctx, fc, OpWrite, hdr[:], data[:n]); err != nil {
			return err
		}
		pos += uint64(n)
		data = data[n:]
		if len(data) == 0 {
			return nil
		}
	}
}

// ReadAt reads up to length bytes at pos (short at EOF), splitting
// large reads into a succession of transactions.
func (f *Client) ReadAt(ctx context.Context, fc cap.Capability, pos uint64, length uint32) ([]byte, error) {
	var out []byte
	for length > 0 {
		n := length
		if n > transferChunk {
			n = transferChunk
		}
		var buf [12]byte
		binary.BigEndian.PutUint64(buf[0:], pos)
		binary.BigEndian.PutUint32(buf[8:], n)
		rep, err := f.c.Call(ctx, fc, OpRead, buf[:])
		if err != nil {
			return nil, err
		}
		if out == nil && uint32(len(rep.Data)) == length {
			return rep.Data, nil // common single-chunk case: no copy
		}
		out = append(out, rep.Data...)
		if uint32(len(rep.Data)) < n {
			break // EOF
		}
		pos += uint64(n)
		length -= n
	}
	return out, nil
}

// Size returns the file size.
func (f *Client) Size(ctx context.Context, fc cap.Capability) (uint64, error) {
	rep, err := f.c.Call(ctx, fc, OpSize, nil)
	if err != nil {
		return 0, err
	}
	if len(rep.Data) != 8 {
		return 0, fmt.Errorf("flatfs: size reply %d bytes", len(rep.Data))
	}
	return binary.BigEndian.Uint64(rep.Data), nil
}

// Truncate sets the file size.
func (f *Client) Truncate(ctx context.Context, fc cap.Capability, size uint64) error {
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], size)
	_, err := f.c.Call(ctx, fc, OpTruncate, buf[:])
	return err
}

// Restrict fabricates a weaker capability via the server.
func (f *Client) Restrict(ctx context.Context, c cap.Capability, mask cap.Rights) (cap.Capability, error) {
	return f.c.Restrict(ctx, c, mask)
}

// Revoke re-keys the file object.
func (f *Client) Revoke(ctx context.Context, c cap.Capability) (cap.Capability, error) {
	return f.c.Revoke(ctx, c)
}
