package flatfs

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	"amoeba/internal/cap"
	"amoeba/internal/fbox"
	"amoeba/internal/rpc"
	"amoeba/internal/server/blocksvr"
	"amoeba/internal/server/servertest"
	"amoeba/internal/vdisk"
)

// newStack builds block server + flat file server on separate machines.
func newStack(t *testing.T, nblocks uint32, blockSize int) (*servertest.Rig, *Client, *blocksvr.Client) {
	ctx := context.Background()
	t.Helper()
	r := servertest.New(t, 0xF1A7)
	scheme, err := cap.NewScheme(cap.SchemeOneWay)
	if err != nil {
		t.Fatal(err)
	}
	disk, err := vdisk.New(nblocks, blockSize)
	if err != nil {
		t.Fatal(err)
	}
	bs, err := blocksvr.New(r.NewFBox(t), scheme, r.Src, disk)
	if err != nil {
		t.Fatal(err)
	}
	if err := bs.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { bs.Close() })

	// The file server is a *client* of the block server, on its own
	// machine with its own RPC client.
	fsFB := r.NewFBox(t)
	fsRPC := r.NewClient(t)
	bclient := blocksvr.NewClient(fsRPC, bs.PutPort())
	fs, err := New(ctx, fsFB, scheme, r.Src, bclient)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fs.Close() })
	return r, NewClient(r.Client, fs.PutPort()), blocksvr.NewClient(r.Client, bs.PutPort())
}

func TestCreateWriteRead(t *testing.T) {
	ctx := context.Background()
	_, fc, _ := newStack(t, 64, 64)
	f, err := fc.Create(ctx)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("files are linear byte sequences numbered from 0 to size-1")
	if err := fc.WriteAt(ctx, f, 0, msg); err != nil {
		t.Fatal(err)
	}
	got, err := fc.ReadAt(ctx, f, 0, uint32(len(msg)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("read %q", got)
	}
	size, err := fc.Size(ctx, f)
	if err != nil {
		t.Fatal(err)
	}
	if size != uint64(len(msg)) {
		t.Fatalf("size = %d", size)
	}
}

func TestWriteSpansBlocks(t *testing.T) {
	ctx := context.Background()
	_, fc, _ := newStack(t, 64, 16) // tiny blocks force spanning
	f, err := fc.Create(ctx)
	if err != nil {
		t.Fatal(err)
	}
	msg := bytes.Repeat([]byte("0123456789"), 10) // 100 bytes over 16-byte blocks
	if err := fc.WriteAt(ctx, f, 5, msg); err != nil {
		t.Fatal(err)
	}
	got, err := fc.ReadAt(ctx, f, 5, 100)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("cross-block write corrupted data")
	}
	// Leading gap reads as zeros.
	head, err := fc.ReadAt(ctx, f, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(head, make([]byte, 5)) {
		t.Fatalf("hole read %v", head)
	}
}

func TestReadPastEOF(t *testing.T) {
	ctx := context.Background()
	_, fc, _ := newStack(t, 16, 32)
	f, err := fc.Create(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := fc.WriteAt(ctx, f, 0, []byte("abc")); err != nil {
		t.Fatal(err)
	}
	got, err := fc.ReadAt(ctx, f, 1, 100)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "bc" {
		t.Fatalf("short read %q", got)
	}
	empty, err := fc.ReadAt(ctx, f, 50, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(empty) != 0 {
		t.Fatalf("read past EOF returned %d bytes", len(empty))
	}
}

func TestOverwrite(t *testing.T) {
	ctx := context.Background()
	_, fc, _ := newStack(t, 16, 32)
	f, err := fc.Create(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := fc.WriteAt(ctx, f, 0, []byte("aaaaaaaaaa")); err != nil {
		t.Fatal(err)
	}
	if err := fc.WriteAt(ctx, f, 3, []byte("BBB")); err != nil {
		t.Fatal(err)
	}
	got, err := fc.ReadAt(ctx, f, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "aaaBBBaaaa" {
		t.Fatalf("overwrite result %q", got)
	}
}

func TestUnalignedWritesReadBackExact(t *testing.T) {
	// Blocks the payload covers whole are written straight from the
	// request; the boundary blocks are read, patched and written back.
	// Each write below mixes the two, and the whole file must match a
	// local model byte for byte afterwards.
	ctx := context.Background()
	const bs = 16
	_, fc, _ := newStack(t, 64, bs)
	f, err := fc.Create(ctx)
	if err != nil {
		t.Fatal(err)
	}
	model := make([]byte, 12*bs)
	for i := range model {
		model[i] = byte(i)
	}
	if err := fc.WriteAt(ctx, f, 0, model); err != nil {
		t.Fatal(err)
	}
	fill := byte(0x80)
	for _, w := range []struct {
		name     string
		pos, len int
	}{
		{"mid-block to mid-block across whole blocks", 5, 4*bs + 7},
		{"exactly one aligned block", 3 * bs, bs},
		{"one block's length, unaligned", 7*bs + 9, bs},
		{"whole aligned blocks", 8 * bs, 3 * bs},
		{"inside one block", 2*bs + 3, 5},
		{"growing the file from mid-block", 11*bs + 4, 2*bs + 1},
	} {
		data := make([]byte, w.len)
		for k := range data {
			data[k] = fill + byte(k*7)
		}
		fill += 0x10
		if err := fc.WriteAt(ctx, f, uint64(w.pos), data); err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if end := w.pos + w.len; end > len(model) {
			model = append(model, make([]byte, end-len(model))...)
		}
		copy(model[w.pos:], data)
		got, err := fc.ReadAt(ctx, f, 0, uint32(len(model)))
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !bytes.Equal(got, model) {
			t.Fatalf("%s: file differs from the model\ngot  %x\nwant %x", w.name, got, model)
		}
	}
}

func TestDestroyFreesBlocks(t *testing.T) {
	ctx := context.Background()
	_, fc, bc := newStack(t, 8, 32)
	_, _, before, err := bc.Stat(ctx)
	if err != nil {
		t.Fatal(err)
	}
	f, err := fc.Create(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := fc.WriteAt(ctx, f, 0, make([]byte, 100)); err != nil { // 4 blocks
		t.Fatal(err)
	}
	_, _, during, err := bc.Stat(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if during != before-4 {
		t.Fatalf("blocks in use: %d -> %d, want 4 fewer", before, during)
	}
	if err := fc.Destroy(ctx, f); err != nil {
		t.Fatal(err)
	}
	_, _, after, err := bc.Stat(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if after != before {
		t.Fatalf("blocks leaked: before %d after %d", before, after)
	}
	if _, err := fc.ReadAt(ctx, f, 0, 1); !rpc.IsStatus(err, rpc.StatusBadCapability) {
		t.Fatalf("read of destroyed file: %v", err)
	}
}

func TestTruncate(t *testing.T) {
	ctx := context.Background()
	_, fc, bc := newStack(t, 16, 16)
	f, err := fc.Create(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := fc.WriteAt(ctx, f, 0, bytes.Repeat([]byte{0xAA}, 40)); err != nil {
		t.Fatal(err)
	}
	if err := fc.Truncate(ctx, f, 10); err != nil {
		t.Fatal(err)
	}
	size, err := fc.Size(ctx, f)
	if err != nil {
		t.Fatal(err)
	}
	if size != 10 {
		t.Fatalf("size after truncate = %d", size)
	}
	_, _, free, err := bc.Stat(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if free != 15 { // 40 bytes used 3 blocks; 10 bytes keeps 1
		t.Fatalf("free blocks after shrink = %d, want 15", free)
	}
	// Regrow: the tail must read as zeros, not stale 0xAA.
	if err := fc.Truncate(ctx, f, 16); err != nil {
		t.Fatal(err)
	}
	got, err := fc.ReadAt(ctx, f, 10, 6)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, make([]byte, 6)) {
		t.Fatalf("regrown tail leaked data: %v", got)
	}
}

func TestFileRights(t *testing.T) {
	ctx := context.Background()
	_, fc, _ := newStack(t, 16, 32)
	f, err := fc.Create(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := fc.WriteAt(ctx, f, 0, []byte("private")); err != nil {
		t.Fatal(err)
	}
	// The paper's canonical example: pass read-only access to another
	// client.
	readOnly, err := fc.Restrict(ctx, f, cap.RightRead)
	if err != nil {
		t.Fatal(err)
	}
	got, err := fc.ReadAt(ctx, readOnly, 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "private" {
		t.Fatalf("read %q", got)
	}
	if err := fc.WriteAt(ctx, readOnly, 0, []byte("X")); !rpc.IsStatus(err, rpc.StatusNoPermission) {
		t.Fatalf("write with read-only: %v", err)
	}
	if err := fc.Truncate(ctx, readOnly, 0); !rpc.IsStatus(err, rpc.StatusNoPermission) {
		t.Fatalf("truncate with read-only: %v", err)
	}
	if err := fc.Destroy(ctx, readOnly); !rpc.IsStatus(err, rpc.StatusNoPermission) {
		t.Fatalf("destroy with read-only: %v", err)
	}
}

func TestDiskExhaustionSurfaces(t *testing.T) {
	ctx := context.Background()
	_, fc, _ := newStack(t, 2, 16)
	f, err := fc.Create(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := fc.WriteAt(ctx, f, 0, make([]byte, 64)); !rpc.IsStatus(err, rpc.StatusServerError) {
		t.Fatalf("write beyond disk capacity: %v", err)
	}
}

func TestRevocationCutsOffReaders(t *testing.T) {
	ctx := context.Background()
	_, fc, _ := newStack(t, 16, 32)
	f, err := fc.Create(ctx)
	if err != nil {
		t.Fatal(err)
	}
	shared, err := fc.Restrict(ctx, f, cap.RightRead)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := fc.Revoke(ctx, f)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fc.ReadAt(ctx, shared, 0, 1); !rpc.IsStatus(err, rpc.StatusBadCapability) {
		t.Fatalf("revoked share: %v", err)
	}
	if _, err := fc.Size(ctx, fresh); err != nil {
		t.Fatal(err)
	}
}

func TestLargeWriteReadChunked(t *testing.T) {
	ctx := context.Background()
	// A 300 KiB write exceeds one transaction's worth of data; the
	// client splits it into the paper's "succession of data messages".
	_, fc, _ := newStack(t, 1024, 1024)
	f, err := fc.Create(ctx)
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 300<<10)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	if err := fc.WriteAt(ctx, f, 3, payload); err != nil {
		t.Fatal(err)
	}
	got, err := fc.ReadAt(ctx, f, 3, uint32(len(payload)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("large chunked transfer corrupted data")
	}
	size, err := fc.Size(ctx, f)
	if err != nil || size != uint64(len(payload))+3 {
		t.Fatalf("size %d %v", size, err)
	}
}

func TestZeroLengthOps(t *testing.T) {
	ctx := context.Background()
	_, fc, _ := newStack(t, 16, 32)
	f, err := fc.Create(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := fc.WriteAt(ctx, f, 0, nil); err != nil {
		t.Fatalf("zero-length write: %v", err)
	}
	got, err := fc.ReadAt(ctx, f, 0, 0)
	if err != nil || len(got) != 0 {
		t.Fatalf("zero-length read: %v %v", got, err)
	}
}

// TestCancelledContextAbortsFileOps proves the context flows through
// the typed client: an already-cancelled context never reaches the
// wire and surfaces ctx.Err().
func TestCancelledContextAbortsFileOps(t *testing.T) {
	ctx := context.Background()
	_, fc, _ := newStack(t, 64, 64)
	f, err := fc.Create(ctx)
	if err != nil {
		t.Fatal(err)
	}
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if err := fc.WriteAt(cancelled, f, 0, []byte("never")); !errors.Is(err, context.Canceled) {
		t.Fatalf("write err = %v, want context.Canceled", err)
	}
	if _, err := fc.ReadAt(cancelled, f, 0, 8); !errors.Is(err, context.Canceled) {
		t.Fatalf("read err = %v, want context.Canceled", err)
	}
	// The file is untouched: a normal read sees an empty file.
	if size, err := fc.Size(ctx, f); err != nil || size != 0 {
		t.Fatalf("size = %d, %v; want 0 after aborted write", size, err)
	}
}

// heldWrites holds every block write until release is closed, so a
// nested block call outlives any budget the caller set.
type heldWrites struct {
	vdisk.Store
	release chan struct{}
}

func (d *heldWrites) Write(n uint32, data []byte) error {
	<-d.release
	return d.Store.Write(n, data)
}

// TestWriteDeadlinePropagatesToBlockServer: a write's deadline bounds
// the whole call tree. The block server holds its disk writes far past
// the caller's budget; the nested block requests the file server sends
// must carry a budget no larger than the caller's (the block handler's
// context deadline is built from it), and the write must fail with the
// deadline — or with the file server's report of the nested failure —
// instead of waiting out the block I/O.
func TestWriteDeadlinePropagatesToBlockServer(t *testing.T) {
	ctx := context.Background()
	r := servertest.New(t, 0xF1A8)
	scheme, err := cap.NewScheme(cap.SchemeOneWay)
	if err != nil {
		t.Fatal(err)
	}
	disk, err := vdisk.New(256, 64)
	if err != nil {
		t.Fatal(err)
	}
	held := &heldWrites{Store: disk, release: make(chan struct{})}
	defer close(held.release)
	bsFB, fsFB := r.NewFBox(t), r.NewFBox(t)
	bs, err := blocksvr.New(bsFB, scheme, r.Src, held)
	if err != nil {
		t.Fatal(err)
	}
	if err := bs.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { bs.Close() })
	fs, err := New(ctx, fsFB, scheme, r.Src, blocksvr.NewClient(r.NewClient(t), bs.PutPort()))
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fs.Close() })
	fc := NewClient(r.Client, fs.PutPort())
	f, err := fc.Create(ctx)
	if err != nil {
		t.Fatal(err)
	}
	tap, err := r.Net.Tap()
	if err != nil {
		t.Fatal(err)
	}

	const budget = 20 * time.Millisecond
	short, cancel := context.WithTimeout(ctx, budget)
	defer cancel()
	err = fc.WriteAt(short, f, 0, bytes.Repeat([]byte("x"), 4096))
	if !errors.Is(err, context.DeadlineExceeded) && !rpc.IsStatus(err, rpc.StatusServerError) {
		t.Fatalf("write past its deadline: err = %v, want a deadline-bounded failure", err)
	}

	// Every request that crossed the wire: the caller's to the file
	// server, and the file server's nested ones to the block server.
	var callerBudget time.Duration
	var nested []time.Duration
	for more := true; more; {
		select {
		case fr := <-tap.Recv():
			if len(fr.Payload) > fbox.Headroom {
				if req, err := rpc.DecodeRequest(fr.Payload[fbox.Headroom:]); err == nil {
					switch fr.Dst {
					case fsFB.Machine():
						callerBudget = req.Budget
					case bsFB.Machine():
						nested = append(nested, req.Budget)
					}
				}
			}
			fr.Release()
		default:
			more = false
		}
	}
	if callerBudget <= 0 || callerBudget > budget {
		t.Fatalf("the write carried budget %v, want (0, %v]", callerBudget, budget)
	}
	if len(nested) == 0 {
		t.Fatal("the file server sent the block server nothing")
	}
	for i, b := range nested {
		if b <= 0 || b > callerBudget {
			t.Fatalf("nested block request %d carried budget %v, want (0, %v]: its handler's deadline must not outlast the caller's", i, b, callerBudget)
		}
	}
}
