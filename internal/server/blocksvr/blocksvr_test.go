package blocksvr

import (
	"bytes"
	"context"
	"testing"

	"amoeba/internal/cap"
	"amoeba/internal/rpc"
	"amoeba/internal/server/servertest"
	"amoeba/internal/vdisk"
	"amoeba/internal/wire"
)

func newServer(t *testing.T, nblocks uint32, blockSize int) (*servertest.Rig, *Client, *vdisk.Disk) {
	t.Helper()
	r := servertest.New(t, 0xB10C)
	disk, err := vdisk.New(nblocks, blockSize)
	if err != nil {
		t.Fatal(err)
	}
	scheme, err := cap.NewScheme(cap.SchemeOneWay)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(r.NewFBox(t), scheme, r.Src, disk)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return r, NewClient(r.Client, s.PutPort()), disk
}

func TestAllocReadWriteFree(t *testing.T) {
	ctx := context.Background()
	_, b, _ := newServer(t, 16, 64)
	blk, err := b.Alloc(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Write(ctx, blk, []byte("block payload")); err != nil {
		t.Fatal(err)
	}
	got, err := b.Read(ctx, blk)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[:13], []byte("block payload")) {
		t.Fatalf("read %q", got[:13])
	}
	if len(got) != 64 {
		t.Fatalf("read returned %d bytes, want full block", len(got))
	}
	if err := b.Free(ctx, blk); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Read(ctx, blk); !rpc.IsStatus(err, rpc.StatusBadCapability) {
		t.Fatalf("read of freed block: %v", err)
	}
}

func TestStat(t *testing.T) {
	ctx := context.Background()
	_, b, _ := newServer(t, 8, 32)
	bs, nb, nf, err := b.Stat(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if bs != 32 || nb != 8 || nf != 8 {
		t.Fatalf("stat = %d/%d/%d", bs, nb, nf)
	}
	if _, err := b.Alloc(ctx); err != nil {
		t.Fatal(err)
	}
	_, _, nf, err = b.Stat(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if nf != 7 {
		t.Fatalf("nfree after alloc = %d", nf)
	}
}

func TestDiskFull(t *testing.T) {
	ctx := context.Background()
	_, b, _ := newServer(t, 2, 32)
	for i := 0; i < 2; i++ {
		if _, err := b.Alloc(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := b.Alloc(ctx); !rpc.IsStatus(err, rpc.StatusServerError) {
		t.Fatalf("alloc on full disk: %v", err)
	}
}

func TestFreedBlockIsZeroedAndReusable(t *testing.T) {
	ctx := context.Background()
	_, b, _ := newServer(t, 1, 32)
	blk, err := b.Alloc(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Write(ctx, blk, bytes.Repeat([]byte{0xFF}, 32)); err != nil {
		t.Fatal(err)
	}
	if err := b.Free(ctx, blk); err != nil {
		t.Fatal(err)
	}
	blk2, err := b.Alloc(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if blk2.Object != blk.Object {
		t.Fatalf("expected block reuse, got %d then %d", blk.Object, blk2.Object)
	}
	got, err := b.Read(ctx, blk2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, make([]byte, 32)) {
		t.Fatal("reused block leaked previous contents")
	}
	// The old capability must not work on the recycled block.
	if _, err := b.Read(ctx, blk); !rpc.IsStatus(err, rpc.StatusBadCapability) {
		t.Fatalf("stale capability read recycled block: %v", err)
	}
}

func TestWriteTooLarge(t *testing.T) {
	ctx := context.Background()
	_, b, _ := newServer(t, 4, 32)
	blk, err := b.Alloc(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Write(ctx, blk, make([]byte, 33)); !rpc.IsStatus(err, rpc.StatusBadRequest) {
		t.Fatalf("oversized write: %v", err)
	}
}

func TestShortWriteZeroPadded(t *testing.T) {
	// A full-block write goes to the disk straight from the request; a
	// short one through zeroed scratch. A short write after a full one
	// must leave no byte of the full one behind, and none of the
	// poison an armed wire pool leaves in a recycled buffer.
	wire.SetDebug(true)
	t.Cleanup(func() { wire.SetDebug(false) })
	ctx := context.Background()
	_, b, _ := newServer(t, 4, 32)
	blk, err := b.Alloc(ctx)
	if err != nil {
		t.Fatal(err)
	}
	full := bytes.Repeat([]byte{0xFF}, 32)
	if err := b.Write(ctx, blk, full); err != nil {
		t.Fatal(err)
	}
	if got, err := b.Read(ctx, blk); err != nil || !bytes.Equal(got, full) {
		t.Fatalf("full write read back %x, %v", got, err)
	}
	if err := b.Write(ctx, blk, []byte("abc")); err != nil {
		t.Fatal(err)
	}
	want := append([]byte("abc"), make([]byte, 29)...)
	if got, err := b.Read(ctx, blk); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("short write read back %x, %v; want %x", got, err, want)
	}
}

func TestBlockRights(t *testing.T) {
	ctx := context.Background()
	_, b, _ := newServer(t, 4, 32)
	blk, err := b.Alloc(ctx)
	if err != nil {
		t.Fatal(err)
	}
	ro, err := b.Restrict(ctx, blk, cap.RightRead)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Read(ctx, ro); err != nil {
		t.Fatal(err)
	}
	if err := b.Write(ctx, ro, []byte("x")); !rpc.IsStatus(err, rpc.StatusNoPermission) {
		t.Fatalf("write with read-only: %v", err)
	}
	if err := b.Free(ctx, ro); !rpc.IsStatus(err, rpc.StatusNoPermission) {
		t.Fatalf("free with read-only: %v", err)
	}
}

func TestDiskFaultSurfacesAsServerError(t *testing.T) {
	ctx := context.Background()
	_, b, disk := newServer(t, 4, 32)
	blk, err := b.Alloc(ctx)
	if err != nil {
		t.Fatal(err)
	}
	boom := bytes.ErrTooLarge // any sentinel
	disk.SetFault(func(op string, block uint32) error {
		if op == "read" {
			return boom
		}
		return nil
	})
	if _, err := b.Read(ctx, blk); !rpc.IsStatus(err, rpc.StatusServerError) {
		t.Fatalf("disk fault surfaced as: %v", err)
	}
	disk.SetFault(nil)
	if _, err := b.Read(ctx, blk); err != nil {
		t.Fatalf("read after fault cleared: %v", err)
	}
}

func TestTooManyBlocksRejected(t *testing.T) {
	r := servertest.New(t, 1)
	disk, err := vdisk.New(cap.ObjectMask+1, 1)
	if err != nil {
		t.Fatal(err)
	}
	scheme, err := cap.NewScheme(cap.SchemeOneWay)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(r.NewFBox(t), scheme, r.Src, disk); err == nil {
		t.Fatal("accepted disk with more blocks than object numbers")
	}
}

func TestForgedBlockCapability(t *testing.T) {
	ctx := context.Background()
	_, b, _ := newServer(t, 4, 32)
	blk, err := b.Alloc(ctx)
	if err != nil {
		t.Fatal(err)
	}
	forged := blk
	forged.Check ^= 0x40
	if _, err := b.Read(ctx, forged); !rpc.IsStatus(err, rpc.StatusBadCapability) {
		t.Fatalf("forged read: %v", err)
	}
	// Guessing an unallocated block number fails too.
	forged = blk
	forged.Object = 3
	if _, err := b.Read(ctx, forged); !rpc.IsStatus(err, rpc.StatusBadCapability) {
		t.Fatalf("guessed object read: %v", err)
	}
}
