package blocksvr

import (
	"bytes"
	"context"
	"path/filepath"
	"testing"

	"amoeba/internal/cap"
	"amoeba/internal/rpc"
	"amoeba/internal/server/servertest"
	"amoeba/internal/vdisk"
)

func TestBlockServerSurvivesRestart(t *testing.T) {
	ctx := context.Background()
	// A block server with a file-backed disk + state snapshot: after a
	// "restart" (new server process, same get-port, same disk file,
	// restored snapshot), previously issued block capabilities still
	// work and previously freed blocks are still free.
	r := servertest.New(t, 0x9357)
	path := filepath.Join(t.TempDir(), "disk.img")
	scheme, err := cap.NewScheme(cap.SchemeOneWay)
	if err != nil {
		t.Fatal(err)
	}

	disk1, err := vdisk.OpenFile(path, 16, 64)
	if err != nil {
		t.Fatal(err)
	}
	fb1 := r.NewFBox(t)
	s1, err := New(fb1, scheme, r.Src, disk1)
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.Start(); err != nil {
		t.Fatal(err)
	}
	getPort := s1.GetPort()

	c1 := NewClient(r.Client, s1.PutPort())
	blkA, err := c1.Alloc(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := c1.Write(ctx, blkA, bytes.Repeat([]byte{0xAB}, 64)); err != nil {
		t.Fatal(err)
	}
	blkB, err := c1.Alloc(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := c1.Free(ctx, blkB); err != nil {
		t.Fatal(err)
	}
	snap, err := s1.Envelope()
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	if err := disk1.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: fresh machine, same disk file, same get-port, restored
	// snapshot.
	disk2, err := vdisk.OpenFile(path, 16, 64)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { disk2.Close() })
	fb2 := r.NewFBox(t)
	s2, err := NewWithPort(fb2, scheme, getPort, disk2)
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.RestoreEnvelope(snap); err != nil {
		t.Fatal(err)
	}
	if err := s2.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s2.Close() })
	if s2.PutPort() != blkA.Server {
		t.Fatal("restarted server has a different put-port")
	}

	c2 := NewClient(r.Client, s2.PutPort())
	got, err := c2.Read(ctx, blkA)
	if err != nil {
		t.Fatalf("pre-restart capability rejected: %v", err)
	}
	if !bytes.Equal(got, bytes.Repeat([]byte{0xAB}, 64)) {
		t.Fatal("block contents lost across restart")
	}
	// The freed block is still free and the stale cap still dead.
	if _, err := c2.Read(ctx, blkB); !rpc.IsStatus(err, rpc.StatusBadCapability) {
		t.Fatalf("freed block capability revived: %v", err)
	}
	_, _, nfree, err := c2.Stat(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if nfree != 15 {
		t.Fatalf("nfree after restart = %d, want 15", nfree)
	}
}
