package amoeba

import (
	"bytes"
	"context"
	"testing"
	"time"
)

func newTestCluster(t *testing.T, cfg ClusterConfig) *Cluster {
	t.Helper()
	if cfg.Seed == 0 {
		cfg.Seed = 0xC1045E4
	}
	cl, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

// TestClusterBootsAllServices: every §3 service of one cluster answers
// a round trip over the simulated network and gives back what it was
// given (E10): a memory segment, a block, a flat file through the block
// server, a directory entry, a committed multiversion page and a bank
// transfer.
func TestClusterBootsAllServices(t *testing.T) {
	ctx := context.Background()
	cl := newTestCluster(t, ClusterConfig{})
	data := []byte("round trip")
	check := func(what string, got []byte, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if !bytes.HasPrefix(got, data) {
			t.Fatalf("%s read back %q, want %q", what, got, data)
		}
	}

	seg, err := cl.Memory().CreateSegment(ctx, 64)
	if err != nil {
		t.Fatalf("memory: %v", err)
	}
	if err := cl.Memory().Write(ctx, seg, 8, data); err != nil {
		t.Fatalf("memory: %v", err)
	}
	got, err := cl.Memory().Read(ctx, seg, 8, uint32(len(data)))
	check("memory", got, err)

	blk, err := cl.Blocks().Alloc(ctx)
	if err != nil {
		t.Fatalf("blocks: %v", err)
	}
	if err := cl.Blocks().Write(ctx, blk, data); err != nil {
		t.Fatalf("blocks: %v", err)
	}
	got, err = cl.Blocks().Read(ctx, blk)
	check("blocks", got, err)

	f, err := cl.Files().Create(ctx)
	if err != nil {
		t.Fatalf("files: %v", err)
	}
	if err := cl.Files().WriteAt(ctx, f, 1000, data); err != nil {
		t.Fatalf("files: %v", err)
	}
	got, err = cl.Files().ReadAt(ctx, f, 1000, uint32(len(data)))
	check("files", got, err)

	dir, err := cl.Dirs().CreateDir(ctx, cl.DirPort())
	if err != nil {
		t.Fatalf("dirs: %v", err)
	}
	if err := cl.Dirs().Enter(ctx, dir, "file", f); err != nil {
		t.Fatalf("dirs: %v", err)
	}
	if back, err := cl.Dirs().Lookup(ctx, dir, "file"); err != nil || back != f {
		t.Fatalf("dirs: looked up %v, %v; want %v", back, err, f)
	}

	doc, err := cl.Versions().CreateFile(ctx)
	if err != nil {
		t.Fatalf("versions: %v", err)
	}
	v, err := cl.Versions().NewVersion(ctx, doc)
	if err != nil {
		t.Fatalf("versions: %v", err)
	}
	if err := cl.Versions().WritePage(ctx, v, 0, data); err != nil {
		t.Fatalf("versions: %v", err)
	}
	if _, _, err := cl.Versions().Commit(ctx, v); err != nil {
		t.Fatalf("versions: %v", err)
	}
	got, err = cl.Versions().ReadPage(ctx, doc, 0)
	check("versions", got, err)

	bank := cl.Bank()
	src, err := bank.CreateAccount(ctx, "dollar", 10)
	if err != nil {
		t.Fatalf("bank: %v", err)
	}
	dst, err := bank.CreateAccount(ctx, "dollar", 0)
	if err != nil {
		t.Fatalf("bank: %v", err)
	}
	if err := bank.Transfer(ctx, src, dst, "dollar", 3); err != nil {
		t.Fatalf("bank: %v", err)
	}
	for acct, want := range map[Capability]int64{src: 7, dst: 3} {
		bal, err := bank.Balance(ctx, acct)
		if err != nil || bal["dollar"] != want {
			t.Fatalf("bank: balance %v, %v; want %d dollars", bal, err, want)
		}
	}
}

func TestClusterEveryScheme(t *testing.T) {
	ctx := context.Background()
	for _, id := range []SchemeID{SchemeCompare, SchemeEncrypted, SchemeOneWay, SchemeCommutative} {
		t.Run(id.String(), func(t *testing.T) {
			cl := newTestCluster(t, ClusterConfig{Scheme: id, Seed: uint64(id) + 100})
			f, err := cl.Files().Create(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if err := cl.Files().WriteAt(ctx, f, 0, []byte("scheme test")); err != nil {
				t.Fatal(err)
			}
			got, err := cl.Files().ReadAt(ctx, f, 0, 11)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != "scheme test" {
				t.Fatalf("read %q", got)
			}
		})
	}
}

func TestPaperRunningExample(t *testing.T) {
	ctx := context.Background()
	// §2.3's end-to-end example: create a file, write data into it,
	// then give another client permission to read (but not modify) it.
	cl := newTestCluster(t, ClusterConfig{})
	files := cl.Files()

	f, err := files.Create(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := files.WriteAt(ctx, f, 0, []byte("important data")); err != nil {
		t.Fatal(err)
	}
	readOnly, err := files.Restrict(ctx, f, RightRead)
	if err != nil {
		t.Fatal(err)
	}

	// "The other client": a fresh machine with its own RPC client. The
	// capability travels as 16 opaque bytes.
	_, otherRPC, err := cl.NewMachine()
	if err != nil {
		t.Fatal(err)
	}
	wire := readOnly.Encode()
	received, err := Decode(wire[:])
	if err != nil {
		t.Fatal(err)
	}
	other := cl.FilesFor(otherRPC)
	got, err := other.ReadAt(ctx, received, 0, 14)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "important data" {
		t.Fatalf("other client read %q", got)
	}
	if err := other.WriteAt(ctx, received, 0, []byte("vandalism")); !IsStatus(err, StatusNoPermission) {
		t.Fatalf("other client write: %v", err)
	}
}

func TestClusterWithLatency(t *testing.T) {
	ctx := context.Background()
	cl := newTestCluster(t, ClusterConfig{Latency: 2_000_000 /* 2ms */})
	f, err := cl.Files().Create(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Files().WriteAt(ctx, f, 0, []byte("slow network")); err != nil {
		t.Fatal(err)
	}
}

func TestUnixFSOnCluster(t *testing.T) {
	ctx := context.Background()
	cl := newTestCluster(t, ClusterConfig{})
	fs, err := cl.NewUnixFS(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Mkdir(ctx, "etc"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Create(ctx, "etc/motd"); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile(ctx, "etc/motd", 0, []byte("welcome to amoeba")); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadFile(ctx, "etc/motd", 0, 64)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte("welcome to amoeba")) {
		t.Fatalf("read %q", got)
	}
}

func TestDeterministicClusters(t *testing.T) {
	ctx := context.Background()
	run := func() Capability {
		cl, err := NewCluster(ClusterConfig{Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		f, err := cl.Files().Create(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("same seed, different capabilities:\n %v\n %v", a, b)
	}
}

func TestCrossServiceCapabilityRejected(t *testing.T) {
	ctx := context.Background()
	// A capability minted by the file server must not authorize
	// anything at the directory server, even with the same scheme.
	cl := newTestCluster(t, ClusterConfig{})
	f, err := cl.Files().Create(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Dirs().Lookup(ctx, f, "x"); err == nil {
		t.Fatal("file capability accepted by directory server")
	}
}

func TestSealedCluster(t *testing.T) {
	ctx := context.Background()
	// SealCapabilities composes the §2.4 key matrix with the F-box:
	// everything still works, and no plaintext capability crosses the
	// wire.
	cl := newTestCluster(t, ClusterConfig{SealCapabilities: true, Seed: 0x5EA1ED})
	tap, err := cl.Tap()
	if err != nil {
		t.Fatal(err)
	}
	f, err := cl.Files().Create(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Files().WriteAt(ctx, f, 0, []byte("sealed")); err != nil {
		t.Fatal(err)
	}
	got, err := cl.Files().ReadAt(ctx, f, 0, 6)
	if err != nil || string(got) != "sealed" {
		t.Fatalf("read %q %v", got, err)
	}
	weak, err := cl.Files().Restrict(ctx, f, RightRead)
	if err != nil {
		t.Fatal(err)
	}
	if weak.Server != f.Server {
		t.Fatal("restricted capability mangled by sealing")
	}
	// Sweep the tap: the file capability must never appear in clear.
	wire := f.Encode()
	deadline := time.After(200 * time.Millisecond)
	frames := 0
	for {
		select {
		case fr := <-tap.Recv():
			frames++
			for i := 0; i+16 <= len(fr.Payload); i++ {
				if string(fr.Payload[i:i+16]) == string(wire[:]) {
					t.Fatal("plaintext capability on the wire despite sealing")
				}
			}
		case <-deadline:
			if frames == 0 {
				t.Fatal("tap captured nothing")
			}
			return
		}
	}
}

func TestSealedClusterAllServices(t *testing.T) {
	ctx := context.Background()
	cl := newTestCluster(t, ClusterConfig{SealCapabilities: true, Seed: 0x5EA1EE})
	seg, err := cl.Memory().CreateSegment(ctx, 64)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Memory().Write(ctx, seg, 0, []byte("x")); err != nil {
		t.Fatal(err)
	}
	dir, err := cl.Dirs().CreateDir(ctx, cl.DirPort())
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Dirs().Enter(ctx, dir, "seg", seg); err != nil {
		t.Fatal(err)
	}
	back, err := cl.Dirs().Lookup(ctx, dir, "seg")
	if err != nil {
		t.Fatal(err)
	}
	if back != seg {
		t.Fatal("capability corrupted crossing sealed directory server")
	}
	acct, err := cl.Bank().CreateAccount(ctx, "dollar", 5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Bank().Balance(ctx, acct); err != nil {
		t.Fatal(err)
	}
}
