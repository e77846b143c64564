// Benchmarks regenerating the paper's figures and comparative claims.
// Each BenchmarkXX corresponds to a row of the table that opens
// EXPERIMENTS.md (F1–F2, E1–E24). cmd/experiments runs the same code paths and
// prints paper-style tables; these targets give the raw numbers via
// `go test -bench=. -benchmem`.
package amoeba

import (
	"context"
	"fmt"
	"io"
	stdlog "log"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"amoeba/internal/amnet"
	"amoeba/internal/cap"
	"amoeba/internal/crypto"
	"amoeba/internal/fbox"
	"amoeba/internal/keymatrix"
	"amoeba/internal/locate"
	"amoeba/internal/rpc"
	"amoeba/internal/server/banksvr"
	"amoeba/internal/server/dirsvr"
	"amoeba/internal/server/memsvr"
	"amoeba/internal/vdisk"
	"amoeba/internal/wal"
)

// --------------------------------------------------------------------
// F2: the Fig. 2 wire format.

func BenchmarkF2_EncodeDecode(b *testing.B) {
	c := cap.Capability{Server: 0x123456789abc, Object: 0xABCDEF, Rights: 0x5A, Check: 0x0F0E0D0C0B0A}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w := c.Encode()
		dec, err := cap.Decode(w[:])
		if err != nil || dec != c {
			b.Fatal("round trip failed")
		}
	}
}

// --------------------------------------------------------------------
// F1: the F-box port transformation (both one-way functions).

func BenchmarkF1_PortTransform(b *testing.B) {
	for _, f := range []crypto.OneWay{crypto.SHA48{Tag: 1}, crypto.Purdy{}} {
		b.Run(f.Name(), func(b *testing.B) {
			b.ReportAllocs()
			x := uint64(0x7777)
			for i := 0; i < b.N; i++ {
				x = f.F(x)
			}
			sinkUint = x
		})
	}
}

var sinkUint uint64

// --------------------------------------------------------------------
// E1–E4: mint and validate cost for the four §2.3 schemes.

func benchSchemes(b *testing.B, run func(b *testing.B, s cap.Scheme, secret uint64, owner cap.Capability)) {
	b.Helper()
	src := crypto.NewSeededSource(0xBE4C)
	for _, id := range cap.AllSchemeIDs() {
		s, err := cap.NewScheme(id)
		if err != nil {
			b.Fatal(err)
		}
		secret := s.PrepareSecret(crypto.Rand48(src))
		owner := s.Mint(cap.Port(0xABC), 1, secret)
		b.Run(id.String(), func(b *testing.B) {
			run(b, s, secret, owner)
		})
	}
}

func BenchmarkE1to4_Mint(b *testing.B) {
	benchSchemes(b, func(b *testing.B, s cap.Scheme, secret uint64, _ cap.Capability) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c := s.Mint(cap.Port(0xABC), 1, secret)
			sinkUint = c.Check
		}
	})
}

func BenchmarkE1to4_Validate(b *testing.B) {
	benchSchemes(b, func(b *testing.B, s cap.Scheme, secret uint64, owner cap.Capability) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := s.Validate(owner, secret); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// E4: scheme 3 validation cost grows with the number of deleted
// rights (the server applies one commutative function per cleared
// bit).
func BenchmarkE4_Scheme3Validate(b *testing.B) {
	s := cap.NewCommutativeScheme(nil)
	secret := s.PrepareSecret(777)
	owner := s.Mint(cap.Port(0xABC), 1, secret)
	for deleted := 0; deleted <= 8; deleted += 2 {
		mask := cap.AllRights << uint(deleted) // clears `deleted` low bits
		weak, err := s.RestrictLocal(owner, mask)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("deleted=%d", deleted), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := s.Validate(weak, secret); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// E4: local restriction (scheme 3's whole point) — pure computation.
func BenchmarkE4_Scheme3Restrict(b *testing.B) {
	s := cap.NewCommutativeScheme(nil)
	secret := s.PrepareSecret(777)
	owner := s.Mint(cap.Port(0xABC), 1, secret)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c, err := s.RestrictLocal(owner, cap.RightRead)
		if err != nil {
			b.Fatal(err)
		}
		sinkUint = c.Check
	}
}

// E4 headline: restricting a capability locally (scheme 3) vs going
// back to the server over the network (scheme 2, the paper's "requires
// going back to the server every time").
func BenchmarkE4_RestrictLocalVsServer(b *testing.B) {
	ctx := context.Background()
	b.Run("scheme3-local", func(b *testing.B) {
		s := cap.NewCommutativeScheme(nil)
		secret := s.PrepareSecret(777)
		owner := s.Mint(cap.Port(0xABC), 1, secret)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c, err := s.RestrictLocal(owner, cap.RightRead)
			if err != nil {
				b.Fatal(err)
			}
			sinkUint = c.Check
		}
	})
	b.Run("scheme2-server-roundtrip", func(b *testing.B) {
		cl, err := NewCluster(ClusterConfig{Scheme: SchemeOneWay, Seed: 7})
		if err != nil {
			b.Fatal(err)
		}
		defer cl.Close()
		f, err := cl.Files().Create(ctx)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := cl.Files().Restrict(ctx, f, cap.RightRead); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// E3 companion: the same server restriction under scheme 2 explicitly.
func BenchmarkE3_RestrictViaServer(b *testing.B) {
	ctx := context.Background()
	cl, err := NewCluster(ClusterConfig{Scheme: SchemeOneWay, Seed: 9})
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	f, err := cl.Files().Create(ctx)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := cl.Files().Restrict(ctx, f, cap.RightRead); err != nil {
			b.Fatal(err)
		}
	}
}

// E5: validation without the rights field — try all 2^N combinations.
func BenchmarkE5_ExhaustiveValidate(b *testing.B) {
	s := cap.NewCommutativeScheme(nil)
	secret := s.PrepareSecret(99)
	owner := s.Mint(cap.Port(0xABC), 1, secret)
	weak, err := s.RestrictLocal(owner, cap.RightRead|cap.RightCreate)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("with-rights-field", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := s.Validate(weak, secret); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("exhaustive-no-rights-field", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := s.ValidateExhaustive(weak, secret); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// E6: revocation cost (re-key the object, mint the replacement).
func BenchmarkE6_Revoke(b *testing.B) {
	for _, id := range cap.AllSchemeIDs() {
		b.Run(id.String(), func(b *testing.B) {
			s, err := cap.NewScheme(id)
			if err != nil {
				b.Fatal(err)
			}
			t := cap.NewTable(s, cap.Port(0xABC), crypto.NewSeededSource(uint64(id)))
			owner, err := t.Create()
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				owner, err = t.Revoke(owner)
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// E7: signature generation (F-transform on send) plus verification.
func BenchmarkE7_Signature(b *testing.B) {
	f := crypto.SHA48{Tag: 1}
	signer := fbox.NewSigner(crypto.NewSeededSource(1), f)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		onWire := cap.Port(f.F(uint64(signer.Secret())))
		if !fbox.VerifySignature(fbox.Received{Message: fbox.Message{Sig: onWire}}, signer.Public()) {
			b.Fatal("signature failed")
		}
	}
}

// E8: §2.4 key-matrix capability sealing — cache miss vs hit, and the
// bootstrap handshake.
func BenchmarkE8_MatrixEncrypt(b *testing.B) {
	m := keymatrix.NewMatrix(crypto.NewSeededSource(8))
	peers := []amnet.MachineID{1, 2}
	g := m.Guard(1, peers, nil)
	c := cap.Capability{Server: 0xABC, Object: 1, Rights: 0xFF, Check: 0x123456}
	b.Run("miss", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			g.FlushCaches()
			if _, err := g.Seal(c, 2); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("hit", func(b *testing.B) {
		if _, err := g.Seal(c, 2); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := g.Seal(c, 2); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkE8_CacheHitVsMiss(b *testing.B) {
	// Server-side Open path.
	m := keymatrix.NewMatrix(crypto.NewSeededSource(9))
	peers := []amnet.MachineID{1, 2}
	client := m.Guard(1, peers, nil)
	server := m.Guard(2, peers, nil)
	c := cap.Capability{Server: 0xABC, Object: 1, Rights: 0xFF, Check: 0x123456}
	enc, err := client.Seal(c, 2)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("open-miss", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			server.FlushCaches()
			if _, err := server.Open(enc, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("open-hit", func(b *testing.B) {
		if _, err := server.Open(enc, 1); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := server.Open(enc, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkE8_Bootstrap(b *testing.B) {
	priv, err := crypto.GenerateRSA(512, nil)
	if err != nil {
		b.Fatal(err)
	}
	src := crypto.NewSeededSource(10)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		client := keymatrix.NewGuard(1, nil)
		server := keymatrix.NewGuard(2, nil)
		if err := keymatrix.Bootstrap(client, server, priv, src); err != nil {
			b.Fatal(err)
		}
	}
}

// E9: cost of rejecting forged capabilities (the defender's work per
// guess), per scheme.
func BenchmarkE9_ForgeryRejection(b *testing.B) {
	benchSchemes(b, func(b *testing.B, s cap.Scheme, secret uint64, owner cap.Capability) {
		forged := owner
		forged.Check ^= 1
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := s.Validate(forged, secret); err == nil {
				b.Fatal("forgery accepted")
			}
		}
	})
}

// --------------------------------------------------------------------
// E10: the §3 services end-to-end over the simulated network.

func benchCluster(b *testing.B) *Cluster {
	b.Helper()
	cl, err := NewCluster(ClusterConfig{Seed: 0xE10, DiskBlocks: 8192})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { cl.Close() })
	return cl
}

func BenchmarkE10_SegmentWrite(b *testing.B) {
	ctx := context.Background()
	cl := benchCluster(b)
	seg, err := cl.Memory().CreateSegment(ctx, 1<<20)
	if err != nil {
		b.Fatal(err)
	}
	data := make([]byte, 4096)
	b.ResetTimer()
	b.SetBytes(int64(len(data)))
	for i := 0; i < b.N; i++ {
		if err := cl.Memory().Write(ctx, seg, uint32(i%(1<<8))*4096, data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE10_FileWriteRead(b *testing.B) {
	ctx := context.Background()
	cl := benchCluster(b)
	f, err := cl.Files().Create(ctx)
	if err != nil {
		b.Fatal(err)
	}
	data := make([]byte, 1024)
	b.Run("write-1k", func(b *testing.B) {
		b.SetBytes(1024)
		for i := 0; i < b.N; i++ {
			if err := cl.Files().WriteAt(ctx, f, uint64(i%64)*1024, data); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("read-1k", func(b *testing.B) {
		b.SetBytes(1024)
		for i := 0; i < b.N; i++ {
			if _, err := cl.Files().ReadAt(ctx, f, uint64(i%64)*1024, 1024); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkE10_DirLookup(b *testing.B) {
	ctx := context.Background()
	cl := benchCluster(b)
	dirs := cl.Dirs()
	// Build a chain of depth d and look the whole path up.
	for _, depth := range []int{1, 4, 16} {
		root, err := dirs.CreateDir(ctx, cl.DirPort())
		if err != nil {
			b.Fatal(err)
		}
		cur := root
		path := ""
		for i := 0; i < depth; i++ {
			sub, err := dirs.CreateDir(ctx, cl.DirPort())
			if err != nil {
				b.Fatal(err)
			}
			name := fmt.Sprintf("d%d", i)
			if err := dirs.Enter(ctx, cur, name, sub); err != nil {
				b.Fatal(err)
			}
			cur = sub
			path += "/" + name
		}
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := dirs.LookupPath(ctx, root, path); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --------------------------------------------------------------------
// E24: lease-cached path lookup. Same walk as E10's DirLookup, but the
// cluster grants lookup leases, so after one warming walk every
// iteration is served from the client cache — zero RPCs, zero allocs.
// Compare against BenchmarkE10_DirLookup at equal depth for the cost
// of the round trips the lease removed.

func BenchmarkE24_CachedDirLookup(b *testing.B) {
	ctx := context.Background()
	cl, err := NewCluster(ClusterConfig{
		Seed:        0xE24,
		DiskBlocks:  8192,
		LookupLease: time.Minute,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { cl.Close() })
	dirs := cl.Dirs()
	for _, depth := range []int{1, 4, 16} {
		root, err := dirs.CreateDir(ctx, cl.DirPort())
		if err != nil {
			b.Fatal(err)
		}
		cur := root
		path := ""
		for i := 0; i < depth; i++ {
			sub, err := dirs.CreateDir(ctx, cl.DirPort())
			if err != nil {
				b.Fatal(err)
			}
			name := fmt.Sprintf("d%d", i)
			if err := dirs.Enter(ctx, cur, name, sub); err != nil {
				b.Fatal(err)
			}
			cur = sub
			path += "/" + name
		}
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			// One walk to populate the cache; everything after hits.
			want, err := dirs.LookupPath(ctx, root, path)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				got, err := dirs.LookupPath(ctx, root, path)
				if err != nil {
					b.Fatal(err)
				}
				if got != want {
					b.Fatal("cached walk resolved a different capability")
				}
			}
		})
	}
}

func BenchmarkE10_MVCommit(b *testing.B) {
	ctx := context.Background()
	// COW commit cost as a function of dirtied pages.
	cl := benchCluster(b)
	mv := cl.Versions()
	for _, dirty := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("dirty=%d", dirty), func(b *testing.B) {
			f, err := mv.CreateFile(ctx)
			if err != nil {
				b.Fatal(err)
			}
			page := make([]byte, 1024)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				v, err := mv.NewVersion(ctx, f)
				if err != nil {
					b.Fatal(err)
				}
				for p := 0; p < dirty; p++ {
					if err := mv.WritePage(ctx, v, uint32(p), page); err != nil {
						b.Fatal(err)
					}
				}
				if _, _, err := mv.Commit(ctx, v); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkE10_BankTransfer(b *testing.B) {
	ctx := context.Background()
	cl := benchCluster(b)
	bank := cl.Bank()
	src, err := bank.CreateAccount(ctx, "dollar", 1<<40)
	if err != nil {
		b.Fatal(err)
	}
	dst, err := bank.CreateAccount(ctx, "dollar", 0)
	if err != nil {
		b.Fatal(err)
	}
	deposit, err := bank.Restrict(ctx, dst, cap.RightCreate)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := bank.Transfer(ctx, src, deposit, "dollar", 1); err != nil {
			b.Fatal(err)
		}
	}
}

// --------------------------------------------------------------------
// E11: the blocking trans() primitive.

func BenchmarkE11_TransSimnet(b *testing.B) {
	ctx := context.Background()
	cl := benchCluster(b)
	port := cl.put("files")
	payload := make([]byte, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := cl.RPC().Trans(ctx, port, rpc.Request{Op: rpc.OpEcho, Data: payload})
		if err != nil || rep.Status != rpc.StatusOK {
			b.Fatal(err, rep.Status)
		}
	}
}

func BenchmarkE11_TransTCP(b *testing.B) {
	ctx := context.Background()
	// Real TCP loopback between two OS processes' worth of stack (one
	// process, two sockets).
	reg := map[amnet.MachineID]string{1: "127.0.0.1:0", 2: "127.0.0.1:0"}
	srvNet, err := amnet.NewTCPNet(1, reg)
	if err != nil {
		b.Fatal(err)
	}
	defer srvNet.Close()
	reg2 := map[amnet.MachineID]string{1: srvNet.Addr(), 2: "127.0.0.1:0"}
	cliNet, err := amnet.NewTCPNet(2, reg2)
	if err != nil {
		b.Fatal(err)
	}
	defer cliNet.Close()
	srvNet.SetPeer(2, cliNet.Addr())

	srvFB := fbox.New(srvNet, nil)
	defer srvFB.Close()
	cliFB := fbox.New(cliNet, nil)
	defer cliFB.Close()

	src := crypto.NewSeededSource(0x7C9)
	server := rpc.NewServer(srvFB, src)
	server.Handle(rpc.OpEcho, func(_ context.Context, _ rpc.Meta, req rpc.Request) rpc.Reply {
		return rpc.OkReply(req.Data)
	})
	if err := server.Start(); err != nil {
		b.Fatal(err)
	}
	defer server.Close()

	res := locate.New(cliFB, locate.Config{})
	client := rpc.NewClient(cliFB, res, rpc.ClientConfig{Source: src})
	payload := make([]byte, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := client.Trans(ctx, server.PutPort(), rpc.Request{Op: rpc.OpEcho, Data: payload})
		if err != nil || rep.Status != rpc.StatusOK {
			b.Fatal(err, rep.Status)
		}
	}
}

// --------------------------------------------------------------------
// E12: LOCATE — cache hit vs broadcast round.

func BenchmarkE12_Locate(b *testing.B) {
	ctx := context.Background()
	cl := benchCluster(b)
	fb, _, err := cl.NewMachine()
	if err != nil {
		b.Fatal(err)
	}
	port := cl.put("files")
	b.Run("cache-hit", func(b *testing.B) {
		res := locate.New(fb, locate.Config{TTL: -1})
		if _, err := res.Lookup(ctx, port); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := res.Lookup(ctx, port); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("broadcast", func(b *testing.B) {
		res := locate.New(fb, locate.Config{})
		for i := 0; i < b.N; i++ {
			res.Invalidate(port)
			if _, err := res.Lookup(ctx, port); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// E8 ablation: what capability sealing costs per transaction —
// plain trans() vs. trans() with the §2.4 key matrix active.
func BenchmarkE8_SealedRPC(b *testing.B) {
	ctx := context.Background()
	run := func(b *testing.B, sealed bool) {
		cl, err := NewCluster(ClusterConfig{Seed: 0x5EA1, SealCapabilities: sealed})
		if err != nil {
			b.Fatal(err)
		}
		defer cl.Close()
		f, err := cl.Files().Create(ctx)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := cl.RPC().Validate(ctx, f); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("plain", func(b *testing.B) { run(b, false) })
	b.Run("sealed", func(b *testing.B) { run(b, true) })
}

// --------------------------------------------------------------------
// Batch: the OpBatch transaction vs per-object round trips, and the
// parallel E10 twins over the sharded stores. See EXPERIMENTS.md E13.

// BenchmarkBatch_FileRead is the headline batching claim: fetching 16
// KiB of blocks from the block server as 16 individual transactions
// vs one OpBatch frame, plus the flat file server's end-to-end ReadAt
// (which batches internally since the throughput overhaul).
func BenchmarkBatch_FileRead(b *testing.B) {
	ctx := context.Background()
	cl := benchCluster(b)
	blocks := cl.Blocks()
	const nblocks = 16
	const bsize = 1024
	caps := make([]cap.Capability, nblocks)
	payload := make([]byte, bsize)
	for i := range caps {
		c, err := blocks.Alloc(ctx)
		if err != nil {
			b.Fatal(err)
		}
		caps[i] = c
		if err := blocks.Write(ctx, c, payload); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("per-block-roundtrips", func(b *testing.B) {
		b.SetBytes(nblocks * bsize)
		for i := 0; i < b.N; i++ {
			for _, c := range caps {
				if _, err := blocks.Read(ctx, c); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("batched", func(b *testing.B) {
		b.SetBytes(nblocks * bsize)
		for i := 0; i < b.N; i++ {
			if _, err := blocks.ReadBatch(ctx, caps); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("flatfs-readat", func(b *testing.B) {
		f, err := cl.Files().Create(ctx)
		if err != nil {
			b.Fatal(err)
		}
		data := make([]byte, nblocks*bsize)
		if err := cl.Files().WriteAt(ctx, f, 0, data); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		b.SetBytes(nblocks * bsize)
		for i := 0; i < b.N; i++ {
			if _, err := cl.Files().ReadAt(ctx, f, 0, nblocks*bsize); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkBatch_Echo prices the frame packing itself: 16 echoes as
// 16 transactions vs one batch.
func BenchmarkBatch_Echo(b *testing.B) {
	ctx := context.Background()
	cl := benchCluster(b)
	port := cl.put("files")
	payload := make([]byte, 64)
	const n = 16
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for j := 0; j < n; j++ {
				rep, err := cl.RPC().Trans(ctx, port, rpc.Request{Op: rpc.OpEcho, Data: payload})
				if err != nil || rep.Status != rpc.StatusOK {
					b.Fatal(err, rep.Status)
				}
			}
		}
	})
	b.Run("batched", func(b *testing.B) {
		reqs := make([]rpc.Request, n)
		for j := range reqs {
			reqs[j] = rpc.Request{Op: rpc.OpEcho, Data: payload}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			reps, err := cl.RPC().Batch(ctx, port, reqs)
			if err != nil || len(reps) != n {
				b.Fatal(err, len(reps))
			}
		}
	})
}

// Parallel E10 twins: the same service operations issued from many
// goroutines at once. Before the sharded stores these serialized on
// each server's single mutex; now independent objects ride
// independent shard locks and the worker pool.

func BenchmarkE10_SegmentWriteParallel(b *testing.B) {
	ctx := context.Background()
	cl := benchCluster(b)
	mem := cl.Memory()
	segs := make([]cap.Capability, 32)
	for i := range segs {
		var err error
		segs[i], err = mem.CreateSegment(ctx, 1<<16)
		if err != nil {
			b.Fatal(err)
		}
	}
	data := make([]byte, 4096)
	var next atomic.Int64
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		// Each goroutine is its own workstation: a fresh machine with
		// its own F-box, reply ports and locate cache, writing its own
		// segment — the workload the sharded store exists for.
		_, rc, err := cl.NewMachine()
		if err != nil {
			b.Error(err)
			return
		}
		mc := memsvr.NewClient(rc, mem.Port())
		seg := segs[int(next.Add(1))%len(segs)]
		i := 0
		for pb.Next() {
			if err := mc.Write(ctx, seg, uint32(i%8)*4096, data); err != nil {
				b.Error(err)
				return
			}
			i++
		}
	})
}

func BenchmarkE10_BankTransferParallel(b *testing.B) {
	ctx := context.Background()
	cl := benchCluster(b)
	bank := cl.Bank()
	type pair struct{ src, dst cap.Capability }
	pairs := make([]pair, 32)
	for i := range pairs {
		src, err := bank.CreateAccount(ctx, "dollar", 1<<40)
		if err != nil {
			b.Fatal(err)
		}
		dst, err := bank.CreateAccount(ctx, "dollar", 0)
		if err != nil {
			b.Fatal(err)
		}
		pairs[i] = pair{src, dst}
	}
	var next atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		_, rc, err := cl.NewMachine()
		if err != nil {
			b.Error(err)
			return
		}
		bc := banksvr.NewClient(rc, bank.Port())
		p := pairs[int(next.Add(1))%len(pairs)]
		for pb.Next() {
			if err := bc.Transfer(ctx, p.src, p.dst, "dollar", 1); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

func BenchmarkE10_DirLookupParallel(b *testing.B) {
	ctx := context.Background()
	cl := benchCluster(b)
	dirs := cl.Dirs()
	roots := make([]cap.Capability, 32)
	for i := range roots {
		root, err := dirs.CreateDir(ctx, cl.DirPort())
		if err != nil {
			b.Fatal(err)
		}
		sub, err := dirs.CreateDir(ctx, cl.DirPort())
		if err != nil {
			b.Fatal(err)
		}
		if err := dirs.Enter(ctx, root, "entry", sub); err != nil {
			b.Fatal(err)
		}
		roots[i] = root
	}
	var next atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		_, rc, err := cl.NewMachine()
		if err != nil {
			b.Error(err)
			return
		}
		dc := dirsvr.NewClient(rc)
		root := roots[int(next.Add(1))%len(roots)]
		for pb.Next() {
			if _, err := dc.Lookup(ctx, root, "entry"); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// --------------------------------------------------------------------
// E18: write-ahead durability (see EXPERIMENTS.md E18).

// BenchmarkWALAppend prices one durable record: stage, group-commit,
// sync (a no-op on the memory disk, so this is the log's own
// bookkeeping cost). The parallel variant shows group commit batching
// concurrent appenders into shared syncs.
func BenchmarkWALAppend(b *testing.B) {
	newLog := func(b *testing.B) *wal.Log {
		b.Helper()
		disk, err := vdisk.New(8192, 1024)
		if err != nil {
			b.Fatal(err)
		}
		l, err := wal.Open(disk, wal.Options{})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { l.Close() })
		if err := l.Recover(nil, nil); err != nil {
			b.Fatal(err)
		}
		return l
	}
	rec := make([]byte, 64)
	append1 := func(b *testing.B, l *wal.Log) {
		t, err := l.Append(rec)
		if err == wal.ErrFull {
			if err := l.Checkpoint([]byte{1}); err != nil {
				b.Fatal(err)
			}
			t, err = l.Append(rec)
		}
		if err != nil {
			b.Fatal(err)
		}
		if err := t.Wait(); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("serial", func(b *testing.B) {
		l := newLog(b)
		b.SetBytes(int64(len(rec)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			append1(b, l)
		}
	})
	b.Run("parallel", func(b *testing.B) {
		l := newLog(b)
		b.SetBytes(int64(len(rec)))
		b.SetParallelism(8) // goroutines, not CPUs: batching needs waiters
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				append1(b, l)
			}
		})
		s := l.Stats()
		if s.Commits > 0 {
			b.ReportMetric(float64(s.Appends)/float64(s.Commits), "records/sync")
		}
	})
	// groupcommit models a disk whose durability point costs real time
	// (50µs), the regime group commit exists for: concurrent appenders
	// share syncs, so throughput beats one-sync-per-record by the
	// batching factor (see records/sync).
	b.Run("groupcommit", func(b *testing.B) {
		disk, err := vdisk.New(8192, 1024)
		if err != nil {
			b.Fatal(err)
		}
		l, err := wal.Open(&delaySyncDisk{Disk: disk, delay: 50 * time.Microsecond}, wal.Options{})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { l.Close() })
		if err := l.Recover(nil, nil); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(rec)))
		b.SetParallelism(8)
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				append1(b, l)
			}
		})
		s := l.Stats()
		if s.Commits > 0 {
			b.ReportMetric(float64(s.Appends)/float64(s.Commits), "records/sync")
		}
	})
}

// delaySyncDisk makes the memory disk's durability point cost like a
// real drive flush, so the group-commit benchmark measures batching.
type delaySyncDisk struct {
	*vdisk.Disk
	delay time.Duration
}

func (d *delaySyncDisk) Sync() error {
	time.Sleep(d.delay)
	return d.Disk.Sync()
}

// BenchmarkRecoveryReplay times a full restart-recovery scan over a
// 10k-record log: one iteration = open the log, replay every record,
// close. The acceptance bar is well under a second.
func BenchmarkRecoveryReplay(b *testing.B) {
	disk, err := vdisk.New(8192, 1024)
	if err != nil {
		b.Fatal(err)
	}
	l, err := wal.Open(disk, wal.Options{})
	if err != nil {
		b.Fatal(err)
	}
	if err := l.Recover(nil, nil); err != nil {
		b.Fatal(err)
	}
	const records = 10_000
	rec := make([]byte, 64)
	for i := 0; i < records; i++ {
		t, err := l.Append(rec)
		if err != nil {
			b.Fatal(err)
		}
		if err := t.Wait(); err != nil {
			b.Fatal(err)
		}
	}
	l.Close()

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rl, err := wal.Open(disk, wal.Options{})
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		if err := rl.Recover(nil, func([]byte) error { n++; return nil }); err != nil {
			b.Fatal(err)
		}
		if n != records {
			b.Fatalf("replayed %d records, want %d", n, records)
		}
		b.StopTimer()
		rl.Close()
		b.StartTimer()
	}
	b.ReportMetric(float64(records), "records/op")
}

// BenchmarkE18_DirEnter compares the directory server's mutating-op
// round trip volatile vs durable vs replicated: the volatile→durable
// delta (identical bare rigs) is the whole write-ahead bill (record
// encode, staging, group commit), and the durable→group2 delta is the
// replication bill (one synchronous ship RPC per group commit, the
// standby's own append+sync, its ack, the lease fence on the admission
// path). Acceptance bars: durable ≤ 3× volatile; group2 ≤ 2× durable.
// group2 and group3 are one path at two sizes — NewCluster{Replicas: n}
// — and group3's allocs/op is what scripts/allocgate.sh pins.
func BenchmarkE18_DirEnter(b *testing.B) {
	ctx := context.Background()
	scheme, err := cap.NewScheme(cap.SchemeOneWay)
	if err != nil {
		b.Fatal(err)
	}
	rig := func(b *testing.B, durable bool) (*dirsvr.Client, cap.Port) {
		b.Helper()
		n := amnet.NewSimNet(amnet.SimConfig{})
		b.Cleanup(func() { n.Close() })
		attach := func() *fbox.FBox {
			nic, err := n.Attach()
			if err != nil {
				b.Fatal(err)
			}
			fb := fbox.New(nic, nil)
			b.Cleanup(func() { fb.Close() })
			return fb
		}
		src := crypto.NewSeededSource(0xE18)
		var s *dirsvr.Server
		if durable {
			disk, err := vdisk.New(8192, 1024)
			if err != nil {
				b.Fatal(err)
			}
			log, err := wal.Open(disk, wal.Options{})
			if err != nil {
				b.Fatal(err)
			}
			if s, err = dirsvr.NewDurable(attach(), scheme, src, log, 0); err != nil {
				b.Fatal(err)
			}
		} else {
			s = dirsvr.New(attach(), scheme, src)
		}
		if err := s.Start(); err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { s.Close() })
		cfb := attach()
		res := locate.New(cfb, locate.Config{})
		return dirsvr.NewClient(rpc.NewClient(cfb, res, rpc.ClientConfig{Source: src})), s.PutPort()
	}
	group := func(replicas int) func(b *testing.B) (*dirsvr.Client, cap.Port) {
		return func(b *testing.B) (*dirsvr.Client, cap.Port) {
			b.Helper()
			cl, err := NewCluster(ClusterConfig{Seed: 0xE18, Replicas: replicas})
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(func() { cl.Close() })
			return cl.Dirs(), cl.DirPort()
		}
	}
	for _, mode := range []struct {
		name string
		rig  func(b *testing.B) (*dirsvr.Client, cap.Port)
	}{
		{"volatile", func(b *testing.B) (*dirsvr.Client, cap.Port) { return rig(b, false) }},
		{"durable", func(b *testing.B) (*dirsvr.Client, cap.Port) { return rig(b, true) }},
		{"group2", group(2)},
		{"group3", group(3)},
	} {
		b.Run(mode.name, func(b *testing.B) {
			dirs, port := mode.rig(b)
			root, err := dirs.CreateDir(ctx, port)
			if err != nil {
				b.Fatal(err)
			}
			entry := cap.Capability{Server: 1, Object: 2, Rights: cap.RightRead, Check: 3}
			// Steady state — alternate enter/remove of one name — so
			// the measured op is a mutation round trip while the
			// directory (and therefore each checkpoint snapshot) stays
			// tiny no matter how long the benchmark runs.
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%2 == 0 {
					if err := dirs.Enter(ctx, root, "flip", entry); err != nil {
						b.Fatal(err)
					}
				} else if err := dirs.Remove(ctx, root, "flip"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --------------------------------------------------------------------
// E19: the forced-election floor (see EXPERIMENTS.md E19).

// quietControlPlane silences the cluster's stdlog narration (elections,
// re-integrations, fail-stops) for one failover benchmark: those lines
// land on the same stream as the result line and split it, so
// scripts/benchjson cannot parse the row.
func quietControlPlane(b *testing.B) {
	prev := stdlog.Writer()
	stdlog.SetOutput(io.Discard)
	b.Cleanup(func() { stdlog.SetOutput(prev) })
}

// BenchmarkE19_Failover measures the floor of the availability gap a
// primary crash opens — failover with detection time taken out: each
// iteration stands up a 3-replica cluster, runs a small acknowledged
// workload, kills the directory primary, runs the election at once
// (the same unexported elect the detectors and Drain call), and times
// kill → first successful post-failover lookup (the client heals its
// route via timeout + LOCATE re-broadcast on the way).
func BenchmarkE19_Failover(b *testing.B) {
	quietControlPlane(b)
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cl, err := NewCluster(ClusterConfig{Seed: 0xE19_0000 + uint64(i), Replicas: 3})
		if err != nil {
			b.Fatal(err)
		}
		dirs := cl.Dirs()
		root, err := dirs.CreateDir(ctx, cl.DirPort())
		if err != nil {
			b.Fatal(err)
		}
		entry := cap.Capability{Server: 1, Object: 2, Rights: cap.RightRead, Check: 3}
		for j := 0; j < 8; j++ {
			if err := dirs.Enter(ctx, root, fmt.Sprintf("e%d", j), entry); err != nil {
				b.Fatal(err)
			}
		}
		primary := cl.Machines().Dirs
		b.StartTimer()
		if err := cl.Kill(primary); err != nil {
			b.Fatal(err)
		}
		forceElection(b, cl, cl.shards["directory"][0], primary)
		// First op against the elected standby: the client's cached
		// route points at the corpse; a short per-attempt timeout makes
		// the measured gap the failover's, not the default timeout's.
		lctx, cancel := context.WithTimeout(ctx, 10*time.Second)
		for {
			if _, err := cl.RPC().Call(lctx, root, dirsvr.OpLookup, []byte("e0"),
				rpc.WithTimeout(5*time.Millisecond), rpc.WithRetries(400)); err == nil {
				break
			} else if lctx.Err() != nil {
				b.Fatal(err)
			}
		}
		cancel()
		b.StopTimer()
		cl.Close()
	}
}

// --------------------------------------------------------------------
// E21: replication groups & automatic failover (see EXPERIMENTS.md E21).

// BenchmarkE21_AutoFailover is E19 with nobody at the wheel: a
// 3-replica directory group, the primary killed, and nobody forcing
// the election — the standbys' failure detectors must notice the
// silent lease on their own, elect the highest-acked standby, and
// start serving. The measured gap (kill → first acknowledged
// post-failover op) is therefore detection (1.5 lease terms at the
// default 150 ms term) + E19's floor (election + the client healing
// its route).
func BenchmarkE21_AutoFailover(b *testing.B) {
	quietControlPlane(b)
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cl, err := NewCluster(ClusterConfig{Seed: 0xE21_0000 + uint64(i), Replicas: 3})
		if err != nil {
			b.Fatal(err)
		}
		dirs := cl.Dirs()
		root, err := dirs.CreateDir(ctx, cl.DirPort())
		if err != nil {
			b.Fatal(err)
		}
		entry := cap.Capability{Server: 1, Object: 2, Rights: cap.RightRead, Check: 3}
		for j := 0; j < 8; j++ {
			if err := dirs.Enter(ctx, root, fmt.Sprintf("e%d", j), entry); err != nil {
				b.Fatal(err)
			}
		}
		primary := cl.Machines().Dirs
		b.StartTimer()
		if err := cl.Kill(primary); err != nil {
			b.Fatal(err)
		}
		lctx, cancel := context.WithTimeout(ctx, 30*time.Second)
		for {
			if _, err := cl.RPC().Call(lctx, root, dirsvr.OpLookup, []byte("e0"),
				rpc.WithTimeout(5*time.Millisecond), rpc.WithRetries(400)); err == nil {
				break
			} else if lctx.Err() != nil {
				b.Fatal(err)
			}
		}
		cancel()
		b.StopTimer()
		cl.Close()
	}
}

// BenchmarkE22_WedgedDiskFailover is E21 with a gray failure instead
// of a crash: the primary's WAL disk starts returning EIO while its
// NIC stays healthy. The first write springs the trap — the log
// wedges, the primary self-demotes and is fail-stopped, the standbys'
// detectors see silence and elect. Measured: fault injection → first
// acknowledged post-failover write, i.e. E21's detection + election +
// route-heal bill plus the wedge trip itself.
func BenchmarkE22_WedgedDiskFailover(b *testing.B) {
	quietControlPlane(b)
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cl, err := NewCluster(ClusterConfig{Seed: 0xE22_0000 + uint64(i), Replicas: 3})
		if err != nil {
			b.Fatal(err)
		}
		dirs := cl.Dirs()
		root, err := dirs.CreateDir(ctx, cl.DirPort())
		if err != nil {
			b.Fatal(err)
		}
		entry := cap.Capability{Server: 1, Object: 2, Rights: cap.RightRead, Check: 3}
		for j := 0; j < 8; j++ {
			if err := dirs.Enter(ctx, root, fmt.Sprintf("e%d", j), entry); err != nil {
				b.Fatal(err)
			}
		}
		fault := cl.WALFault(cl.Machines().Dirs)
		b.StartTimer()
		fault.FailWritesAfter(0)
		lctx, cancel := context.WithTimeout(ctx, 30*time.Second)
		for n := 0; ; n++ {
			ectx, ecancel := context.WithTimeout(lctx, 100*time.Millisecond)
			err := dirs.Enter(ectx, root, fmt.Sprintf("p%d", n), entry)
			ecancel()
			if err == nil {
				break
			}
			if lctx.Err() != nil {
				b.Fatal(err)
			}
		}
		cancel()
		b.StopTimer()
		cl.Close()
	}
}

// --------------------------------------------------------------------
// E23: horizontal sharding (see EXPERIMENTS.md E23).

// BenchmarkE23_ShardedThroughput measures dirsvr WRITE throughput as
// the service's object space is split across 1, 2, and 4 shard
// machines behind the SAME put-port. Every shard's WAL disk is slowed
// to 1ms per block I/O (vdisk.FaultStore.SetSlow) so the durable log —
// not this box's CPU — is the per-shard bottleneck, as it would be on
// real hardware: group commit amortizes the sync, but staging is still
// one block write per 512 bytes of records, so each shard's write
// bandwidth is capped by its own disk. 64 closed-loop writers alternate
// Enter/Remove on per-writer directories spread round-robin across the
// shards; with M shards there are M WALs absorbing the same record
// stream, so throughput scales with M (EXPERIMENTS.md E23 records the
// curve; the acceptance bar is ≥1.7x at M=2 and ≥3x at M=4).
func BenchmarkE23_ShardedThroughput(b *testing.B) {
	ctx := context.Background()
	const workers = 64
	for _, shards := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			cl, err := NewCluster(ClusterConfig{Seed: 0xE23, Shards: shards})
			if err != nil {
				b.Fatal(err)
			}
			defer cl.Close()
			dirs := cl.Dirs()
			roots := make([]cap.Capability, workers)
			mark := cap.Capability{Server: 1, Object: 2, Rights: cap.RightRead, Check: 3}
			for i := range roots {
				if roots[i], err = dirs.CreateDir(ctx, cl.DirPort()); err != nil {
					b.Fatal(err)
				}
			}
			walMachines := []amnet.MachineID{cl.Machines().Dirs}
			if shards >= 2 {
				walMachines = cl.ShardMachines(cl.DirPort())
			}
			for _, m := range walMachines {
				cl.WALFault(m).SetSlow(time.Millisecond)
			}
			var (
				next atomic.Int64
				wg   sync.WaitGroup
			)
			b.ResetTimer()
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					_, rc, err := cl.NewMachine()
					if err != nil {
						b.Error(err)
						return
					}
					dc := dirsvr.NewClient(rc)
					name := fmt.Sprintf("w%d", w)
					// Alternation is per WORKER (the global counter only
					// meters b.N): each worker enters then removes its own
					// name so both ops always apply cleanly. The transport
					// is at-least-once: when a checkpoint stalls a reply
					// past the retransmit timeout the retry re-applies, so
					// a refusal ("exists"/"no entry", a server error)
					// against this worker's PRIVATE name just means the
					// first attempt landed.
					for j := 0; ; j++ {
						if next.Add(1) > int64(b.N) {
							return
						}
						if j%2 == 0 {
							err = dc.Enter(ctx, roots[w], name, mark)
						} else {
							err = dc.Remove(ctx, roots[w], name)
						}
						if err != nil && !rpc.IsStatus(err, rpc.StatusServerError) {
							b.Error(err)
							return
						}
					}
				}(w)
			}
			wg.Wait()
			b.StopTimer()
			for _, m := range walMachines {
				cl.WALFault(m).SetSlow(0)
			}
		})
	}
}
