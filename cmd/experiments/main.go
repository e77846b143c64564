// Command experiments regenerates every experiment in EXPERIMENTS.md's
// opening table and prints the tables recorded there: the comparative
// properties and costs of the paper's four rights-protection schemes,
// the F-box and signature properties of Fig. 1, the §2.4 key-matrix
// behaviour, the sparseness sweep, and end-to-end service costs.
//
// Usage:
//
//	go run ./cmd/experiments           # full run
//	go run ./cmd/experiments -quick    # reduced iteration counts
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"time"

	"amoeba"
	"amoeba/internal/amnet"
	"amoeba/internal/cap"
	"amoeba/internal/crypto"
	"amoeba/internal/fbox"
	"amoeba/internal/keymatrix"
	"amoeba/internal/locate"
	"amoeba/internal/rpc"
)

var quick = flag.Bool("quick", false, "reduced iteration counts")

func iters(full int) int {
	if *quick {
		return full / 10
	}
	return full
}

// measure returns ns/op for fn run n times.
func measure(n int, fn func()) float64 {
	start := time.Now()
	for i := 0; i < n; i++ {
		fn()
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n)
}

func main() {
	flag.Parse()
	fmt.Println("# Amoeba sparse-capability experiments")
	fmt.Println()
	expF2()
	expF1()
	expSchemes()
	expE4Sweep()
	expE4LocalVsServer()
	expE5()
	expE6()
	expE7()
	expE8()
	expE9()
	expE10()
	expE11E12()
}

// ---------------------------------------------------------------- F2

func expF2() {
	fmt.Println("## F2 — Fig. 2 capability format")
	c := cap.Capability{Server: 0x123456789abc, Object: 0xABCDEF, Rights: 0x5A, Check: 0x0F0E0D0C0B0A}
	w := c.Encode()
	dec, err := cap.Decode(w[:])
	if err != nil || dec != c {
		log.Fatal("F2: wire format broken")
	}
	ns := measure(iters(2_000_000), func() {
		w := c.Encode()
		dec, _ = cap.Decode(w[:])
	})
	fmt.Printf("- wire size: %d bytes = 48+24+8+48 bits, field order per Fig. 2: OK\n", cap.Size)
	fmt.Printf("- encode+decode: %.1f ns/op\n\n", ns)
}

// ---------------------------------------------------------------- F1

func expF1() {
	fmt.Println("## F1 — Fig. 1 F-box port protection")
	for _, f := range []crypto.OneWay{crypto.SHA48{Tag: 1}, crypto.Purdy{}} {
		x := uint64(0x1234)
		ns := measure(iters(2_000_000), func() { x = f.F(x) })
		fmt.Printf("- one-way transform %-8s: %.1f ns/op\n", f.Name(), ns)
	}

	// Property run: intruder GET(P) receives nothing.
	net := amnet.NewSimNet(amnet.SimConfig{})
	defer net.Close()
	src := crypto.NewSeededSource(0xF1)
	attach := func() *fbox.FBox {
		nic, err := net.Attach()
		if err != nil {
			log.Fatal(err)
		}
		return fbox.New(nic, nil)
	}
	client, server, intruder := attach(), attach(), attach()
	defer client.Close()
	defer server.Close()
	defer intruder.Close()
	g := cap.Port(crypto.Rand48(src))
	p := server.F(g)
	srvL, err := server.Get(g, true)
	if err != nil {
		log.Fatal(err)
	}
	intL, err := intruder.Get(p, true)
	if err != nil {
		log.Fatal(err)
	}
	if err := client.Put(amnet.BroadcastID, fbox.Message{Dest: p, Payload: []byte("x")}); err != nil {
		log.Fatal(err)
	}
	select {
	case <-srvL.Recv():
	case <-time.After(time.Second):
		log.Fatal("F1: server did not receive")
	}
	select {
	case <-intL.Recv():
		log.Fatal("F1: intruder received!")
	case <-time.After(20 * time.Millisecond):
	}
	fmt.Println("- intruder GET(P) listens on F(P), receives nothing: CONFIRMED")
	fmt.Println()
}

// ------------------------------------------------------------ E1–E4

func expSchemes() {
	fmt.Println("## E1–E4 — the four §2.3 rights-protection schemes")
	fmt.Println()
	fmt.Println("| scheme | mint ns | validate ns | rights? | local restrict? | tamper detected? |")
	fmt.Println("|---|---|---|---|---|---|")
	src := crypto.NewSeededSource(0xE14)
	for _, id := range cap.AllSchemeIDs() {
		s, err := cap.NewScheme(id)
		if err != nil {
			log.Fatal(err)
		}
		secret := s.PrepareSecret(crypto.Rand48(src))
		owner := s.Mint(0xABC, 1, secret)

		mintNs := measure(iters(200_000), func() { s.Mint(0xABC, 1, secret) })
		valNs := measure(iters(200_000), func() {
			if _, err := s.Validate(owner, secret); err != nil {
				log.Fatal(err)
			}
		})

		distinguishes := id != cap.SchemeCompare
		tamperDetected := "n/a"
		if distinguishes {
			weak, err := s.Restrict(owner, cap.RightRead, secret)
			if err != nil {
				log.Fatal(err)
			}
			forged := weak
			forged.Rights |= cap.RightWrite
			if id == cap.SchemeEncrypted {
				// Rights field is ciphertext here; flip a bit of it.
				forged = weak
				forged.Rights ^= 0x10
			}
			if rights, err := s.Validate(forged, secret); err != nil || !rights.Has(cap.RightWrite) {
				tamperDetected = "yes"
			} else {
				tamperDetected = "NO"
			}
		}
		fmt.Printf("| %s | %.0f | %.0f | %v | %v | %s |\n",
			id, mintNs, valNs, distinguishes, s.CanRestrictLocally(), tamperDetected)
	}
	// The paper's E2 warning: XOR is not a suitable cipher.
	xor := cap.NewXOREncryptedScheme()
	secret := xor.PrepareSecret(0xBEEF)
	weak, err := xor.Restrict(xor.Mint(0xABC, 1, secret), cap.RightRead, secret)
	if err != nil {
		log.Fatal(err)
	}
	forged := weak
	forged.Rights ^= cap.RightWrite
	if rights, err := xor.Validate(forged, secret); err == nil && rights.Has(cap.RightWrite) {
		fmt.Println("\n- scheme 1 with XOR \"cipher\": rights forgery ACCEPTED — reproduces the paper's warning that XOR will not do")
	} else {
		log.Fatal("E2: XOR warning not reproduced")
	}
	fmt.Println()
}

// E4: scheme 3 validation cost grows with deleted rights.
func expE4Sweep() {
	fmt.Println("## E4 — scheme 3 validation cost vs. deleted rights")
	fmt.Println()
	fmt.Println("| rights deleted | validate ns |")
	fmt.Println("|---|---|")
	s := cap.NewCommutativeScheme(nil)
	secret := s.PrepareSecret(777)
	owner := s.Mint(0xABC, 1, secret)
	for deleted := 0; deleted <= 8; deleted++ {
		mask := cap.AllRights << uint(deleted)
		weak, err := s.RestrictLocal(owner, mask)
		if err != nil {
			log.Fatal(err)
		}
		ns := measure(iters(200_000), func() {
			if _, err := s.Validate(weak, secret); err != nil {
				log.Fatal(err)
			}
		})
		fmt.Printf("| %d | %.0f |\n", deleted, ns)
	}
	fmt.Println()
}

func expE4LocalVsServer() {
	ctx := context.Background()
	fmt.Println("## E4 — restriction: scheme 3 local vs. scheme 2 server round trip")
	s3 := cap.NewCommutativeScheme(nil)
	secret := s3.PrepareSecret(777)
	owner := s3.Mint(0xABC, 1, secret)
	localNs := measure(iters(200_000), func() {
		if _, err := s3.RestrictLocal(owner, cap.RightRead); err != nil {
			log.Fatal(err)
		}
	})

	cl, err := amoeba.NewCluster(amoeba.ClusterConfig{Scheme: amoeba.SchemeOneWay, Seed: 0xE4})
	if err != nil {
		log.Fatal(err)
	}
	defer cl.Close()
	f, err := cl.Files().Create(ctx)
	if err != nil {
		log.Fatal(err)
	}
	serverNs := measure(iters(5_000), func() {
		if _, err := cl.Files().Restrict(ctx, f, cap.RightRead); err != nil {
			log.Fatal(err)
		}
	})
	fmt.Printf("- scheme 3 local restriction:        %.0f ns\n", localNs)
	fmt.Printf("- scheme 2 via server (simnet RPC):  %.0f ns\n", serverNs)
	fmt.Printf("- factor avoided by scheme 3:        %.1fx (grows with real network latency)\n\n", serverNs/localNs)
}

func expE5() {
	fmt.Println("## E5 — \"the RIGHTS field is not even needed\"")
	s := cap.NewCommutativeScheme(nil)
	secret := s.PrepareSecret(99)
	weak, err := s.RestrictLocal(s.Mint(0xABC, 1, secret), cap.RightRead|cap.RightCreate)
	if err != nil {
		log.Fatal(err)
	}
	withNs := measure(iters(100_000), func() {
		if _, err := s.Validate(weak, secret); err != nil {
			log.Fatal(err)
		}
	})
	blind := weak
	blind.Rights = 0 // erased
	rights, err := s.ValidateExhaustive(blind, secret)
	if err != nil || rights != cap.RightRead|cap.RightCreate {
		log.Fatal("E5: exhaustive validation failed to recover rights")
	}
	exhNs := measure(iters(2_000), func() {
		if _, err := s.ValidateExhaustive(blind, secret); err != nil {
			log.Fatal(err)
		}
	})
	fmt.Printf("- rights recovered with field erased: %v\n", rights)
	fmt.Printf("- validate with rights field:   %.0f ns\n", withNs)
	fmt.Printf("- validate trying all 2^8 sets: %.0f ns (%.0fx — \"its presence merely speeds up the checking\")\n\n",
		exhNs, exhNs/withNs)
}

func expE6() {
	fmt.Println("## E6 — revocation")
	fmt.Println()
	fmt.Println("| scheme | revoke ns | outstanding caps invalidated? |")
	fmt.Println("|---|---|---|")
	for _, id := range cap.AllSchemeIDs() {
		s, err := cap.NewScheme(id)
		if err != nil {
			log.Fatal(err)
		}
		t := cap.NewTable(s, 0xABC, crypto.NewSeededSource(uint64(id)+0xE6))
		owner, err := t.Create()
		if err != nil {
			log.Fatal(err)
		}
		old := owner
		ns := measure(iters(50_000), func() {
			owner, err = t.Revoke(owner)
			if err != nil {
				log.Fatal(err)
			}
		})
		_, errOld := t.Validate(old)
		fmt.Printf("| %s | %.0f | %v |\n", id, ns, errOld != nil)
	}
	fmt.Println()
}

func expE7() {
	fmt.Println("## E7 — F-box digital signatures")
	f := crypto.SHA48{Tag: 1}
	signer := fbox.NewSigner(crypto.NewSeededSource(7), f)
	ns := measure(iters(500_000), func() {
		onWire := cap.Port(f.F(uint64(signer.Secret())))
		if !fbox.VerifySignature(fbox.Received{Message: fbox.Message{Sig: onWire}}, signer.Public()) {
			log.Fatal("E7 broken")
		}
	})
	forgedOnWire := cap.Port(f.F(uint64(signer.Public()))) // F(F(S))
	forgedOK := fbox.VerifySignature(fbox.Received{Message: fbox.Message{Sig: forgedOnWire}}, signer.Public())
	fmt.Printf("- sign (F-transform) + verify: %.0f ns\n", ns)
	fmt.Printf("- forging with published F(S) verifies: %v (transmitted as F(F(S)))\n\n", forgedOK)
}

func expE8() {
	fmt.Println("## E8 — §2.4 key matrix (no F-boxes)")
	src := crypto.NewSeededSource(8)
	m := keymatrix.NewMatrix(src)
	peers := []amnet.MachineID{1, 2, 3}
	client := m.Guard(1, peers, nil)
	server := m.Guard(2, peers, nil)
	c := cap.Capability{Server: 0xABC, Object: 1, Rights: 0xFF, Check: 0x123456}

	missNs := measure(iters(50_000), func() {
		client.FlushCaches()
		if _, err := client.Seal(c, 2); err != nil {
			log.Fatal(err)
		}
	})
	if _, err := client.Seal(c, 2); err != nil {
		log.Fatal(err)
	}
	hitNs := measure(iters(2_000_000), func() {
		if _, err := client.Seal(c, 2); err != nil {
			log.Fatal(err)
		}
	})
	fmt.Printf("- seal, cache miss: %.0f ns;  cache hit: %.0f ns  (%.0fx saved — the paper's hashed caches)\n",
		missNs, hitNs, missNs/hitNs)

	// Replay property.
	sealed, err := client.Seal(c, 2)
	if err != nil {
		log.Fatal(err)
	}
	honest, err := server.Open(sealed, 1)
	if err != nil {
		log.Fatal(err)
	}
	replayed, err := server.Open(sealed, 3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("- honest open recovers capability: %v; replay from machine 3 recovers it: %v\n",
		honest == c, replayed == c)

	// Bootstrap handshake.
	priv, err := crypto.GenerateRSA(1024, nil)
	if err != nil {
		log.Fatal(err)
	}
	n := iters(200)
	start := time.Now()
	for i := 0; i < n; i++ {
		a, b := keymatrix.NewGuard(1, nil), keymatrix.NewGuard(2, nil)
		if err := keymatrix.Bootstrap(a, b, priv, src); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("- RSA-1024 bootstrap handshake: %.2f ms/op (fresh conventional keys per reboot)\n",
		float64(time.Since(start).Microseconds())/float64(n)/1000)

	// Ablation: a full RPC round trip with and without sealing.
	plainNs := sealedRPCCost(false)
	sealedNs := sealedRPCCost(true)
	fmt.Printf("- validate-capability RPC: plain %.1f µs, sealed %.1f µs (+%.1f µs for the matrix, amortized by the caches)\n\n",
		plainNs/1000, sealedNs/1000, (sealedNs-plainNs)/1000)
}

func sealedRPCCost(sealed bool) float64 {
	ctx := context.Background()
	cl, err := amoeba.NewCluster(amoeba.ClusterConfig{Seed: 0xE8A, SealCapabilities: sealed})
	if err != nil {
		log.Fatal(err)
	}
	defer cl.Close()
	f, err := cl.Files().Create(ctx)
	if err != nil {
		log.Fatal(err)
	}
	// Warm locate + seal caches.
	if _, err := cl.RPC().Validate(ctx, f); err != nil {
		log.Fatal(err)
	}
	return measure(iters(10_000), func() {
		if _, err := cl.RPC().Validate(ctx, f); err != nil {
			log.Fatal(err)
		}
	})
}

func expE9() {
	fmt.Println("## E9 — sparseness: forgery probability vs. check-field width")
	fmt.Println()
	fmt.Println("| check bits | guesses | forgeries | empirical p | expected p |")
	fmt.Println("|---|---|---|---|---|")
	f := crypto.SHA48{Tag: 2}
	src := crypto.NewSeededSource(9)
	secret := crypto.Rand48(src)
	rights := uint64(0xFF)
	for _, w := range []uint{8, 12, 16, 20, 24, 48} {
		mask := uint64(1)<<w - 1
		want := f.F(secret^rights) & mask
		trials := iters(2_000_000)
		hits := 0
		for i := 0; i < trials; i++ {
			if src.Uint64()&mask == want {
				hits++
			}
		}
		fmt.Printf("| %d | %d | %d | %.2e | %.2e |\n",
			w, trials, hits, float64(hits)/float64(trials), 1/float64(uint64(1)<<w))
	}
	fmt.Println()
	fmt.Println("At the paper's 48 bits, expected success is 3.6e-15 per guess;")
	fmt.Println("the sweep shows the exponential decay that makes the capability 'sparse'.")
	fmt.Println()
}

func expE10() {
	ctx := context.Background()
	fmt.Println("## E10 — the §3 services, end-to-end over the simulated network")
	cl, err := amoeba.NewCluster(amoeba.ClusterConfig{Seed: 0xE10, DiskBlocks: 8192})
	if err != nil {
		log.Fatal(err)
	}
	defer cl.Close()

	seg, err := cl.Memory().CreateSegment(ctx, 1<<20)
	if err != nil {
		log.Fatal(err)
	}
	buf := make([]byte, 4096)
	segNs := measure(iters(5_000), func() {
		if err := cl.Memory().Write(ctx, seg, 0, buf); err != nil {
			log.Fatal(err)
		}
	})

	file, err := cl.Files().Create(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fwNs := measure(iters(2_000), func() {
		if err := cl.Files().WriteAt(ctx, file, 0, buf[:1024]); err != nil {
			log.Fatal(err)
		}
	})
	frNs := measure(iters(2_000), func() {
		if _, err := cl.Files().ReadAt(ctx, file, 0, 1024); err != nil {
			log.Fatal(err)
		}
	})

	dirs := cl.Dirs()
	root, err := dirs.CreateDir(ctx, cl.DirPort())
	if err != nil {
		log.Fatal(err)
	}
	if err := dirs.Enter(ctx, root, "x", file); err != nil {
		log.Fatal(err)
	}
	dlNs := measure(iters(5_000), func() {
		if _, err := dirs.Lookup(ctx, root, "x"); err != nil {
			log.Fatal(err)
		}
	})

	mv := cl.Versions()
	doc, err := mv.CreateFile(ctx)
	if err != nil {
		log.Fatal(err)
	}
	mvNs := measure(iters(2_000), func() {
		v, err := mv.NewVersion(ctx, doc)
		if err != nil {
			log.Fatal(err)
		}
		if err := mv.WritePage(ctx, v, 0, buf[:1024]); err != nil {
			log.Fatal(err)
		}
		if _, _, err := mv.Commit(ctx, v); err != nil {
			log.Fatal(err)
		}
	})

	bank := cl.Bank()
	a, err := bank.CreateAccount(ctx, "dollar", 1<<40)
	if err != nil {
		log.Fatal(err)
	}
	b, err := bank.CreateAccount(ctx, "dollar", 0)
	if err != nil {
		log.Fatal(err)
	}
	dep, err := bank.Restrict(ctx, b, cap.RightCreate)
	if err != nil {
		log.Fatal(err)
	}
	btNs := measure(iters(5_000), func() {
		if err := bank.Transfer(ctx, a, dep, "dollar", 1); err != nil {
			log.Fatal(err)
		}
	})

	fmt.Println()
	fmt.Println("| operation | µs/op |")
	fmt.Println("|---|---|")
	fmt.Printf("| memory server: 4 KiB segment write | %.1f |\n", segNs/1000)
	fmt.Printf("| flat file: 1 KiB write (via block server) | %.1f |\n", fwNs/1000)
	fmt.Printf("| flat file: 1 KiB read | %.1f |\n", frNs/1000)
	fmt.Printf("| directory lookup | %.1f |\n", dlNs/1000)
	fmt.Printf("| multiversion: new version + 1 page + commit | %.1f |\n", mvNs/1000)
	fmt.Printf("| bank transfer | %.1f |\n", btNs/1000)
	fmt.Println()
}

func expE11E12() {
	ctx := context.Background()
	fmt.Println("## E11/E12 — trans() and LOCATE")
	cl, err := amoeba.NewCluster(amoeba.ClusterConfig{Seed: 0xE11})
	if err != nil {
		log.Fatal(err)
	}
	defer cl.Close()
	port := cl.Files().Port()
	echoNs := measure(iters(10_000), func() {
		rep, err := cl.RPC().Trans(ctx, port, rpc.Request{Op: rpc.OpEcho, Data: []byte("x")})
		if err != nil || rep.Status != rpc.StatusOK {
			log.Fatal(err)
		}
	})
	fb, _, err := cl.NewMachine()
	if err != nil {
		log.Fatal(err)
	}
	res := locate.New(fb, locate.Config{TTL: -1})
	if _, err := res.Lookup(ctx, port); err != nil {
		log.Fatal(err)
	}
	hitNs := measure(iters(1_000_000), func() {
		if _, err := res.Lookup(ctx, port); err != nil {
			log.Fatal(err)
		}
	})
	res2 := locate.New(fb, locate.Config{})
	bcastNs := measure(iters(5_000), func() {
		res2.Invalidate(port)
		if _, err := res2.Lookup(ctx, port); err != nil {
			log.Fatal(err)
		}
	})
	fmt.Printf("- trans() echo round trip (simnet): %.1f µs\n", echoNs/1000)
	fmt.Printf("- LOCATE: cache hit %.0f ns, broadcast round %.1f µs (%.0fx — the §2.2 port cache)\n\n",
		hitNs, bcastNs/1000, bcastNs/hitNs)
}
