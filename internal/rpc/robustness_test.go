package rpc

import (
	"context"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"amoeba/internal/amnet"
	"amoeba/internal/cap"
	"amoeba/internal/crypto"
	"amoeba/internal/fbox"
	"amoeba/internal/locate"
)

// lossyRig builds a client/server pair over a network that drops
// frames.
func lossyRig(t *testing.T, lossRate float64, seed uint64) (*Client, *Server, *amnet.SimNet) {
	t.Helper()
	n := amnet.NewSimNet(amnet.SimConfig{LossRate: lossRate, Seed: seed})
	t.Cleanup(func() { n.Close() })
	attach := func() *fbox.FBox {
		nic, err := n.Attach()
		if err != nil {
			t.Fatal(err)
		}
		fb := fbox.New(nic, nil)
		t.Cleanup(func() { fb.Close() })
		return fb
	}
	clientFB, serverFB := attach(), attach()
	src := crypto.NewSeededSource(seed)
	server := NewServer(serverFB, src)
	server.Handle(OpEcho, func(_ context.Context, _ Meta, req Request) Reply { return OkReply(req.Data) })
	if err := server.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { server.Close() })
	res := locate.New(clientFB, locate.Config{Timeout: 100 * time.Millisecond, Attempts: 10})
	client := NewClient(clientFB, res, ClientConfig{
		Timeout: 150 * time.Millisecond,
		Retries: 10,
		Source:  src,
	})
	return client, server, n
}

func TestTransSurvivesFrameLoss(t *testing.T) {
	ctx := context.Background()
	// 30% loss on every frame (requests, replies, LOCATEs): the
	// client's retry loop must still complete every transaction.
	client, server, _ := lossyRig(t, 0.30, 0x1055)
	for i := 0; i < 20; i++ {
		rep, err := client.Trans(ctx, server.PutPort(), Request{Op: OpEcho, Data: []byte{byte(i)}})
		if err != nil {
			t.Fatalf("transaction %d failed under loss: %v", i, err)
		}
		if len(rep.Data) != 1 || rep.Data[0] != byte(i) {
			t.Fatalf("transaction %d corrupted: %v", i, rep.Data)
		}
	}
}

func TestTransFailsCleanlyUnderPartition(t *testing.T) {
	ctx := context.Background()
	client, server, n := lossyRig(t, 0, 0xBAD)
	// Warm the locate cache.
	if _, err := client.Trans(ctx, server.PutPort(), Request{Op: OpEcho}); err != nil {
		t.Fatal(err)
	}
	// Cut the link between the two machines.
	n.Partition(1, 2)
	start := time.Now()
	_, err := client.Trans(ctx, server.PutPort(), Request{Op: OpEcho})
	if err == nil {
		t.Fatal("transaction crossed a partition")
	}
	if time.Since(start) > 10*time.Second {
		t.Fatal("partition failure took unreasonably long")
	}
	// Heal and confirm recovery.
	n.Heal(1, 2)
	if _, err := client.Trans(ctx, server.PutPort(), Request{Op: OpEcho}); err != nil {
		t.Fatalf("transaction after heal: %v", err)
	}
}

func TestTwoServersOneMachine(t *testing.T) {
	ctx := context.Background()
	// "Every server has one or more ports": multiple services share a
	// machine (and its F-box), each with its own get-port.
	n := amnet.NewSimNet(amnet.SimConfig{})
	t.Cleanup(func() { n.Close() })
	nic1, err := n.Attach()
	if err != nil {
		t.Fatal(err)
	}
	hostFB := fbox.New(nic1, nil)
	t.Cleanup(func() { hostFB.Close() })
	nic2, err := n.Attach()
	if err != nil {
		t.Fatal(err)
	}
	clientFB := fbox.New(nic2, nil)
	t.Cleanup(func() { clientFB.Close() })

	src := crypto.NewSeededSource(0x251)
	s1 := NewServer(hostFB, src)
	s1.Handle(OpEcho, func(_ context.Context, _ Meta, req Request) Reply {
		return OkReply(append([]byte("one:"), req.Data...))
	})
	s2 := NewServer(hostFB, src)
	s2.Handle(OpEcho, func(_ context.Context, _ Meta, req Request) Reply {
		return OkReply(append([]byte("two:"), req.Data...))
	})
	if err := s1.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s1.Close() })
	if err := s2.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s2.Close() })
	if s1.PutPort() == s2.PutPort() {
		t.Fatal("two servers share a put-port")
	}

	res := locate.New(clientFB, locate.Config{Timeout: 200 * time.Millisecond})
	client := NewClient(clientFB, res, ClientConfig{Source: src})
	rep1, err := client.Trans(ctx, s1.PutPort(), Request{Op: OpEcho, Data: []byte("x")})
	if err != nil || string(rep1.Data) != "one:x" {
		t.Fatalf("server one: %q %v", rep1.Data, err)
	}
	rep2, err := client.Trans(ctx, s2.PutPort(), Request{Op: OpEcho, Data: []byte("x")})
	if err != nil || string(rep2.Data) != "two:x" {
		t.Fatalf("server two: %q %v", rep2.Data, err)
	}
}

func TestConcurrentClientsOneServer(t *testing.T) {
	ctx := context.Background()
	n := amnet.NewSimNet(amnet.SimConfig{})
	t.Cleanup(func() { n.Close() })
	attach := func() *fbox.FBox {
		nic, err := n.Attach()
		if err != nil {
			t.Fatal(err)
		}
		fb := fbox.New(nic, nil)
		t.Cleanup(func() { fb.Close() })
		return fb
	}
	src := crypto.NewSeededSource(0xC0C0)
	serverFB := attach()
	server := NewServer(serverFB, src)
	scheme, err := cap.NewScheme(cap.SchemeCommutative)
	if err != nil {
		t.Fatal(err)
	}
	table := cap.NewTable(scheme, server.PutPort(), src)
	server.ServeTable(table)
	if err := server.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { server.Close() })

	const clients = 6
	var wg sync.WaitGroup
	for g := 0; g < clients; g++ {
		fb := attach()
		res := locate.New(fb, locate.Config{Timeout: 300 * time.Millisecond})
		client := NewClient(fb, res, ClientConfig{Source: src, Timeout: time.Second})
		wg.Add(1)
		go func(g int, client *Client) {
			defer wg.Done()
			owner, err := table.Create()
			if err != nil {
				t.Errorf("client %d create: %v", g, err)
				return
			}
			for i := 0; i < 20; i++ {
				weak, err := client.Restrict(ctx, owner, cap.RightRead)
				if err != nil {
					t.Errorf("client %d restrict: %v", g, err)
					return
				}
				rights, err := client.Validate(ctx, weak)
				if err != nil || rights != cap.RightRead {
					t.Errorf("client %d validate: %v %v", g, rights, err)
					return
				}
			}
		}(g, client)
	}
	wg.Wait()
}

// TestOverMTUReplyFailsFast: a reply the wire cannot carry used to be
// dropped in silence — the client retried, the handler re-executed, and
// the caller learned nothing until its deadline. The server now answers
// it once, for any handler, with a StatusServerError naming the size and
// the limit.
func TestOverMTUReplyFailsFast(t *testing.T) {
	const opPlain, opPooled = 0x0A01, 0x0A02
	r := newTestRig(t, cap.SchemeOneWay)
	var runs atomic.Int32
	r.server.Handle(opPlain, func(context.Context, Meta, Request) Reply {
		runs.Add(1)
		return OkReply(make([]byte, amnet.MTU))
	})
	r.server.Handle(opPooled, func(context.Context, Meta, Request) Reply {
		runs.Add(1)
		b := NewReplyBuf(amnet.MTU)
		b.Extend(amnet.MTU)
		return OkReplyBuf(b)
	})
	r.start(t)
	for _, op := range []uint16{opPlain, opPooled} {
		runs.Store(0)
		start := time.Now()
		rep, err := r.client.Trans(context.Background(), r.server.PutPort(), Request{Op: op})
		if err != nil {
			t.Fatalf("op %#x: an over-MTU reply left the client to time out: %v", op, err)
		}
		if rep.Status != StatusServerError || !strings.Contains(string(rep.Data), "exceeds") {
			t.Fatalf("op %#x: reply %v %q, want a server error naming the limit", op, rep.Status, rep.Data)
		}
		if took := time.Since(start); took >= 500*time.Millisecond {
			t.Fatalf("op %#x: answered after %v — a whole client attempt", op, took)
		}
		if n := runs.Load(); n != 1 {
			t.Fatalf("op %#x: handler ran %d times, want 1", op, n)
		}
	}
}
