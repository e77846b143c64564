package rpc

import (
	"context"
	"errors"
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

// testRig wires a client and a server machine on a simnet.
type testRig struct {
	net      *amnet.SimNet
	clientFB *fbox.FBox
	serverFB *fbox.FBox
	client   *Client
	server   *Server
	table    *cap.Table
}

func newTestRig(t *testing.T, schemeID cap.SchemeID) *testRig {
	t.Helper()
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
	r := &testRig{net: n, clientFB: attach(), serverFB: attach()}

	src := crypto.NewSeededSource(0x5EED)
	r.server = NewServer(r.serverFB, src)
	scheme, err := cap.NewScheme(schemeID)
	if err != nil {
		t.Fatal(err)
	}
	r.table = cap.NewTable(scheme, r.server.PutPort(), src)
	r.server.ServeTable(r.table, nil, nil)

	res := locate.New(r.clientFB, locate.Config{Timeout: 200 * time.Millisecond, Attempts: 3})
	r.client = NewClient(r.clientFB, res, ClientConfig{Timeout: 500 * time.Millisecond, Retries: 2, Source: src})
	return r
}

func (r *testRig) start(t *testing.T) {
	t.Helper()
	if err := r.server.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.server.Close() })
}

func TestTransEcho(t *testing.T) {
	ctx := context.Background()
	r := newTestRig(t, cap.SchemeOneWay)
	r.start(t)
	rep, err := r.client.Trans(ctx, r.server.PutPort(), Request{Op: OpEcho, Data: []byte("ping")})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Status != StatusOK || string(rep.Data) != "ping" {
		t.Fatalf("reply %+v", rep)
	}
}

func TestTransUnknownOp(t *testing.T) {
	ctx := context.Background()
	r := newTestRig(t, cap.SchemeOneWay)
	r.start(t)
	rep, err := r.client.Trans(ctx, r.server.PutPort(), Request{Op: 0x1234})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Status != StatusNoSuchOp {
		t.Fatalf("status %v", rep.Status)
	}
}

func TestCallConvertsStatus(t *testing.T) {
	ctx := context.Background()
	r := newTestRig(t, cap.SchemeOneWay)
	r.start(t)
	_, err := r.client.Call(ctx, cap.Capability{Server: r.server.PutPort()}, 0x1234, nil)
	if !IsStatus(err, StatusNoSuchOp) {
		t.Fatalf("err = %v", err)
	}
}

func TestEndToEndCapabilityLifecycle(t *testing.T) {
	ctx := context.Background()
	// Create (server-side), validate, restrict, revoke over the wire.
	for _, id := range cap.AllSchemeIDs() {
		t.Run(id.String(), func(t *testing.T) {
			r := newTestRig(t, id)
			r.start(t)

			owner, err := r.table.Create()
			if err != nil {
				t.Fatal(err)
			}
			rights, err := r.client.Validate(ctx, owner)
			if err != nil {
				t.Fatal(err)
			}
			if rights != cap.AllRights {
				t.Fatalf("owner rights %v", rights)
			}

			if id != cap.SchemeCompare {
				weak, err := r.client.Restrict(ctx, owner, cap.RightRead)
				if err != nil {
					t.Fatal(err)
				}
				wr, err := r.client.Validate(ctx, weak)
				if err != nil {
					t.Fatal(err)
				}
				if wr != cap.RightRead {
					t.Fatalf("restricted rights %v", wr)
				}
				fresh, err := r.client.Revoke(ctx, owner)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := r.client.Validate(ctx, weak); !IsStatus(err, StatusBadCapability) {
					t.Fatalf("revoked cap still validates: %v", err)
				}
				if _, err := r.client.Validate(ctx, fresh); err != nil {
					t.Fatalf("fresh cap: %v", err)
				}
			}
		})
	}
}

func TestForgedCapabilityRejectedOverWire(t *testing.T) {
	ctx := context.Background()
	r := newTestRig(t, cap.SchemeOneWay)
	r.start(t)
	owner, err := r.table.Create()
	if err != nil {
		t.Fatal(err)
	}
	forged := owner
	forged.Check ^= 0x1
	if _, err := r.client.Validate(ctx, forged); !IsStatus(err, StatusBadCapability) {
		t.Fatalf("forged capability: %v", err)
	}
}

func TestTransTimeoutWhenServerDown(t *testing.T) {
	ctx := context.Background()
	r := newTestRig(t, cap.SchemeOneWay)
	r.start(t)
	// Resolve once so the port is cached, then kill the server.
	if _, err := r.client.Trans(ctx, r.server.PutPort(), Request{Op: OpEcho}); err != nil {
		t.Fatal(err)
	}
	r.server.Close()
	_, err := r.client.Trans(ctx, r.server.PutPort(), Request{Op: OpEcho})
	if err == nil {
		t.Fatal("transaction to dead server succeeded")
	}
}

func TestServerRestartFoundByRetry(t *testing.T) {
	ctx := context.Background()
	// A restarted server (same get-port, different machine) is found
	// again because timeout invalidates the locate cache.
	r := newTestRig(t, cap.SchemeOneWay)
	r.start(t)
	g := r.server.GetPort()
	if _, err := r.client.Trans(ctx, r.server.PutPort(), Request{Op: OpEcho}); err != nil {
		t.Fatal(err)
	}
	r.server.Close()

	nic, err := r.net.Attach()
	if err != nil {
		t.Fatal(err)
	}
	fb2 := fbox.New(nic, nil)
	t.Cleanup(func() { fb2.Close() })
	s2 := NewServerWithConfig(fb2, ServerConfig{Port: g})
	s2.Handle(OpEcho, func(_ context.Context, _ Meta, req Request) Reply { return OkReply(req.Data) })
	if err := s2.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s2.Close() })

	rep, err := r.client.Trans(ctx, s2.PutPort(), Request{Op: OpEcho, Data: []byte("again")})
	if err != nil {
		t.Fatal(err)
	}
	if string(rep.Data) != "again" {
		t.Fatalf("reply %+v", rep)
	}
}

func TestConcurrentTransactions(t *testing.T) {
	ctx := context.Background()
	r := newTestRig(t, cap.SchemeOneWay)
	r.start(t)
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rep, err := r.client.Trans(ctx, r.server.PutPort(), Request{Op: OpEcho, Data: []byte{byte(i)}})
			if err != nil {
				errs <- err
				return
			}
			if len(rep.Data) != 1 || rep.Data[0] != byte(i) {
				errs <- errors.New("reply cross-wired between transactions")
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestSignedTransaction(t *testing.T) {
	r := newTestRig(t, cap.SchemeOneWay)
	signer := fbox.NewSigner(crypto.NewSeededSource(77), nil)
	sigSeen := make(chan cap.Port, 1)
	r.server.Handle(0x42, func(_ context.Context, md Meta, _ Request) Reply {
		select {
		case sigSeen <- md.Sig:
		default:
		}
		return OkReply(nil)
	})
	r.start(t)
	if _, err := r.client.Trans(context.Background(), r.server.PutPort(), Request{Op: 0x42}, WithSigner(signer)); err != nil {
		t.Fatal(err)
	}
	got := <-sigSeen
	if got != signer.Public() {
		t.Fatalf("server saw signature %v, want published %v", got, signer.Public())
	}
}

// countingF is a crypto.OneWay that counts its invocations.
type countingF struct {
	crypto.OneWay
	n atomic.Int64
}

func (c *countingF) F(x uint64) uint64 {
	c.n.Add(1)
	return c.OneWay.F(x)
}

// TestOneFPerTransaction pins the client F-box's work at the paper's:
// one F for the transaction's reply port (computed when the GET is
// posted and reused for the request header), one more only when the
// request is signed.
func TestOneFPerTransaction(t *testing.T) {
	ctx := context.Background()
	n := amnet.NewSimNet(amnet.SimConfig{})
	t.Cleanup(func() { n.Close() })
	f := &countingF{OneWay: crypto.SHA48{Tag: 1}}
	attach := func(f crypto.OneWay) *fbox.FBox {
		nic, err := n.Attach()
		if err != nil {
			t.Fatal(err)
		}
		fb := fbox.New(nic, f)
		t.Cleanup(func() { fb.Close() })
		return fb
	}
	clientFB, serverFB := attach(f), attach(nil)
	srv := NewServer(serverFB, crypto.NewSeededSource(1))
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	client := NewClient(clientFB, locate.New(clientFB, locate.Config{}), ClientConfig{Source: crypto.NewSeededSource(2)})
	signer := fbox.NewSigner(crypto.NewSeededSource(3), nil)

	trans := func(opts ...CallOption) int64 {
		t.Helper()
		before := f.n.Load()
		if _, err := client.Trans(ctx, srv.PutPort(), Request{Op: OpEcho}, opts...); err != nil {
			t.Fatal(err)
		}
		return f.n.Load() - before
	}
	trans() // the first transaction also locates the server
	if got := trans(); got != 1 {
		t.Errorf("unsigned attempt applied F %d times, want 1", got)
	}
	if got := trans(WithSigner(signer)); got != 2 {
		t.Errorf("signed attempt applied F %d times, want 2", got)
	}
}

func TestHandlerPanicsOnDuplicates(t *testing.T) {
	r := newTestRig(t, cap.SchemeOneWay)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Handle did not panic")
		}
	}()
	r.server.Handle(OpEcho, func(context.Context, Meta, Request) Reply { return Reply{} })
}

func TestServerDoubleStart(t *testing.T) {
	r := newTestRig(t, cap.SchemeOneWay)
	r.start(t)
	if err := r.server.Start(); err == nil {
		t.Fatal("second Start succeeded")
	}
}

func TestServerCloseIdempotent(t *testing.T) {
	r := newTestRig(t, cap.SchemeOneWay)
	r.start(t)
	if err := r.server.Close(); err != nil {
		t.Fatal(err)
	}
	if err := r.server.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestMalformedRequestGetsBadRequest(t *testing.T) {
	ctx := context.Background()
	// Drive the F-box directly with a garbage payload; the server must
	// answer StatusBadRequest rather than dropping or crashing.
	r := newTestRig(t, cap.SchemeOneWay)
	r.start(t)
	g := cap.Port(crypto.Rand48(crypto.NewSeededSource(9)))
	l, err := r.clientFB.Get(g, false)
	if err != nil {
		t.Fatal(err)
	}
	res := locate.New(r.clientFB, locate.Config{Timeout: 200 * time.Millisecond})
	machine, err := res.Lookup(ctx, r.server.PutPort())
	if err != nil {
		t.Fatal(err)
	}
	err = r.clientFB.Put(machine, fbox.Message{
		Dest:    r.server.PutPort(),
		Reply:   g,
		Payload: []byte("not an rpc"),
	})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-l.Recv():
		rep, err := DecodeReply(m.Payload)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Status != StatusBadRequest {
			t.Fatalf("status %v", rep.Status)
		}
	case <-time.After(time.Second):
		t.Fatal("no reply to malformed request")
	}
}

func TestClientConfigDefaults(t *testing.T) {
	cfg := ClientConfig{}.withDefaults()
	if cfg.Timeout <= 0 || cfg.Retries == 0 || cfg.Source == nil {
		t.Fatalf("defaults not applied: %+v", cfg)
	}
	noRetry := ClientConfig{Retries: -1}.withDefaults()
	if noRetry.Retries != 0 {
		t.Fatalf("Retries=-1 should mean zero retries, got %d", noRetry.Retries)
	}
}
