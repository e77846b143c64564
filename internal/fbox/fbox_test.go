package fbox

import (
	"errors"
	"sync"
	"testing"
	"time"

	"amoeba/internal/amnet"
	"amoeba/internal/crypto"
)

// rig is a three-machine network: client, server, intruder.
type rig struct {
	net      *amnet.SimNet
	client   *FBox
	server   *FBox
	intruder *FBox
	src      *crypto.SeededSource
}

func newRig(t *testing.T) *rig {
	t.Helper()
	n := amnet.NewSimNet(amnet.SimConfig{})
	t.Cleanup(func() { n.Close() })
	attach := func() *FBox {
		nic, err := n.Attach()
		if err != nil {
			t.Fatal(err)
		}
		fb := New(nic, nil)
		t.Cleanup(func() { fb.Close() })
		return fb
	}
	return &rig{
		net:      n,
		client:   attach(),
		server:   attach(),
		intruder: attach(),
		src:      crypto.NewSeededSource(0xF0CC5),
	}
}

func (r *rig) port() Port { return Port(crypto.Rand48(r.src)) }

func recvMsg(t *testing.T, l *Listener, d time.Duration) Received {
	t.Helper()
	select {
	case m, ok := <-l.Recv():
		if !ok {
			t.Fatal("listener closed")
		}
		return m
	case <-time.After(d):
		t.Fatal("timed out waiting for message")
	}
	return Received{}
}

func TestGetPutDelivers(t *testing.T) {
	r := newRig(t)
	g := r.port()
	l, err := r.server.Get(g, true)
	if err != nil {
		t.Fatal(err)
	}
	p := r.server.F(g)
	if err := r.client.Put(r.server.Machine(), Message{Dest: p, Payload: []byte("req")}); err != nil {
		t.Fatal(err)
	}
	m := recvMsg(t, l, time.Second)
	if string(m.Payload) != "req" || m.From != r.client.Machine() {
		t.Fatalf("received %+v", m)
	}
}

func TestFig1IntruderCannotListenOnPutPort(t *testing.T) {
	// The heart of Fig. 1: the intruder knows the public put-port P and
	// does GET(P); his F-box listens on F(P) ≠ P, so he receives
	// nothing addressed to P.
	r := newRig(t)
	g := r.port()
	p := r.server.F(g)

	// Server listens legitimately; intruder "listens" with GET(P).
	srvL, err := r.server.Get(g, true)
	if err != nil {
		t.Fatal(err)
	}
	intL, err := r.intruder.Get(p, true)
	if err != nil {
		t.Fatal(err)
	}

	// Client broadcasts at the frame level so the intruder's machine
	// physically receives the bits (worst case for the defender).
	msg := Message{Dest: p, Payload: []byte("for the server")}
	if err := r.client.Put(amnet.BroadcastID, msg); err != nil {
		t.Fatal(err)
	}

	recvMsg(t, srvL, time.Second) // server gets it
	select {
	case m := <-intL.Recv():
		t.Fatalf("intruder's GET(P) received a message: %+v", m)
	case <-time.After(30 * time.Millisecond):
	}
}

func TestFig1IntruderCannotImpersonateServer(t *testing.T) {
	// Client sends to the true put-port. Intruder cannot have a GET
	// matching it without knowing G.
	r := newRig(t)
	g := r.port()
	p := r.server.F(g)

	// Intruder tries every port he has seen: P and F(P).
	for _, guess := range []Port{p, r.intruder.F(p)} {
		if _, err := r.intruder.Get(guess, true); err != nil {
			t.Fatal(err)
		}
	}
	srvL, err := r.server.Get(g, true)
	if err != nil {
		t.Fatal(err)
	}
	// Direct the message at the intruder's machine on purpose: even
	// physically receiving the frame must not let him read it as a
	// message for P, because his F-box has no GET on P.
	if err := r.client.Put(r.intruder.Machine(), Message{Dest: p, Payload: []byte("x")}); err != nil {
		t.Fatal(err)
	}
	// Note the message also does NOT reach the server (wrong machine);
	// the point is only that the intruder's listeners stay silent on P.
	time.Sleep(30 * time.Millisecond)
	select {
	case m := <-srvL.Recv():
		t.Fatalf("server unexpectedly received: %+v", m)
	default:
	}
}

func TestReplyPortTransformedInTransit(t *testing.T) {
	// The client's secret reply get-port G' must never appear on the
	// wire; the server sees P' = F(G') and can reply to it.
	r := newRig(t)
	g := r.port()
	srvL, err := r.server.Get(g, true)
	if err != nil {
		t.Fatal(err)
	}
	gPrime := r.port()
	repL, err := r.client.Get(gPrime, false)
	if err != nil {
		t.Fatal(err)
	}

	tap, err := r.net.Tap()
	if err != nil {
		t.Fatal(err)
	}

	p := r.server.F(g)
	if err := r.client.Put(r.server.Machine(), Message{Dest: p, Reply: gPrime, Payload: []byte("req")}); err != nil {
		t.Fatal(err)
	}
	m := recvMsg(t, srvL, time.Second)
	wantReply := r.client.F(gPrime)
	if m.Reply != wantReply {
		t.Fatalf("server saw reply port %v, want F(G') = %v", m.Reply, wantReply)
	}

	// The wire never carried G'.
	select {
	case f := <-tap.Recv():
		_, wire, err := decodeFrame(f.Payload)
		if err != nil {
			t.Fatal(err)
		}
		if wire.Reply == gPrime {
			t.Fatal("secret reply get-port appeared on the wire")
		}
	case <-time.After(time.Second):
		t.Fatal("tap captured nothing")
	}

	// Server replies to the received (already transformed) reply port.
	if err := r.server.Put(m.From, Message{Dest: m.Reply, Payload: []byte("resp")}); err != nil {
		t.Fatal(err)
	}
	resp := recvMsg(t, repL, time.Second)
	if string(resp.Payload) != "resp" {
		t.Fatalf("reply payload %q", resp.Payload)
	}
}

func TestSignatureAuthenticatesSender(t *testing.T) {
	// E7: the F-box signature scheme. The owner of S signs; the F-box
	// transmits F(S); the receiver compares with the published value.
	r := newRig(t)
	signer := NewSigner(r.src, nil)

	g := r.port()
	srvL, err := r.server.Get(g, true)
	if err != nil {
		t.Fatal(err)
	}
	p := r.server.F(g)

	if err := r.client.Put(r.server.Machine(), Message{Dest: p, Sig: signer.Secret(), Payload: []byte("signed")}); err != nil {
		t.Fatal(err)
	}
	m := recvMsg(t, srvL, time.Second)
	if !signer.Verifies(m) {
		t.Fatal("genuine signature did not verify")
	}
	if !VerifySignature(m, signer.Public()) {
		t.Fatal("VerifySignature rejected genuine signature")
	}

	// The intruder knows only F(S) (public). Signing with it yields
	// F(F(S)) on the wire, which does not verify.
	if err := r.intruder.Put(r.server.Machine(), Message{Dest: p, Sig: signer.Public(), Payload: []byte("forged")}); err != nil {
		t.Fatal(err)
	}
	forged := recvMsg(t, srvL, time.Second)
	if signer.Verifies(forged) {
		t.Fatal("forged signature verified")
	}
}

func TestUnsignedMessageDoesNotVerify(t *testing.T) {
	r := newRig(t)
	signer := NewSigner(r.src, nil)
	if signer.Verifies(Received{}) {
		t.Fatal("zero signature verified")
	}
	if VerifySignature(Received{}, signer.Public()) {
		t.Fatal("VerifySignature accepted zero signature")
	}
}

func TestGetPortNeverOnWire(t *testing.T) {
	// Sweep all traffic while a server does GET(G) and serves a
	// request; the 48-bit G must never appear in any frame.
	r := newRig(t)
	tap, err := r.net.Tap()
	if err != nil {
		t.Fatal(err)
	}
	g := r.port()
	srvL, err := r.server.Get(g, true)
	if err != nil {
		t.Fatal(err)
	}
	p := r.server.F(g)
	if err := r.client.Put(r.server.Machine(), Message{Dest: p, Payload: []byte("x")}); err != nil {
		t.Fatal(err)
	}
	recvMsg(t, srvL, time.Second)

	deadline := time.After(100 * time.Millisecond)
	for {
		select {
		case f := <-tap.Recv():
			_, wire, err := decodeFrame(f.Payload)
			if err != nil {
				continue
			}
			for _, onWire := range []Port{wire.Dest, wire.Reply, wire.Sig} {
				if onWire == g {
					t.Fatal("get-port observed on the wire")
				}
			}
		case <-deadline:
			return
		}
	}
}

func TestPortBusy(t *testing.T) {
	r := newRig(t)
	g := r.port()
	if _, err := r.server.Get(g, true); err != nil {
		t.Fatal(err)
	}
	if _, err := r.server.Get(g, true); !errors.Is(err, ErrPortBusy) {
		t.Fatalf("second GET: %v", err)
	}
}

func TestListenerCloseFreesPort(t *testing.T) {
	r := newRig(t)
	g := r.port()
	l, err := r.server.Get(g, true)
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	l.Close() // idempotent
	if _, err := r.server.Get(g, true); err != nil {
		t.Fatalf("GET after close: %v", err)
	}
}

func TestLocateFindsAdvertisedPort(t *testing.T) {
	r := newRig(t)
	g := r.port()
	if _, err := r.server.Get(g, true); err != nil {
		t.Fatal(err)
	}
	p := r.server.F(g)
	replies, cancel, err := r.client.Locate(p)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	select {
	case at := <-replies:
		if at != r.server.Machine() {
			t.Fatalf("located at %v, want %v", at, r.server.Machine())
		}
	case <-time.After(time.Second):
		t.Fatal("LOCATE got no reply")
	}
}

func TestLocateIgnoresUnadvertisedPort(t *testing.T) {
	r := newRig(t)
	g := r.port()
	if _, err := r.client.Get(g, false); err != nil { // reply port: not advertised
		t.Fatal(err)
	}
	p := r.client.F(g)
	replies, cancel, err := r.server.Locate(p)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	select {
	case at := <-replies:
		t.Fatalf("unadvertised port located at %v", at)
	case <-time.After(50 * time.Millisecond):
	}
}

// TestAnnounceAnswersOpenLocate: an announced port reaches a querier
// whose LOCATE round is open, as the announcer's own answer would.
func TestAnnounceAnswersOpenLocate(t *testing.T) {
	r := newRig(t)
	g := r.port()
	p := r.server.F(g)
	replies, cancel, err := r.client.Locate(p)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	if _, err := r.server.Get(g, true); err != nil {
		t.Fatal(err)
	}
	if err := r.server.Announce(p); err != nil {
		t.Fatal(err)
	}
	select {
	case at := <-replies:
		if at != r.server.Machine() {
			t.Fatalf("announced from %v, want %v", at, r.server.Machine())
		}
	case <-time.After(time.Second):
		t.Fatal("the announcement never reached the open round")
	}
}

// TestAnnounceOnlyAdvertisedPorts: a reply port, a port with no GET and
// a port whose GET was cancelled are refused, and nothing is sent.
func TestAnnounceOnlyAdvertisedPorts(t *testing.T) {
	r := newRig(t)
	reply, gone := r.port(), r.port()
	if _, err := r.server.Get(reply, false); err != nil {
		t.Fatal(err)
	}
	l, err := r.server.Get(gone, true)
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	sent := r.net.Stats().Sent
	for _, p := range []Port{r.server.F(reply), r.server.F(r.port()), r.server.F(gone), reply} {
		if err := r.server.Announce(p); !errors.Is(err, ErrNotAdvertised) {
			t.Fatalf("Announce(%v): %v, want ErrNotAdvertised", p, err)
		}
	}
	if n := r.net.Stats().Sent - sent; n != 0 {
		t.Fatalf("refused announcements sent %d frames", n)
	}
}

func TestFBoxClose(t *testing.T) {
	n := amnet.NewSimNet(amnet.SimConfig{})
	defer n.Close()
	nic, err := n.Attach()
	if err != nil {
		t.Fatal(err)
	}
	fb := New(nic, nil)
	l, err := fb.Get(42, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := fb.Close(); err != nil {
		t.Fatal(err)
	}
	if err := fb.Close(); err != nil {
		t.Fatal(err) // idempotent
	}
	if _, ok := <-l.Recv(); ok {
		t.Fatal("listener channel open after F-box close")
	}
	if err := fb.Put(1, Message{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Put after close: %v", err)
	}
	if _, err := fb.Get(7, true); !errors.Is(err, ErrClosed) {
		t.Fatalf("Get after close: %v", err)
	}
	if _, _, err := fb.Locate(7); !errors.Is(err, ErrClosed) {
		t.Fatalf("Locate after close: %v", err)
	}
}

func TestFTransformIs48Bits(t *testing.T) {
	r := newRig(t)
	for i := 0; i < 100; i++ {
		p := r.client.F(r.port())
		if !p.Valid() {
			t.Fatalf("F produced out-of-range port %v", p)
		}
	}
}

func TestFrameCodecRoundTrip(t *testing.T) {
	msg := Message{Dest: 1, Reply: 2, Sig: 3, Payload: []byte("body")}
	kind, dec, err := decodeFrame(encodeFrame(kindMessage, msg))
	if err != nil {
		t.Fatal(err)
	}
	if kind != kindMessage || dec.Dest != 1 || dec.Reply != 2 || dec.Sig != 3 || string(dec.Payload) != "body" {
		t.Fatalf("decoded %+v kind %d", dec, kind)
	}
	if _, _, err := decodeFrame([]byte{1, 2}); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("short frame: %v", err)
	}
}

func TestMalformedFramesDropped(t *testing.T) {
	// Garbage on the wire must not disturb a working listener.
	r := newRig(t)
	g := r.port()
	l, err := r.server.Get(g, true)
	if err != nil {
		t.Fatal(err)
	}
	nic, err := r.net.Attach()
	if err != nil {
		t.Fatal(err)
	}
	defer nic.Close()
	if err := nic.Send(r.server.Machine(), []byte{0xff}); err != nil {
		t.Fatal(err)
	}
	if err := nic.Send(r.server.Machine(), []byte{}); err != nil {
		t.Fatal(err)
	}
	p := r.server.F(g)
	if err := r.client.Put(r.server.Machine(), Message{Dest: p, Payload: []byte("ok")}); err != nil {
		t.Fatal(err)
	}
	m := recvMsg(t, l, time.Second)
	if string(m.Payload) != "ok" {
		t.Fatalf("payload %q", m.Payload)
	}
}

func TestManyListenersStress(t *testing.T) {
	// 50 ports on one F-box, interleaved traffic: every message reaches
	// exactly the right listener.
	r := newRig(t)
	const ports = 50
	listeners := make([]*Listener, ports)
	puts := make([]Port, ports)
	for i := 0; i < ports; i++ {
		g := r.port()
		l, err := r.server.Get(g, false)
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = l
		puts[i] = r.server.F(g)
	}
	for i := 0; i < ports; i++ {
		if err := r.client.Put(r.server.Machine(), Message{Dest: puts[i], Payload: []byte{byte(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < ports; i++ {
		m := recvMsg(t, listeners[i], time.Second)
		if len(m.Payload) != 1 || m.Payload[0] != byte(i) {
			t.Fatalf("listener %d received %v", i, m.Payload)
		}
	}
}

func TestConcurrentPuts(t *testing.T) {
	r := newRig(t)
	g := r.port()
	l, err := r.server.Get(g, false)
	if err != nil {
		t.Fatal(err)
	}
	p := r.server.F(g)
	const senders, per = 8, 25
	// Drain concurrently: the listener queue is finite (256), so a
	// consumer must keep pace with the senders.
	type result struct {
		key [2]byte
	}
	results := make(chan result, senders*per)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < senders*per; i++ {
			select {
			case m, ok := <-l.Recv():
				if !ok {
					return
				}
				results <- result{key: [2]byte{m.Payload[0], m.Payload[1]}}
			case <-time.After(2 * time.Second):
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := r.client.Put(r.server.Machine(), Message{Dest: p, Payload: []byte{byte(s), byte(i)}}); err != nil {
					t.Errorf("put: %v", err)
					return
				}
			}
		}(s)
	}
	wg.Wait()
	<-done
	close(results)
	seen := make(map[[2]byte]bool, senders*per)
	for r := range results {
		if seen[r.key] {
			t.Fatalf("duplicate delivery %v", r.key)
		}
		seen[r.key] = true
	}
	if len(seen) != senders*per {
		t.Fatalf("received %d distinct messages, want %d", len(seen), senders*per)
	}
}
