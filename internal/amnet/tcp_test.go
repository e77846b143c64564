package amnet

import (
	"errors"
	"testing"
	"time"
)

// newTCPPair builds a two-machine loopback cluster.
func newTCPPair(t *testing.T) (*TCPNet, *TCPNet) {
	t.Helper()
	// Stage 1: machine 1 listens on an ephemeral port.
	reg := map[MachineID]string{1: "127.0.0.1:0", 2: "127.0.0.1:0"}
	a, err := NewTCPNet(1, reg)
	if err != nil {
		t.Fatal(err)
	}
	// Stage 2: machine 2's registry knows machine 1's real address.
	reg2 := map[MachineID]string{1: a.Addr(), 2: "127.0.0.1:0"}
	b, err := NewTCPNet(2, reg2)
	if err != nil {
		a.Close()
		t.Fatal(err)
	}
	// Stage 3: teach machine 1 machine 2's real address.
	a.SetPeer(2, b.Addr())
	t.Cleanup(func() { a.Close(); b.Close() })
	return a, b
}

func TestTCPNetSendRecv(t *testing.T) {
	a, b := newTCPPair(t)
	if err := a.Send(b.ID(), []byte("over tcp")); err != nil {
		t.Fatal(err)
	}
	f := recvWithin(t, b.Recv(), 2*time.Second)
	if f.Src != a.ID() || string(f.Payload) != "over tcp" {
		t.Fatalf("frame %+v", f)
	}
}

func TestTCPNetBothDirections(t *testing.T) {
	a, b := newTCPPair(t)
	if err := a.Send(2, []byte("ping")); err != nil {
		t.Fatal(err)
	}
	recvWithin(t, b.Recv(), 2*time.Second)
	if err := b.Send(1, []byte("pong")); err != nil {
		t.Fatal(err)
	}
	f := recvWithin(t, a.Recv(), 2*time.Second)
	if string(f.Payload) != "pong" {
		t.Fatalf("frame %+v", f)
	}
}

func TestTCPNetLoopback(t *testing.T) {
	a, _ := newTCPPair(t)
	if err := a.Send(a.ID(), []byte("self")); err != nil {
		t.Fatal(err)
	}
	f := recvWithin(t, a.Recv(), 2*time.Second)
	if f.Src != a.ID() || string(f.Payload) != "self" {
		t.Fatalf("frame %+v", f)
	}
}

func TestTCPNetBroadcast(t *testing.T) {
	a, b := newTCPPair(t)
	if err := a.Broadcast([]byte("hear ye")); err != nil {
		t.Fatal(err)
	}
	f := recvWithin(t, b.Recv(), 2*time.Second)
	if string(f.Payload) != "hear ye" {
		t.Fatalf("frame %+v", f)
	}
}

func TestTCPNetNoRoute(t *testing.T) {
	a, _ := newTCPPair(t)
	if err := a.Send(77, []byte("x")); !errors.Is(err, ErrNoRoute) {
		t.Fatalf("err = %v, want ErrNoRoute", err)
	}
}

func TestTCPNetUnknownMachine(t *testing.T) {
	if _, err := NewTCPNet(9, map[MachineID]string{1: "127.0.0.1:0"}); err == nil {
		t.Fatal("NewTCPNet accepted a machine not in the registry")
	}
}

func TestTCPNetMTU(t *testing.T) {
	a, b := newTCPPair(t)
	if err := a.Send(b.ID(), make([]byte, MTU+1)); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("err = %v, want ErrTooLarge", err)
	}
}

func TestTCPNetCloseStopsRecv(t *testing.T) {
	a, b := newTCPPair(t)
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if _, ok := <-b.Recv(); ok {
		t.Fatal("Recv channel open after Close")
	}
	if err := b.Send(a.ID(), []byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("send after close: %v", err)
	}
}

func TestTCPNetRegistrySnapshot(t *testing.T) {
	a, _ := newTCPPair(t)
	reg := a.Registry()
	if reg[1] != a.Addr() {
		t.Fatalf("registry[1] = %s, want %s", reg[1], a.Addr())
	}
	reg[1] = "tampered"
	if a.Registry()[1] == "tampered" {
		t.Fatal("Registry returned aliased map")
	}
}

func TestTCPNetManyFrames(t *testing.T) {
	a, b := newTCPPair(t)
	const count = 100
	for i := 0; i < count; i++ {
		if err := a.Send(b.ID(), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	got := make(map[byte]bool, count)
	deadline := time.After(5 * time.Second)
	for len(got) < count {
		select {
		case f := <-b.Recv():
			got[f.Payload[0]] = true
		case <-deadline:
			t.Fatalf("received %d/%d frames", len(got), count)
		}
	}
}

func TestHostsEqual(t *testing.T) {
	tests := []struct {
		a, b string
		want bool
	}{
		{"127.0.0.1", "127.0.0.1", true},
		{"127.0.0.1", "::1", true}, // both loopback
		{"127.0.0.1", "10.0.0.1", false},
		{"example.com", "example.com", true},
		{"example.com", "other.com", false},
	}
	for _, tc := range tests {
		if got := resolveHost(tc.a).equal(resolveHost(tc.b)); got != tc.want {
			t.Errorf("hostsEqual(%q, %q) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestTCPNetSetPeer(t *testing.T) {
	a, b := newTCPPair(t)
	// Repoint machine 2 at a bogus address: sends fail.
	a.SetPeer(2, "127.0.0.1:1")
	if err := a.Send(2, []byte("x")); err == nil {
		t.Fatal("send to bogus peer succeeded")
	}
	// Restore and confirm recovery.
	a.SetPeer(2, b.Addr())
	if err := a.Send(2, []byte("y")); err != nil {
		t.Fatal(err)
	}
	recvWithin(t, b.Recv(), 2*time.Second)
}

// TestTCPNetSetPeerWhileReceiving: the registry is read for every
// inbound frame (the source-plausibility check) while SetPeer rewrites
// it — the table must be safe to swap under traffic, and a swap of an
// unrelated entry must not cost a single frame. Meaningful under -race.
func TestTCPNetSetPeerWhileReceiving(t *testing.T) {
	a, b := newTCPPair(t)
	const count = 200
	sent := make(chan error, 1)
	go func() {
		for i := 0; i < count; i++ {
			if err := a.Send(b.ID(), []byte{byte(i)}); err != nil {
				sent <- err
				return
			}
		}
		sent <- nil
	}()
	got := 0
	deadline := time.After(5 * time.Second)
	for got < count {
		b.SetPeer(3, "127.0.0.1:1") // a peer that never speaks
		select {
		case <-b.Recv():
			got++
		case <-deadline:
			t.Fatalf("received %d/%d frames", got, count)
		}
	}
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
}
