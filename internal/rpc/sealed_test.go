package rpc

import (
	"context"
	"testing"
	"time"

	"amoeba/internal/amnet"
	"amoeba/internal/cap"
	"amoeba/internal/crypto"
	"amoeba/internal/fbox"
	"amoeba/internal/keymatrix"
	"amoeba/internal/locate"
)

// sealedRig wires a client and server sharing a key matrix, plus an
// intruder machine with its own guard (he is *in* the matrix — the
// danger is replay, not missing keys).
type sealedRig struct {
	net      *amnet.SimNet
	client   *Client
	server   *Server
	table    *cap.Table
	clientFB *fbox.FBox
	serverFB *fbox.FBox
	cGuard   *keymatrix.Guard
	sGuard   *keymatrix.Guard
}

func newSealedRig(t *testing.T) *sealedRig {
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
	r := &sealedRig{net: n, clientFB: attach(), serverFB: attach()}

	src := crypto.NewSeededSource(0x5EA1)
	matrix := keymatrix.NewMatrix(src)
	peers := []amnet.MachineID{r.clientFB.Machine(), r.serverFB.Machine()}
	r.cGuard = matrix.Guard(r.clientFB.Machine(), peers, nil)
	r.sGuard = matrix.Guard(r.serverFB.Machine(), peers, nil)

	r.server = NewServer(r.serverFB, src)
	scheme, err := cap.NewScheme(cap.SchemeOneWay)
	if err != nil {
		t.Fatal(err)
	}
	r.table = cap.NewTable(scheme, r.server.PutPort(), src)
	r.server.ServeTable(r.table, nil, nil)
	r.server.SetSealer(r.sGuard)

	res := locate.New(r.clientFB, locate.Config{Timeout: 200 * time.Millisecond})
	r.client = NewClient(r.clientFB, res, ClientConfig{
		Timeout: 750 * time.Millisecond,
		Source:  src,
		Sealer:  r.cGuard,
	})
	if err := r.server.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.server.Close() })
	return r
}

func TestSealedTransactionWorks(t *testing.T) {
	ctx := context.Background()
	r := newSealedRig(t)
	owner, err := r.table.Create()
	if err != nil {
		t.Fatal(err)
	}
	rights, err := r.client.Validate(ctx, owner)
	if err != nil {
		t.Fatal(err)
	}
	if rights != cap.AllRights {
		t.Fatalf("rights %v", rights)
	}
	// Reply capabilities (restrict) are sealed server→client and
	// opened transparently.
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
}

func TestSealedCapabilityNeverInClearOnWire(t *testing.T) {
	ctx := context.Background()
	r := newSealedRig(t)
	owner, err := r.table.Create()
	if err != nil {
		t.Fatal(err)
	}
	tap, err := r.net.Tap()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.client.Validate(ctx, owner); err != nil {
		t.Fatal(err)
	}
	wire := owner.Encode()
	deadline := time.After(200 * time.Millisecond)
	frames := 0
	for {
		select {
		case f := <-tap.Recv():
			frames++
			for i := 0; i+cap.Size <= len(f.Payload); i++ {
				if string(f.Payload[i:i+cap.Size]) == string(wire[:]) {
					t.Fatal("plaintext capability observed on the wire")
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

func TestSealedMismatchRejected(t *testing.T) {
	ctx := context.Background()
	// A client without the matrix (no sealer) sends plaintext
	// capabilities; the sealed server decrypts them into garbage and
	// the table rejects them. Two protection layers composing.
	r := newSealedRig(t)
	owner, err := r.table.Create()
	if err != nil {
		t.Fatal(err)
	}
	res := locate.New(r.clientFB, locate.Config{Timeout: 200 * time.Millisecond})
	plainClient := NewClient(r.clientFB, res, ClientConfig{
		Timeout: 750 * time.Millisecond,
		Source:  crypto.NewSeededSource(2),
		// no Sealer
	})
	if _, err := plainClient.Validate(ctx, owner); !IsStatus(err, StatusBadCapability) {
		t.Fatalf("plaintext capability against sealed server: %v", err)
	}
}

func TestSealedNilCapabilityPassesThrough(t *testing.T) {
	ctx := context.Background()
	// Echo carries no capability; sealing must not mangle it.
	r := newSealedRig(t)
	rep, err := r.client.Trans(ctx, r.server.PutPort(), Request{Op: OpEcho, Data: []byte("ping")})
	if err != nil || rep.Status != StatusOK || string(rep.Data) != "ping" {
		t.Fatalf("echo: %v %v %q", err, rep.Status, rep.Data)
	}
}

func TestSealedReplayFromOtherMachineFails(t *testing.T) {
	ctx := context.Background()
	// The full §2.4 replay over a real (simulated) wire: the intruder
	// captures a sealed request frame and re-transmits it verbatim
	// from his own machine. The server decrypts the capability under
	// M[intruder][server] and the object table rejects it.
	r := newSealedRig(t)
	owner, err := r.table.Create()
	if err != nil {
		t.Fatal(err)
	}
	// Intruder taps the wire and has a NIC of his own.
	tap, err := r.net.Tap()
	if err != nil {
		t.Fatal(err)
	}
	intNIC, err := r.net.Attach()
	if err != nil {
		t.Fatal(err)
	}
	defer intNIC.Close()
	// The server must know keys for the intruder machine, else the
	// replay fails for the boring reason "no key". Install some.
	r.sGuard.SetRecvKey(intNIC.ID(), 0xD00D)
	r.sGuard.SetSendKey(intNIC.ID(), 0xD00E)

	if _, err := r.client.Validate(ctx, owner); err != nil {
		t.Fatal(err)
	}
	// Find the captured request frame (client → server).
	var captured amnet.Frame
	deadline := time.After(500 * time.Millisecond)
capture:
	for {
		select {
		case f := <-tap.Recv():
			if f.Src == r.clientFB.Machine() && f.Dst == r.serverFB.Machine() {
				captured = f
				break capture
			}
		case <-deadline:
			t.Fatal("no frame captured")
		}
	}

	// Replay it byte-for-byte from the intruder's machine, with a
	// listener for the reply (the reply port inside the frame is the
	// original client's, so watch the client's machine get the answer
	// — but the answer must be a rejection).
	// Simpler and stronger: replace the reply port with one the
	// intruder owns, keeping the sealed capability bytes intact.
	g := cap.Port(0xD5)
	il := fbox.New(intNIC, nil)
	defer il.Close()
	lst, err := il.Get(g, false)
	if err != nil {
		t.Fatal(err)
	}
	// Reconstruct the frame: kind(1) dest(6) reply(6) sig(6) payload.
	payload := append([]byte(nil), captured.Payload...)
	if len(payload) < 19 {
		t.Fatal("captured frame too short")
	}
	// Overwrite the (transformed) reply port field with F(g) — computed
	// by the intruder's own F-box semantics via Put below. We inject at
	// the NIC level to keep the sealed bytes verbatim, so transform
	// manually using the same public F.
	fp := il.F(g)
	payload[7] = byte(fp >> 40)
	payload[8] = byte(fp >> 32)
	payload[9] = byte(fp >> 24)
	payload[10] = byte(fp >> 16)
	payload[11] = byte(fp >> 8)
	payload[12] = byte(fp)
	if err := intNIC.Send(r.serverFB.Machine(), payload); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-lst.Recv():
		rep, err := DecodeReply(m.Payload)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Status != StatusBadCapability {
			t.Fatalf("replayed request got status %v; the key matrix failed", rep.Status)
		}
	case <-time.After(time.Second):
		t.Fatal("no reply to replay")
	}
}
