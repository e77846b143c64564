package svc

import (
	"context"
	"encoding/binary"
	"sync"
	"testing"

	"amoeba/internal/amnet"
	"amoeba/internal/cap"
	"amoeba/internal/crypto"
	"amoeba/internal/fbox"
	"amoeba/internal/locate"
	"amoeba/internal/rpc"
	"amoeba/internal/vdisk"
	"amoeba/internal/wal"
)

// counter is a minimal durable service over the kernel: one op that
// increments a named counter, logged as tag 0x01 ∥ nameLen-free name.
type counter struct {
	*Kernel
	mu sync.Mutex
	n  map[string]uint64
}

const opInc uint16 = 0x0900

func newCounter(t *testing.T, fb *fbox.FBox, log *wal.Log, g cap.Port) *counter {
	t.Helper()
	scheme, err := cap.NewScheme(cap.SchemeOneWay)
	if err != nil {
		t.Fatal(err)
	}
	c := &counter{n: make(map[string]uint64)}
	c.Kernel = NewWithConfig(fb, scheme, Config{
		Source: crypto.NewSeededSource(7),
		Port:   g,
		Log:    log,
		Snapshot: func() []byte {
			out := make([]byte, 4)
			binary.BigEndian.PutUint32(out, uint32(len(c.n)))
			for name, v := range c.n {
				out = append(out, byte(len(name)))
				out = append(out, name...)
				var b [8]byte
				binary.BigEndian.PutUint64(b[:], v)
				out = append(out, b[:]...)
			}
			return out
		},
		Restore: func(snap []byte) error {
			m := make(map[string]uint64)
			cnt := binary.BigEndian.Uint32(snap)
			at := 4
			for i := uint32(0); i < cnt; i++ {
				nl := int(snap[at])
				name := string(snap[at+1 : at+1+nl])
				m[name] = binary.BigEndian.Uint64(snap[at+1+nl:])
				at += 9 + nl
			}
			c.n = m
			return nil
		},
	})
	c.Handle(opInc, func(ctx context.Context, _ rpc.Meta, req rpc.Request) rpc.Reply {
		rec := append([]byte{0x01}, req.Data...)
		c.mu.Lock()
		tk, err := c.Append(ctx, rec)
		if err != nil {
			c.mu.Unlock()
			return rpc.ErrReplyFromErr(err)
		}
		c.n[string(req.Data)]++
		v := c.n[string(req.Data)]
		c.mu.Unlock()
		if err := tk.Wait(); err != nil {
			return rpc.ErrReplyFromErr(err)
		}
		var out [8]byte
		binary.BigEndian.PutUint64(out[:], v)
		return rpc.OkReply(out[:])
	})
	if err := c.Recover(func(rec []byte) error {
		c.n[string(rec[1:])]++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return c
}

type rig struct {
	net    *amnet.SimNet
	client *rpc.Client
}

func newRig(t testing.TB) (*rig, *fbox.FBox) {
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
	cfb := attach()
	res := locate.New(cfb, locate.Config{})
	return &rig{
		net:    n,
		client: rpc.NewClient(cfb, res, rpc.ClientConfig{Source: crypto.NewSeededSource(9)}),
	}, attach()
}

func TestKernelDurableRoundTrip(t *testing.T) {
	ctx := context.Background()
	r, serverFB := newRig(t)
	disk, err := vdisk.New(128, 256)
	if err != nil {
		t.Fatal(err)
	}
	log, err := wal.Open(disk, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	c := newCounter(t, serverFB, log, 0)
	if !c.Durable() {
		t.Fatal("kernel with a log reports volatile")
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		rep, err := r.client.Trans(ctx, c.PutPort(), rpc.Request{Op: opInc, Data: []byte("x")})
		if err != nil || rep.Status != rpc.StatusOK {
			t.Fatalf("inc %d: %v %+v", i, err, rep)
		}
	}
	// Echo rides the kernel's standard table wiring.
	rep, err := r.client.Trans(ctx, c.PutPort(), rpc.Request{Op: rpc.OpEcho, Data: []byte("ping")})
	if err != nil || string(rep.Data) != "ping" {
		t.Fatalf("echo: %v %+v", err, rep)
	}
	g := c.GetPort()
	if err := c.Crash(); err != nil {
		t.Fatal(err)
	}
	// Close after Crash is a no-op, not a second teardown.
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	// Reincarnate from the log on a fresh machine, same get-port.
	_, fb2 := newRig(t)
	log2, err := wal.Open(disk, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	c2 := newCounter(t, fb2, log2, g)
	defer c2.Close()
	if c2.n["x"] != 5 {
		t.Fatalf("replayed counter %d, want 5", c2.n["x"])
	}
	if c2.PutPort() != c.PutPort() {
		t.Fatal("reincarnation changed put-port despite pinned get-port")
	}
}

func TestKernelCheckpointCompacts(t *testing.T) {
	ctx := context.Background()
	r, serverFB := newRig(t)
	disk, err := vdisk.New(128, 256)
	if err != nil {
		t.Fatal(err)
	}
	log, err := wal.Open(disk, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	c := newCounter(t, serverFB, log, 0)
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 10; i++ {
		if _, err := r.client.Trans(ctx, c.PutPort(), rpc.Request{Op: opInc, Data: []byte("y")}); err != nil {
			t.Fatal(err)
		}
	}
	used := log.Stats().Used
	if err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got := log.Stats().Used; got >= used {
		t.Fatalf("checkpoint did not truncate: used %d -> %d", used, got)
	}

	// Recovery now restores the snapshot (no records to replay).
	log2, err := wal.Open(disk.Clone(), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer log2.Close()
	_, fb2 := newRig(t)
	c2 := newCounter(t, fb2, log2, c.GetPort())
	defer c2.Close()
	if c2.n["y"] != 10 {
		t.Fatalf("post-checkpoint replay counter %d, want 10", c2.n["y"])
	}
}

func TestKernelVolatileAppendIsFree(t *testing.T) {
	_, fb := newRig(t)
	c := newCounter(t, fb, nil, 0)
	defer c.Close()
	if c.Durable() {
		t.Fatal("kernel without a log reports durable")
	}
	tk, err := c.Append(context.Background(), []byte{0x01, 'z'})
	if err != nil || tk != nil {
		t.Fatalf("volatile Append = (%v, %v), want (nil, nil)", tk, err)
	}
	if err := tk.Wait(); err != nil {
		t.Fatalf("nil ticket Wait: %v", err)
	}
	if err := c.Checkpoint(); err != nil {
		t.Fatalf("volatile Checkpoint: %v", err)
	}
}
