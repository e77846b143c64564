package repl

import (
	"context"
	"encoding/binary"
	"errors"
	"sync"
	"testing"
	"time"

	"amoeba/internal/amnet"
	"amoeba/internal/cap"
	"amoeba/internal/crypto"
	"amoeba/internal/fbox"
	"amoeba/internal/locate"
	"amoeba/internal/rpc"
	"amoeba/internal/svc"
	"amoeba/internal/vdisk"
	"amoeba/internal/wal"
)

// counter is a minimal durable service over the kernel (the svc test
// toy): one op increments a named counter, logged as 0x01 ∥ name.
type counter struct {
	*svc.Kernel
	mu sync.Mutex
	n  map[string]uint64
}

const opInc uint16 = 0x0900

func (c *counter) apply(rec []byte) error {
	c.n[string(rec[1:])]++
	return nil
}

func (c *counter) get(name string) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n[name]
}

func newCounter(t *testing.T, fb *fbox.FBox, log *wal.Log, g cap.Port) *counter {
	t.Helper()
	scheme, err := cap.NewScheme(cap.SchemeOneWay)
	if err != nil {
		t.Fatal(err)
	}
	c := &counter{n: make(map[string]uint64)}
	c.Kernel = svc.NewWithConfig(fb, scheme, svc.Config{
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
		c.mu.Unlock()
		if err := tk.Wait(); err != nil {
			return rpc.ErrReplyFromErr(err)
		}
		return rpc.OkReply(nil)
	})
	if err := c.Recover(c.apply); err != nil {
		t.Fatal(err)
	}
	return c
}

// rig is a SimNet with a client machine and an attach helper.
type rig struct {
	net    *amnet.SimNet
	client *rpc.Client
	t      *testing.T
}

func newRig(t *testing.T) *rig {
	t.Helper()
	n := amnet.NewSimNet(amnet.SimConfig{})
	t.Cleanup(func() { n.Close() })
	r := &rig{net: n, t: t}
	cfb := r.attach()
	res := locate.New(cfb, locate.Config{})
	r.client = rpc.NewClient(cfb, res, rpc.ClientConfig{Source: crypto.NewSeededSource(9)})
	return r
}

func (r *rig) attach() *fbox.FBox {
	r.t.Helper()
	nic, err := r.net.Attach()
	if err != nil {
		r.t.Fatal(err)
	}
	fb := fbox.New(nic, nil)
	r.t.Cleanup(func() { fb.Close() })
	return fb
}

func (r *rig) newClientOn(fb *fbox.FBox) *rpc.Client {
	res := locate.New(fb, locate.Config{})
	return rpc.NewClient(fb, res, rpc.ClientConfig{Source: crypto.NewSeededSource(11)})
}

// replicatedCounter stands up primary + standby + receiver + shipper:
// the smallest group, two members.
type replicatedCounter struct {
	primary, backup         *counter
	primaryFB, backupFB     *fbox.FBox
	primaryDisk, backupDisk *vdisk.Disk
	recv                    *Receiver
	ship                    *Shipper
}

func newReplicatedCounter(t *testing.T, r *rig, preOps int) *replicatedCounter {
	return newReplicatedCounterOpts(t, r, preOps, Options{})
}

func newReplicatedCounterOpts(t *testing.T, r *rig, preOps int, o Options) *replicatedCounter {
	t.Helper()
	ctx := context.Background()
	rc := &replicatedCounter{}
	var err error
	if rc.primaryDisk, err = vdisk.New(512, 256); err != nil {
		t.Fatal(err)
	}
	plog, err := wal.Open(rc.primaryDisk, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rc.primaryFB = r.attach()
	rc.primary = newCounter(t, rc.primaryFB, plog, 0)
	if err := rc.primary.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rc.primary.Close() })

	// Mutations BEFORE the backup attaches arrive via the base snapshot.
	for i := 0; i < preOps; i++ {
		if _, err := r.client.Trans(ctx, rc.primary.PutPort(), rpc.Request{Op: opInc, Data: []byte("pre")}); err != nil {
			t.Fatal(err)
		}
	}

	if rc.backupDisk, err = vdisk.New(512, 256); err != nil {
		t.Fatal(err)
	}
	blog, err := wal.Open(rc.backupDisk, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rc.backupFB = r.attach()
	rc.backup = newCounter(t, rc.backupFB, blog, rc.primary.GetPort())
	t.Cleanup(func() { rc.backup.Close() })
	rc.recv = NewReceiver(rc.backupFB, crypto.NewSeededSource(13), rc.backup.Kernel)
	if err := rc.recv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rc.recv.Close() })

	rc.ship, err = AttachGroup(rc.primary.Kernel, r.newClientOn(rc.primaryFB), []cap.Port{rc.recv.Port()}, o)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rc.ship.Stop)
	return rc
}

// TestShipperSealsWhenOnlyPeerLost: a two-member group that loses its
// one standby must not wedge the primary — after the attempt budget
// the peer is declared lost — but it must not acknowledge either: the
// batch missed its majority (1 of 2), so the group seals and the fence
// refuses that operation and every later one. Consistency over
// availability; there is no unreplicated fallback.
func TestShipperSealsWhenOnlyPeerLost(t *testing.T) {
	ctx := context.Background()
	r := newRig(t)
	rc := newReplicatedCounterOpts(t, r, 0, Options{
		Timeout: 20 * time.Millisecond, Attempts: 2, Backoff: time.Millisecond,
	})
	rc.primary.SetReplicaFence(rc.ship.Fence)
	port := rc.primary.PutPort()

	if rep, err := r.client.Trans(ctx, port, rpc.Request{Op: opInc, Data: []byte("ok")}); err != nil || rep.Status != rpc.StatusOK {
		t.Fatalf("healthy two-member group refused an op: %v %+v", err, rep)
	}
	// The standby machine dies silently.
	if err := rc.recv.Close(); err != nil {
		t.Fatal(err)
	}
	// The op during the outage stalls for the attempt budget (which
	// includes the shipper's futile LOCATE re-broadcasts), then the peer
	// is written off and the reply goes out — as a refusal. One client
	// attempt with a generous timeout and the raw status, so the stall
	// isn't mistaken for a lost frame and the refusal isn't chased.
	rep, err := r.client.Trans(ctx, port, rpc.Request{Op: opInc, Data: []byte("during")},
		rpc.WithTimeout(30*time.Second), rpc.WithRetries(0), rpc.WithRawStale())
	if err != nil {
		t.Fatalf("primary wedged behind a dead standby: %v", err)
	}
	if rep.Status != rpc.StatusStale {
		t.Fatalf("op that reached no standby was answered %v, want a stale-authority refusal", rep.Status)
	}
	if !rc.ship.Lost() {
		t.Fatal("shipper never declared the standby lost")
	}
	if err := rc.ship.Fence(); !errors.Is(err, ErrSealed) {
		t.Fatalf("fence after the missed majority: %v, want ErrSealed", err)
	}
	// Sealing is sticky: later ops are refused too.
	rep, err = r.client.Trans(ctx, port, rpc.Request{Op: opInc, Data: []byte("after")}, rpc.WithRetries(0), rpc.WithRawStale())
	if err != nil || rep.Status != rpc.StatusStale {
		t.Fatalf("sealed primary answered a later op %v %+v", err, rep)
	}
	s := rc.ship.Stats()
	if !s.Lost || !s.Sealed || s.Retries == 0 {
		t.Fatalf("loss and seal not recorded: %+v", s)
	}
}

// TestShipPromoteEndToEnd: base snapshot, synchronous shipping, primary
// crash, promotion at the same put-port, and the standby's own
// durability — the whole hot-standby life cycle on one rig.
func TestShipPromoteEndToEnd(t *testing.T) {
	ctx := context.Background()
	r := newRig(t)
	rc := newReplicatedCounter(t, r, 3)
	port := rc.primary.PutPort()

	for i := 0; i < 7; i++ {
		if _, err := r.client.Trans(ctx, port, rpc.Request{Op: opInc, Data: []byte("live")}); err != nil {
			t.Fatal(err)
		}
	}
	// Synchronous shipping: the moment the last reply arrived, the
	// standby has applied (and locally committed) every operation.
	if got := rc.backup.get("pre"); got != 3 {
		t.Fatalf("standby pre-count %d, want 3 (base snapshot)", got)
	}
	if got := rc.backup.get("live"); got != 7 {
		t.Fatalf("standby live-count %d, want 7 (stream)", got)
	}
	if lag := rc.ship.Lag(); lag != 0 {
		t.Fatalf("healthy synchronous stream lags %d records", lag)
	}

	// The standby's own WAL must already hold everything it ever
	// acknowledged: recover a crash image of the BACKUP's disk.
	img, err := wal.Open(rc.backupDisk.Clone(), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	reborn := newCounter(t, r.attach(), img, 0)
	defer reborn.Close()
	if got := reborn.get("pre") + reborn.get("live"); got != 10 {
		t.Fatalf("standby disk image replays %d ops, want 10", got)
	}

	// Kill the primary: NIC off, no flush, no checkpoint.
	rc.ship.Stop()
	rc.primaryFB.Close()
	if err := rc.primary.Crash(); err != nil {
		t.Fatal(err)
	}
	// Promote: receiver stops, the standby kernel starts — same
	// put-port, new machine; the client's stale route heals via LOCATE.
	if err := rc.recv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := rc.backup.Start(); err != nil {
		t.Fatal(err)
	}
	if rc.backup.PutPort() != port {
		t.Fatal("promotion changed the put-port")
	}
	for i := 0; i < 4; i++ {
		if _, err := r.client.Trans(ctx, port, rpc.Request{Op: opInc, Data: []byte("after")}); err != nil {
			t.Fatalf("op %d against the promoted standby: %v", i, err)
		}
	}
	if got := rc.backup.get("live"); got != 7 {
		t.Fatalf("promoted standby lost stream ops: live=%d, want 7", got)
	}
	if got := rc.backup.get("after"); got != 4 {
		t.Fatalf("promoted standby after-count %d, want 4", got)
	}
}

// TestGapMarksPeerLostThenRebases: records committed while the sink was
// detached (a dropped shipment) make the receiver refuse the next batch
// with a sequence gap — nothing applies out of order. There is no
// back-fill: the shipper marks the peer lost at once and the reprobe
// loop re-bases it, the one way back onto the stream, after which the
// standby has converged without double-applying anything.
func TestGapMarksPeerLostThenRebases(t *testing.T) {
	ctx := context.Background()
	r := newRig(t)
	// GroupSize 1: the refused batch must not also seal the group (that
	// rule has its own tests), or nobody would be left to re-base.
	rc := newReplicatedCounterOpts(t, r, 0, Options{GroupSize: 1, Reprobe: 10 * time.Millisecond})
	port := rc.primary.PutPort()
	inc := func(name string, n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if _, err := r.client.Trans(ctx, port, rpc.Request{Op: opInc, Data: []byte(name)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	inc("a", 3)
	// Silently drop the stream: commits keep landing on the primary's
	// log but stop reaching the standby.
	rc.primary.SetReplicaSink(nil)
	inc("b", 4)
	if got := rc.backup.get("b"); got != 0 {
		t.Fatalf("standby saw %d dropped records", got)
	}
	// Hand the shipper only the last of them: the receiver sees a gap.
	before, recvBefore := rc.ship.Stats(), rc.recv.Stats()
	rc.ship.sink([]wal.Record{{Seq: rc.primary.NextSeq() - 1, Data: []byte{0x01, 'b'}}})
	// (The standby's state is not read here: the re-base may already be
	// restoring it. The receiver's counters say what was applied.)
	s := rc.recv.Stats()
	if s.Gaps == 0 {
		t.Fatalf("receiver never saw the gap: %+v", s)
	}
	if s.Applied-recvBefore.Applied != s.Rebased-recvBefore.Rebased {
		t.Fatalf("standby applied a record across a gap: %+v → %+v", recvBefore, s)
	}
	// Lost until re-based (the reprobe loop may already have got to it).
	if s := rc.ship.Stats(); !s.Lost && s.Rebases == before.Rebases {
		t.Fatalf("a refused batch left the peer live and un-re-based: %+v", s)
	}
	waitFor(t, "the lost peer to be re-based", func() bool { return !rc.ship.Lost() })
	if s := rc.ship.Stats(); s.Rebases != before.Rebases+1 || s.Sealed {
		t.Fatalf("want exactly one re-base and no seal: %+v", s)
	}
	// The re-base carried what the stream dropped and re-installed the
	// sink; the standby follows the live stream again.
	inc("c", 2)
	if a, b, c := rc.backup.get("a"), rc.backup.get("b"), rc.backup.get("c"); a != 3 || b != 4 || c != 2 {
		t.Fatalf("standby holds a=%d b=%d c=%d, want 3 4 2", a, b, c)
	}
	if lag := rc.ship.Lag(); lag != 0 {
		t.Fatalf("re-based stream lags %d records", lag)
	}
}

// TestReceiverRejectsStaleDupAndGap drives the receiver's RPC surface
// raw: duplicates and stale batches are skipped idempotently, gaps are
// rejected with StatusConflict, garbage is rejected without panic.
func TestReceiverRejectsStaleDupAndGap(t *testing.T) {
	ctx := context.Background()
	r := newRig(t)
	rc := newReplicatedCounter(t, r, 0)
	port := rc.primary.PutPort()

	for i := 0; i < 5; i++ {
		if _, err := r.client.Trans(ctx, port, rpc.Request{Op: opInc, Data: []byte("x")}); err != nil {
			t.Fatal(err)
		}
	}
	high := rc.recv.Pos()
	raw := r.newClientOn(r.attach())

	// A duplicate of an already-applied record: skipped, same high.
	dup := Encode([]wal.Record{{Seq: high.Seq, Data: []byte{0x01, 'x'}}}, false, 0)
	rep, err := raw.Trans(ctx, rc.recv.Port(), rpc.Request{Op: OpShip, Data: dup[0]})
	if err != nil || rep.Status != rpc.StatusOK {
		t.Fatalf("dup ship: %v %+v", err, rep)
	}
	if got, _ := ParseAck(rep.Data); got != high {
		t.Fatalf("dup ship moved the position %+v -> %+v", high, got)
	}
	if got := rc.backup.get("x"); got != 5 {
		t.Fatalf("duplicate was applied twice: x=%d", got)
	}

	// A future record (sequence gap): StatusConflict carrying high.
	gap := Encode([]wal.Record{{Seq: high.Seq + 5, Data: []byte{0x01, 'x'}}}, false, 0)
	rep, err = raw.Trans(ctx, rc.recv.Port(), rpc.Request{Op: OpShip, Data: gap[0]})
	if err != nil || rep.Status != rpc.StatusConflict {
		t.Fatalf("gap ship: %v %+v", err, rep)
	}
	if got, _ := ParseAck(rep.Data); got != high {
		t.Fatalf("gap nack reports %+v, want %+v", got, high)
	}
	if got := rc.backup.get("x"); got != 5 {
		t.Fatalf("gap record was applied: x=%d", got)
	}

	// Garbage: rejected, no panic, stream unharmed.
	for _, junk := range [][]byte{nil, {0xFF}, {0x00, 0xFF, 0xFF, 1, 2, 3}, make([]byte, 100)} {
		rep, err = raw.Trans(ctx, rc.recv.Port(), rpc.Request{Op: OpShip, Data: junk})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Status == rpc.StatusOK {
			t.Fatalf("garbage frame %x accepted", junk)
		}
	}
	if rc.recv.Pos() != high {
		t.Fatal("junk moved the position")
	}

	// OpSeq reports based + position.
	rep, err = raw.Trans(ctx, rc.recv.Port(), rpc.Request{Op: OpSeq})
	if err != nil || rep.Status != rpc.StatusOK || len(rep.Data) != 17 {
		t.Fatalf("seq query: %v %+v", err, rep)
	}
	if rep.Data[0] != 1 {
		t.Fatal("receiver reports un-based after a base")
	}
	if got, _ := ParseAck(rep.Data[1:]); got != high {
		t.Fatalf("seq query reports %+v, want %+v", got, high)
	}
}

// TestShipFragmentedRecord: a record bigger than one frame crosses the
// channel in fragments and reassembles exactly once.
func TestShipFragmentedRecord(t *testing.T) {
	big := make([]byte, MaxShipBytes*2+1234)
	for i := range big {
		big[i] = byte(i * 31)
	}
	frames := Encode([]wal.Record{{Seq: 42, Data: big}}, false, 0)
	if len(frames) < 3 {
		t.Fatalf("big record packed into %d frames, want ≥ 3", len(frames))
	}
	st := &stream{based: true, next: Pos{Seq: 42}}
	var got []wal.Record
	for _, f := range frames {
		items, rebase, term, err := Decode(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, it := range items {
			v, rec, err := st.offer(it, rebase, term)
			if err != nil {
				t.Fatal(err)
			}
			switch v {
			case vApply:
				got = append(got, rec)
				st.applied(rec, rebase, term)
			case vWait:
			default:
				t.Fatalf("verdict %v for an in-order fragment", v)
			}
		}
	}
	if len(got) != 1 || got[0].Seq != 42 || len(got[0].Data) != len(big) {
		t.Fatalf("reassembly produced %d records", len(got))
	}
	for i := range big {
		if got[0].Data[i] != big[i] {
			t.Fatalf("byte %d diverged", i)
		}
	}
}
