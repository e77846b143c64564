package repl

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"amoeba/internal/amnet"
	"amoeba/internal/cap"
	"amoeba/internal/clock"
	"amoeba/internal/crypto"
	"amoeba/internal/fbox"
	"amoeba/internal/locate"
	"amoeba/internal/rpc"
	"amoeba/internal/vdisk"
	"amoeba/internal/wal"
)

// skewedNIC is a machine whose clock runs off the network's by an
// offset the test moves: skewing it skews everything on that machine.
type skewedNIC struct {
	amnet.NIC
	clk *offsetClock
}

func (n skewedNIC) Clock() clock.Clock { return n.clk }

type offsetClock struct {
	clock.Clock
	off atomic.Int64
}

func (c *offsetClock) Now() time.Time { return c.Clock.Now().Add(time.Duration(c.off.Load())) }

// attachSkewed attaches a machine whose clock the test can step.
func (r *rig) attachSkewed() (*fbox.FBox, *offsetClock) {
	r.t.Helper()
	nic, err := r.net.Attach()
	if err != nil {
		r.t.Fatal(err)
	}
	clk := &offsetClock{Clock: nic.Clock()}
	fb := fbox.New(skewedNIC{nic, clk}, nil)
	r.t.Cleanup(func() { fb.Close() })
	return fb, clk
}

// newLog is a fresh WAL on a fresh disk.
func newLog(t *testing.T) *wal.Log {
	t.Helper()
	disk, err := vdisk.New(512, 256)
	if err != nil {
		t.Fatal(err)
	}
	log, err := wal.Open(disk, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return log
}

// clockedMachine is one machine's clock-reading components: a serving
// kernel, a standby receiver with its detector, and a resolver.
type clockedMachine struct {
	fb    *fbox.FBox
	srv   *counter
	recv  *Receiver
	det   *Detector
	fired chan struct{}
	res   *locate.Resolver
}

// newClockedMachine builds one on fb. Its ports derive from g, so two
// machines built with different g never answer for each other.
func newClockedMachine(t *testing.T, fb *fbox.FBox, g cap.Port, gap time.Duration) *clockedMachine {
	t.Helper()
	m := &clockedMachine{fb: fb, fired: make(chan struct{})}
	m.srv = newCounter(t, fb, newLog(t), g)
	if err := m.srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.srv.Close() })
	standby := newCounter(t, fb, newLog(t), g+1)
	t.Cleanup(func() { standby.Close() })
	m.recv = NewReceiver(fb, crypto.NewSeededSource(uint64(g)), standby.Kernel)
	if err := m.recv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.recv.Close() })
	m.det = NewDetector(m.recv, gap, func() { close(m.fired) })
	m.res = locate.New(fb, locate.Config{TTL: time.Minute, Timeout: 100 * time.Millisecond, Attempts: 3})
	return m
}

// stamp is the F-box's receive stamp on a frame the machine sends
// itself: the instant the server's queue wait starts from.
func (m *clockedMachine) stamp(t *testing.T) time.Time {
	t.Helper()
	g := cap.Port(0x5717)
	l, err := m.fb.Get(g, false)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := m.fb.Put(m.fb.Machine(), fbox.Message{Dest: m.fb.F(g), Payload: []byte("t")}); err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-l.Recv():
		got.Release()
		return got.At
	case <-time.After(5 * time.Second):
		t.Fatal("self-addressed frame never arrived")
		return time.Time{}
	}
}

// TestMachineClockReachesEveryComponent steps one machine's clock
// through its NIC alone and checks that every clock-reading component
// on it moves — the F-box's receive stamp and the RPC server's queue
// wait, the receiver's contact stamp, the failure detector and the
// resolver's TTL — while the same components on an unskewed machine of
// the same network do not, and the deadline budget a client on the
// skewed machine sends stays on the wall clock its context runs on.
func TestMachineClockReachesEveryComponent(t *testing.T) {
	const (
		off  = -3 * time.Hour // behind the network, so a mixed-up stamp reads as hours of queueing
		jump = 2 * time.Hour  // past the detector gap and the resolver TTL
		gap  = 2 * time.Second
		tol  = time.Minute
	)
	r := newRig(t)
	skewFB, clk := r.attachSkewed()
	clk.off.Store(int64(off))
	skew := newClockedMachine(t, skewFB, 0x5E0, gap)
	plain := newClockedMachine(t, r.attach(), 0x9A0, gap)
	ctx := context.Background()
	near := func(what string, got, want time.Time) {
		t.Helper()
		if d := got.Sub(want); d < -tol || d > tol {
			t.Fatalf("%s is %v off the expected instant", what, d)
		}
	}

	// Stamps are taken on the machine's own clock.
	near("skewed contact stamp", skew.recv.LastContact(), time.Now().Add(off))
	near("unskewed contact stamp", plain.recv.LastContact(), time.Now())
	near("skewed receive stamp", skew.stamp(t), time.Now().Add(off))
	near("unskewed receive stamp", plain.stamp(t), time.Now())

	// Each resolver learns the other machine's server.
	for _, lk := range []struct {
		res *locate.Resolver
		p   cap.Port
	}{{skew.res, plain.srv.PutPort()}, {plain.res, skew.srv.PutPort()}} {
		if _, err := lk.res.Lookup(ctx, lk.p); err != nil {
			t.Fatal(err)
		}
	}

	skew.det.Start()
	t.Cleanup(skew.det.Stop)
	plain.det.Start()
	t.Cleanup(plain.det.Stop)
	clk.off.Store(int64(off + jump))

	// The skewed standby has heard nothing for two hours by its clock:
	// its detector fires at its next poll. The unskewed one has been
	// silent for less than its gap and must not.
	select {
	case <-skew.fired:
	case <-time.After(4 * gap):
		t.Fatal("the skewed machine's detector never fired")
	}
	if plain.det.Fired() || plain.recv.Silence() >= gap {
		t.Fatalf("the unskewed detector moved with the other machine's clock (silence %v)", plain.recv.Silence())
	}
	if s := skew.recv.Silence(); s < jump-tol {
		t.Fatalf("skewed silence %v, want about %v", s, jump)
	}
	near("stepped receive stamp", skew.stamp(t), time.Now().Add(off+jump))

	// The step aged the skewed resolver's route past its TTL only.
	if _, err := skew.res.Lookup(ctx, plain.srv.PutPort()); err != nil {
		t.Fatal(err)
	}
	if _, err := plain.res.Lookup(ctx, skew.srv.PutPort()); err != nil {
		t.Fatal(err)
	}
	if s := skew.res.Stats(); s.Misses != 2 || s.Hits != 0 {
		t.Fatalf("skewed resolver %+v: want the stepped clock to expire its route", s)
	}
	if s := plain.res.Stats(); s.Misses != 1 || s.Hits != 1 {
		t.Fatalf("unskewed resolver %+v: want its route still fresh", s)
	}

	// A request's queue wait runs from the receive stamp to pickup, and
	// its deadline budget from the stamp to admission, all on the server
	// machine's clock: hours of skew must neither shed the request nor
	// leak into the wait estimate.
	for _, m := range []*clockedMachine{skew, plain} {
		dctx, cancel := context.WithTimeout(ctx, 5*time.Second)
		rep, err := r.client.Trans(dctx, m.srv.PutPort(), rpc.Request{Op: opInc, Data: []byte("q")})
		cancel()
		if err != nil || rep.Status != rpc.StatusOK {
			t.Fatalf("machine %v: budgeted request: %v %v", m.fb.Machine(), err, rep.Status)
		}
		if w := m.srv.QueueWaitEWMA(); w < -time.Second || w > time.Second {
			t.Fatalf("machine %v: queue-wait estimate %v mixes two clocks", m.fb.Machine(), w)
		}
	}

	// A context deadline is on the wall clock, so the budget a client
	// sends is too: a client machine stepped hours ahead must send the
	// caller's budget, not an expired one.
	clk.off.Store(int64(jump))
	echo := rpc.NewServer(plain.fb, crypto.NewSeededSource(7))
	budgets := make(chan time.Duration, 1)
	echo.Handle(rpc.OpEcho, func(_ context.Context, _ rpc.Meta, req rpc.Request) rpc.Reply {
		select {
		case budgets <- req.Budget:
		default:
		}
		return rpc.OkReply(nil)
	})
	if err := echo.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { echo.Close() })
	dctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	if _, err := r.newClientOn(skewFB).Trans(dctx, echo.PutPort(), rpc.Request{Op: rpc.OpEcho}); err != nil {
		t.Fatal(err)
	}
	if b := <-budgets; b < 4*time.Second || b > 5*time.Second {
		t.Fatalf("the skewed machine sent a %v budget for a 5s deadline", b)
	}
}
