package fbox

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"amoeba/internal/amnet"
	"amoeba/internal/wire"
)

// The F-box is its NIC's receiver: every inbound frame is handled on
// the goroutine that carried it. These tests hold it to the receiver
// contract (amnet.NIC.SetReceiver) on both transports: it never blocks,
// it runs with no NIC lock held, it races Close safely, and it costs no
// goroutine.

// machines is a two-machine network: a sends, b serves.
type machines struct {
	a, b *FBox
	// dropped is the count of frames b's NIC saw its receiver refuse.
	dropped func() uint64
	// settle waits until b's NIC has taken in n frames from the wire in
	// all, and reports whether it did. SimNet delivers on the sender's
	// goroutine, so there it has nothing to wait for.
	settle func(t *testing.T, n uint64) bool
}

// unlessFailed runs close at cleanup only if t passed: a network a
// failed test left deadlocked cannot be closed, and trying would hang
// the test instead of reporting it.
func unlessFailed(t *testing.T, close func()) {
	t.Cleanup(func() {
		if !t.Failed() {
			close()
		}
	})
}

func simMachines(t *testing.T) machines {
	t.Helper()
	n := amnet.NewSimNet(amnet.SimConfig{})
	unlessFailed(t, func() { n.Close() })
	fbs := [2]*FBox{}
	for i := range fbs {
		nic, err := n.Attach()
		if err != nil {
			t.Fatal(err)
		}
		fbs[i] = New(nic, nil)
		unlessFailed(t, func() { fbs[i].Close() })
	}
	return machines{
		a: fbs[0], b: fbs[1],
		dropped: func() uint64 { return n.Stats().Overrun },
		settle:  func(*testing.T, uint64) bool { return true },
	}
}

// tcpMachines is machines 1 and 2 of a loopback TCP cluster.
func tcpMachines(t *testing.T) machines {
	t.Helper()
	na, err := amnet.NewTCPNet(1, map[amnet.MachineID]string{1: "127.0.0.1:0", 2: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	nb, err := amnet.NewTCPNet(2, map[amnet.MachineID]string{1: na.Addr(), 2: "127.0.0.1:0"})
	if err != nil {
		na.Close()
		t.Fatal(err)
	}
	na.SetPeer(2, nb.Addr())
	a, b := New(na, nil), New(nb, nil)
	unlessFailed(t, func() { a.Close(); b.Close() })
	return machines{
		a: a, b: b,
		dropped: func() uint64 { return nb.Stats().InDropped },
		settle: func(t *testing.T, n uint64) bool {
			t.Helper()
			deadline := time.Now().Add(10 * time.Second)
			for nb.Stats().FramesIn < n {
				if time.Now().After(deadline) {
					t.Errorf("machine 2 took in %d of %d frames", nb.Stats().FramesIn, n)
					return false
				}
				time.Sleep(time.Millisecond)
			}
			if d := na.Stats().LaneDropped; d != 0 {
				t.Errorf("%d frames dropped in machine 1's lane, not at the receiver", d)
				return false
			}
			return true
		},
	}
}

// within runs fns concurrently and fails t if they have not all
// returned after d: a receiver that blocks or deadlocks turns the test
// red instead of hanging it.
func within(t *testing.T, d time.Duration, fns ...func()) {
	t.Helper()
	var wg sync.WaitGroup
	for _, fn := range fns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn()
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("still blocked after %v", d)
	}
}

var transports = []struct {
	name string
	boot func(*testing.T) machines
}{
	{"simnet", simMachines},
	{"tcp", tcpMachines},
}

// TestReceiverNeverBlocks floods a listener nobody reads with three
// queues' worth of messages. The receiver must drop the excess rather
// than wait for room: every send returns, exactly the excess is counted
// as overrun, and another listener on the same F-box still hears a
// message sent after the flood.
func TestReceiverNeverBlocks(t *testing.T) {
	for _, tr := range transports {
		t.Run(tr.name, func(t *testing.T) {
			m := tr.boot(t)
			stuck, err := m.b.Get(0x57C, false)
			if err != nil {
				t.Fatal(err)
			}
			live, err := m.b.Get(0x11FE, false)
			if err != nil {
				t.Fatal(err)
			}
			within(t, 10*time.Second, func() {
				sent := uint64(0)
				for round := 0; round < 3; round++ {
					// One queue's worth at a time, so the sender's own TCP
					// lane never overflows: every drop is the receiver's.
					for i := 0; i < listenerQueue; i++ {
						if err := m.a.Put(m.b.Machine(), Message{Dest: stuck.Port(), Payload: []byte{byte(i)}}); err != nil {
							t.Error(err)
							return
						}
						sent++
					}
					if !m.settle(t, sent) {
						return
					}
				}
			})
			if err := m.a.Put(m.b.Machine(), Message{Dest: live.Port(), Payload: []byte("after")}); err != nil {
				t.Fatal(err)
			}
			if got := recvMsg(t, live, 10*time.Second); string(got.Payload) != "after" {
				t.Fatalf("second listener got %q", got.Payload)
			}
			// The flood reached the receiver ahead of "after" (one sender,
			// one connection), so its count is final.
			if got, want := m.dropped(), uint64(2*listenerQueue); got != want {
				t.Fatalf("overruns = %d, want %d", got, want)
			}
		})
	}
}

// TestReceiverHoldsNoNICLock: a LOCATE is answered from inside the
// receiver, by a send. Were the receiver called under a NIC lock, two
// SimNet machines locating each other's ports would each hold their
// own NIC's lock while waiting for the other's, and a TCP daemon
// locating a service it hosts itself — its broadcasts include itself —
// would wait for the lock it holds.
func TestReceiverHoldsNoNICLock(t *testing.T) {
	const rounds = 1000
	locate := func(t *testing.T, from *FBox, p Port, want amnet.MachineID) {
		replies, cancel, err := from.Locate(p)
		if err != nil {
			t.Error(err)
			return
		}
		defer cancel()
		select {
		case at := <-replies:
			if at != want {
				t.Errorf("located at %v, want %v", at, want)
			}
		case <-time.After(5 * time.Second):
			t.Error("LOCATE got no answer")
		}
	}
	t.Run("simnet", func(t *testing.T) {
		m := simMachines(t)
		if _, err := m.a.Get(0xA, true); err != nil {
			t.Fatal(err)
		}
		if _, err := m.b.Get(0xB, true); err != nil {
			t.Fatal(err)
		}
		pa, pb := m.a.F(0xA), m.b.F(0xB)
		aToB := func() {
			for i := 0; i < rounds && !t.Failed(); i++ {
				locate(t, m.a, pb, m.b.Machine())
			}
		}
		bToA := func() {
			for i := 0; i < rounds && !t.Failed(); i++ {
				locate(t, m.b, pa, m.a.Machine())
			}
		}
		within(t, 10*time.Second, aToB, bToA, aToB, bToA)
	})

	t.Run("tcp", func(t *testing.T) {
		nic, err := amnet.NewTCPNet(1, map[amnet.MachineID]string{1: "127.0.0.1:0"})
		if err != nil {
			t.Fatal(err)
		}
		fb := New(nic, nil)
		unlessFailed(t, func() { fb.Close() })
		if _, err := fb.Get(0xF11E, true); err != nil {
			t.Fatal(err)
		}
		p := fb.F(0xF11E)
		within(t, 10*time.Second, func() {
			for i := 0; i < rounds && !t.Failed(); i++ {
				locate(t, fb, p, fb.Machine())
			}
		})
	})
}

// TestReceiverRacesClose delivers to an F-box from several senders
// while it — or only its NIC — closes. With buffers poisoned on
// release, a frame sent on a closed listener channel panics, a buffer
// released twice panics, and one written after release panics at its
// next Get; on SimNet, where every delivery finishes before its send
// returns, every buffer must also be back in the pool at the end.
func TestReceiverRacesClose(t *testing.T) {
	wire.SetDebug(true)
	defer wire.SetDebug(false)

	race := func(t *testing.T, m machines, closeNIC func()) {
		var ls []*Listener
		for g := Port(1); g <= 4; g++ {
			l, err := m.b.Get(g, g%2 == 0)
			if err != nil {
				t.Fatal(err)
			}
			ls = append(ls, l)
		}
		reply, err := m.b.GetReply(0x4E9)
		if err != nil {
			t.Fatal(err)
		}
		ls = append(ls, reply)

		const senders = 4
		start := make(chan struct{})
		var wg sync.WaitGroup
		for s := 0; s < senders; s++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for i := 0; ; i++ {
					l := ls[i%len(ls)]
					if m.a.Put(m.b.Machine(), Message{Dest: l.Port(), Payload: []byte{byte(s), byte(i)}}) != nil {
						return // the route is gone
					}
					if i%len(ls) == 0 {
						// Some LOCATEs too: they are answered from the receiver.
						if _, cancel, err := m.a.Locate(m.b.F(2)); err == nil {
							cancel()
						}
					}
				}
			}()
		}
		close(start)
		time.Sleep(20 * time.Millisecond)
		if closeNIC != nil {
			closeNIC()
		}
		if err := m.b.Close(); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
		for _, l := range ls {
			for msg := range l.Recv() {
				msg.Release()
			}
		}
	}

	t.Run("simnet/fbox", func(t *testing.T) {
		before := wire.Live()
		m := simMachines(t)
		race(t, m, nil)
		if leaked := wire.Live() - before; leaked != 0 {
			t.Fatalf("%d buffers never released", leaked)
		}
	})
	t.Run("simnet/nic", func(t *testing.T) {
		before := wire.Live()
		m := simMachines(t)
		race(t, m, func() { m.b.nic.Close() })
		if leaked := wire.Live() - before; leaked != 0 {
			t.Fatalf("%d buffers never released", leaked)
		}
	})
	t.Run("tcp", func(t *testing.T) {
		m := tcpMachines(t)
		race(t, m, nil)
	})
}

// TestNewStartsNoGoroutine: the F-box is a function the NIC calls, not
// a loop beside it.
func TestNewStartsNoGoroutine(t *testing.T) {
	n := amnet.NewSimNet(amnet.SimConfig{})
	defer n.Close()
	nic, err := n.Attach()
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	fb := New(nic, nil)
	if after := runtime.NumGoroutine(); after != before {
		t.Fatalf("fbox.New: %d goroutines, was %d", after, before)
	}
	if err := fb.Close(); err != nil {
		t.Fatal(err)
	}
}
