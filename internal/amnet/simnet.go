package amnet

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"amoeba/internal/crypto"
	"amoeba/internal/wire"
)

// SimNet is the in-memory broadcast LAN used by tests, examples and
// experiments. It delivers frames between attached NICs with optional
// latency and loss, supports wiretaps (passive capture of every frame,
// the §2.4 intruder) and — only when explicitly enabled — source-forging
// injection, to demonstrate why the key-matrix scheme leans on the
// unforgeable source address.
type SimNet struct {
	cfg SimConfig

	mu     sync.RWMutex
	nextID MachineID
	nics   map[MachineID]*simNIC
	taps   []*Tap
	cut    map[[2]MachineID]bool // severed pairs (symmetric partitions)
	cutDir map[[2]MachineID]bool // severed directions {src, dst} (gray links)
	closed bool

	stats simCounters
}

// SimConfig tunes the simulated network. The zero value is a perfect,
// instantaneous LAN.
type SimConfig struct {
	// Latency delays every delivery by a fixed duration.
	Latency time.Duration
	// Jitter adds a uniformly random extra delay in [0, Jitter).
	Jitter time.Duration
	// LossRate drops each frame with this probability (0..1).
	LossRate float64
	// Duplicate delivers each frame twice with this probability
	// (0..1) — the classic retransmit-crossed-with-reply fault that
	// at-least-once RPC must tolerate.
	Duplicate float64
	// Reorder holds each frame back with this probability (0..1),
	// delivering it after ReorderWindow so a later frame can overtake
	// it.
	Reorder float64
	// ReorderWindow is how long a reordered frame is held (default
	// 1ms when Reorder > 0).
	ReorderWindow time.Duration
	// AllowSourceForgery permits Tap.InjectAs to forge source
	// addresses. Leave false to model the paper's assumption; set true
	// to run the replay-attack-succeeds ablation.
	AllowSourceForgery bool
	// QueueLen is the length of each NIC's Recv queue and each tap's
	// (default 256). Frames arriving at a full queue are dropped, like
	// a real NIC.
	QueueLen int
	// Seed makes loss and jitter deterministic; 0 uses a fixed default
	// so simulations are reproducible by default.
	Seed uint64
}

// Stats counts network activity, for experiments.
type Stats struct {
	Sent       uint64 // frames handed to the network
	Delivered  uint64 // frames a receiver took (broadcast counts each copy)
	Lost       uint64 // frames dropped by the loss model
	Overrun    uint64 // frames a receiver dropped at a full queue: Recv's, or an F-box listener's
	Duplicated uint64 // extra copies delivered by the duplication model
	Reordered  uint64 // frames held back by the reordering model
}

type simCounters struct {
	sent, delivered, lost, overrun, duplicated, reordered atomic.Uint64
}

// NewSimNet builds an empty simulated network.
func NewSimNet(cfg SimConfig) *SimNet {
	if cfg.QueueLen <= 0 {
		cfg.QueueLen = 256
	}
	if cfg.Seed == 0 {
		cfg.Seed = 0xA0EBA
	}
	if cfg.Reorder > 0 && cfg.ReorderWindow <= 0 {
		cfg.ReorderWindow = time.Millisecond
	}
	return &SimNet{
		cfg:    cfg,
		nextID: 1,
		nics:   make(map[MachineID]*simNIC),
		cut:    make(map[[2]MachineID]bool),
		cutDir: make(map[[2]MachineID]bool),
	}
}

// Attach adds a machine and returns its NIC.
func (n *SimNet) Attach() (NIC, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, ErrClosed
	}
	id := n.nextID
	n.nextID++
	nic := &simNIC{
		net: n,
		id:  id,
		in:  make(chan Frame, n.cfg.QueueLen),
		rnd: crypto.NewSeededSource(n.cfg.Seed ^ uint64(id)*0x9e3779b97f4a7c15),
	}
	nic.SetReceiver(nic.enqueue)
	n.nics[id] = nic
	return nic, nil
}

// Tap attaches a passive wiretap that receives a copy of every frame
// on the network — the §2.4 intruder who "can easily capture messages".
// A tap cannot transmit unless the network allows source forgery.
func (n *SimNet) Tap() (*Tap, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, ErrClosed
	}
	t := &Tap{net: n, in: make(chan Frame, n.cfg.QueueLen)}
	n.taps = append(n.taps, t)
	return t, nil
}

// Partition severs the link between two machines in both directions.
func (n *SimNet) Partition(a, b MachineID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.cut[pairKey(a, b)] = true
}

// Heal restores the link between two machines, clearing symmetric and
// one-way cuts alike.
func (n *SimNet) Heal(a, b MachineID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.cut, pairKey(a, b))
	delete(n.cutDir, [2]MachineID{a, b})
	delete(n.cutDir, [2]MachineID{b, a})
}

// PartitionOneWay severs the link from a to b in that direction only:
// a's frames to b vanish, b still reaches a. This is the gray network
// fault classic failure detectors are blind to — a primary that can
// send heartbeats but cannot hear acknowledgements looks perfectly
// healthy to everyone but itself.
func (n *SimNet) PartitionOneWay(a, b MachineID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.cutDir[[2]MachineID{a, b}] = true
}

// HealOneWay restores the a→b direction only.
func (n *SimNet) HealOneWay(a, b MachineID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.cutDir, [2]MachineID{a, b})
}

// FlapLink cuts and heals the a↔b link on a fixed cadence — the loose
// cable fault: up for upFor, down for downFor, repeatedly. It returns
// an idempotent stop function that heals the link and waits for the
// flapper to exit; tests must call it before tearing the network down.
func (n *SimNet) FlapLink(a, b MachineID, upFor, downFor time.Duration) (stop func()) {
	done := make(chan struct{})
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		for {
			select {
			case <-done:
				return
			case <-time.After(upFor):
			}
			n.Partition(a, b)
			select {
			case <-done:
				return
			case <-time.After(downFor):
			}
			n.Heal(a, b)
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			close(done)
			<-exited
			n.Heal(a, b)
		})
	}
}

// severed reports whether src→dst is cut, by a symmetric partition or
// a one-way cut in this direction; callers hold n.mu.
func (n *SimNet) severed(src, dst MachineID) bool {
	return n.cut[pairKey(src, dst)] || n.cutDir[[2]MachineID{src, dst}]
}

func pairKey(a, b MachineID) [2]MachineID {
	if a > b {
		a, b = b, a
	}
	return [2]MachineID{a, b}
}

// Stats returns a snapshot of the network counters.
func (n *SimNet) Stats() Stats {
	return Stats{
		Sent:       n.stats.sent.Load(),
		Delivered:  n.stats.delivered.Load(),
		Lost:       n.stats.lost.Load(),
		Overrun:    n.stats.overrun.Load(),
		Duplicated: n.stats.duplicated.Load(),
		Reordered:  n.stats.reordered.Load(),
	}
}

// Close detaches every NIC and tap.
func (n *SimNet) Close() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil
	}
	n.closed = true
	for _, nic := range n.nics {
		nic.closeLocked()
	}
	n.nics = map[MachineID]*simNIC{}
	for _, t := range n.taps {
		t.closeOnce()
	}
	n.taps = nil
	return nil
}

// cloneFrame duplicates a frame with its own pooled backing buffer,
// for the cases where one transmitted frame must reach more than one
// owner (broadcast fan-out, wiretaps, fault-injected duplicates).
func cloneFrame(f Frame) Frame {
	b := f.Buf.Clone()
	return Frame{Src: f.Src, Dst: f.Dst, Payload: b.Bytes(), Buf: b}
}

// transmit is the core delivery path. src has already been stamped and
// f.Buf is owned by the network from here on: the unicast fast path
// hands the very buffer the sender encoded into to the receiver (the
// sender gave up ownership at SendBuf, so nobody can mutate an
// in-flight frame); copies are made only where one frame needs several
// owners — broadcast, wiretaps and duplication faults.
func (n *SimNet) transmit(f Frame) error {
	if len(f.Payload) > MTU {
		f.Release()
		return fmt.Errorf("%w: %d bytes", ErrTooLarge, len(f.Payload))
	}
	n.mu.RLock()
	if n.closed {
		n.mu.RUnlock()
		f.Release()
		return ErrClosed
	}
	var targets []*simNIC
	if f.Dst == BroadcastID {
		targets = make([]*simNIC, 0, len(n.nics))
		for id, nic := range n.nics {
			if id != f.Src && !n.severed(f.Src, id) {
				targets = append(targets, nic)
			}
		}
	} else {
		nic, ok := n.nics[f.Dst]
		if !ok {
			n.mu.RUnlock()
			f.Release()
			return fmt.Errorf("%w: %v", ErrNoRoute, f.Dst)
		}
		if !n.severed(f.Src, f.Dst) {
			targets = []*simNIC{nic}
		}
	}
	taps := n.taps
	n.mu.RUnlock()

	n.stats.sent.Add(1)
	// Taps see every frame, before loss (they sit on the wire).
	for _, t := range taps {
		t.deliver(cloneFrame(f))
	}
	if len(targets) == 0 {
		f.Release()
		return nil
	}
	for _, nic := range targets[1:] {
		n.deliverTo(nic, cloneFrame(f))
	}
	n.deliverTo(targets[0], f)
	return nil
}

// deliverTo owns f: every path either hands it to the NIC's receiver
// or releases it.
func (n *SimNet) deliverTo(nic *simNIC, f Frame) {
	if n.cfg.LossRate > 0 && nic.chance(n.cfg.LossRate) {
		n.stats.lost.Add(1)
		f.Release()
		return
	}
	delay := n.cfg.Latency
	if n.cfg.Jitter > 0 {
		delay += time.Duration(nic.rnd.Uint64() % uint64(n.cfg.Jitter))
	}
	// Reordering: hold the frame past the window so frames sent after
	// it can overtake it.
	if n.cfg.Reorder > 0 && nic.chance(n.cfg.Reorder) {
		delay += n.cfg.ReorderWindow
		n.stats.reordered.Add(1)
	}
	// Duplication: a second copy arrives shortly after the first —
	// the shape a retransmission crossing its reply produces.
	if n.cfg.Duplicate > 0 && nic.chance(n.cfg.Duplicate) {
		n.stats.duplicated.Add(1)
		dupFrame := cloneFrame(f)
		dup := delay + n.cfg.ReorderWindow + 100*time.Microsecond
		time.AfterFunc(dup, func() { nic.deliver(dupFrame, n) })
	}
	if delay == 0 {
		nic.deliver(f, n)
		return
	}
	time.AfterFunc(delay, func() { nic.deliver(f, n) })
}

// simNIC implements NIC on a SimNet.
type simNIC struct {
	net  *SimNet
	id   MachineID
	rnd  *crypto.SeededSource
	recv atomic.Pointer[func(Frame) bool]

	// closed is read lock-free on every send and delivery and set under
	// mu, which orders the default receiver's sends on in against Close
	// closing it.
	closed atomic.Bool
	mu     sync.Mutex
	in     chan Frame
}

var _ NIC = (*simNIC)(nil)

func (nic *simNIC) ID() MachineID { return nic.id }

func (nic *simNIC) Send(dst MachineID, payload []byte) error {
	return nic.SendBuf(dst, wire.NewFrom(payload))
}

// SendBuf implements NIC: ownership of b transfers to the network,
// which releases it on every non-delivery path.
func (nic *simNIC) SendBuf(dst MachineID, b *wire.Buf) error {
	if nic.closed.Load() {
		b.Release()
		return ErrClosed
	}
	return nic.net.transmit(Frame{Src: nic.id, Dst: dst, Payload: b.Bytes(), Buf: b})
}

func (nic *simNIC) Broadcast(payload []byte) error {
	return nic.Send(BroadcastID, payload)
}

func (nic *simNIC) Recv() <-chan Frame { return nic.in }

func (nic *simNIC) SetReceiver(fn func(Frame) bool) { nic.recv.Store(&fn) }

func (nic *simNIC) Close() error {
	nic.net.mu.Lock()
	delete(nic.net.nics, nic.id)
	nic.net.mu.Unlock()
	nic.mu.Lock()
	defer nic.mu.Unlock()
	nic.closeInner()
	return nil
}

// closeLocked is called with the network lock held (during net.Close).
func (nic *simNIC) closeLocked() {
	nic.mu.Lock()
	defer nic.mu.Unlock()
	nic.closeInner()
}

func (nic *simNIC) closeInner() {
	if !nic.closed.Swap(true) {
		close(nic.in)
	}
}

// deliver hands f to the receiver on the calling goroutine — the
// sender's, or a latency, reorder or duplicate timer's — with no lock
// held: two machines whose receivers answer each other (LOCATE) would
// otherwise each hold its own NIC's lock while waiting for the other's.
func (nic *simNIC) deliver(f Frame, n *SimNet) {
	if nic.closed.Load() {
		f.Release()
		return
	}
	if (*nic.recv.Load())(f) {
		n.stats.delivered.Add(1)
	} else {
		n.stats.overrun.Add(1)
	}
}

// enqueue is the default receiver: the Recv queue.
func (nic *simNIC) enqueue(f Frame) bool {
	nic.mu.Lock()
	defer nic.mu.Unlock()
	if nic.closed.Load() {
		f.Release()
		return true
	}
	return offer(nic.in, f)
}

// offer queues f on q or, q being full, releases it and reports the
// drop. The caller keeps q open until it returns.
func offer(q chan<- Frame, f Frame) bool {
	select {
	case q <- f:
		return true
	default:
		f.Release()
		return false
	}
}

// chance returns true with the given probability, deterministically
// from the NIC's seeded source.
func (nic *simNIC) chance(p float64) bool {
	const scale = 1 << 53
	return float64(nic.rnd.Uint64()>>11)/scale < p
}

// Tap is a passive wiretap: a promiscuous receiver of every frame on
// the network. It models the §2.4 intruder. InjectAs is only permitted
// when the network was configured with AllowSourceForgery.
type Tap struct {
	net *SimNet

	mu     sync.Mutex
	in     chan Frame
	closed bool
}

// Recv returns the channel of captured frames.
func (t *Tap) Recv() <-chan Frame { return t.in }

// InjectAs transmits a frame with a forged source address. It fails
// with ErrForgeryForbidden unless the network explicitly allows source
// forgery; the paper's security argument assumes it does not.
func (t *Tap) InjectAs(src, dst MachineID, payload []byte) error {
	if !t.net.cfg.AllowSourceForgery {
		return ErrForgeryForbidden
	}
	b := wire.NewFrom(payload)
	return t.net.transmit(Frame{Src: src, Dst: dst, Payload: b.Bytes(), Buf: b})
}

// ErrForgeryForbidden is returned by Tap.InjectAs on networks that
// enforce hardware source addresses.
var ErrForgeryForbidden = fmt.Errorf("amnet: source address forgery forbidden by network")

func (t *Tap) deliver(f Frame) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		f.Release()
		return
	}
	offer(t.in, f) // taps never block the network
}

func (t *Tap) closeOnce() {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.closed {
		t.closed = true
		close(t.in)
	}
}

// Close detaches the tap.
func (t *Tap) Close() error {
	t.net.mu.Lock()
	for i, other := range t.net.taps {
		if other == t {
			t.net.taps = append(t.net.taps[:i], t.net.taps[i+1:]...)
			break
		}
	}
	t.net.mu.Unlock()
	t.closeOnce()
	return nil
}
