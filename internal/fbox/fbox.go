// Package fbox implements the paper's F-box (§2.2, Fig. 1): the small
// interface box between each processor and the network through which
// every message must pass, applying the public one-way function F to
// the reply-port and signature header fields of outgoing messages and
// admitting inbound messages only for ports on which the host has an
// outstanding GET.
//
// Ports come in pairs (G, P) with P = F(G). A server does GET(G); its
// F-box listens for frames addressed to put-port P = F(G). Clients do
// PUT(P). An intruder who knows only P and does GET(P) ends up
// listening on the useless port F(P), so server impersonation fails.
//
// The F-box also implements the paper's digital signatures: an outgoing
// message carries a signature field S which the F-box transforms to
// F(S) in transit; receivers compare it against the sender's published
// F(S).
//
// The paper puts the F-box in VLSI on the network interface. Here it is
// a software shim that owns the machine's NIC; the substitution
// preserves the security argument because code built on this package
// has no other path to the wire (EXPERIMENTS.md F1 and E7 check the
// properties; examples/intruder plays the attacks against them).
//
// Like the hardware, the F-box has no thread of its own. It is the
// NIC's receiver (amnet.NIC.SetReceiver): each inbound frame is
// filtered and dropped into its listener's queue on the goroutine that
// carried it, so between the wire and a service there is exactly one
// queue, the listener's.
package fbox

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"time"

	"amoeba/internal/amnet"
	"amoeba/internal/cap"
	"amoeba/internal/crypto"
	"amoeba/internal/wire"
)

// Port re-exports the 48-bit Amoeba port type; capabilities carry the
// put-port of their server in the same type.
type Port = cap.Port

// Message is what hosts hand to and receive from their F-box.
type Message struct {
	// Dest is the destination put-port (P). The F-box transmits it
	// untransformed; the receiving F-box uses it to find the GET.
	Dest Port
	// Reply is, on send, the sender's secret reply get-port (G'); the
	// F-box transmits F(G'). On receive it is therefore the put-port
	// P' = F(G') to which a reply should be PUT.
	Reply Port
	// Sig is, on send, the sender's secret signature (S); the F-box
	// transmits F(S). On receive it is F(S), to be compared with the
	// sender's published value. Zero means unsigned.
	Sig Port
	// Payload is the message body (opaque to the F-box).
	Payload []byte
}

// Received is an inbound message plus its hardware source machine.
type Received struct {
	Message
	// From is the source machine stamped by the network.
	From amnet.MachineID
	// Buf, when non-nil, is the pooled buffer backing Message.Payload.
	// The consumer owns it: call Release once the payload (and
	// anything aliasing it) is done with. Releasing is optional — an
	// unreleased buffer is simply garbage-collected — but the RPC hot
	// paths release after decoding.
	Buf *wire.Buf
	// At is when the frame came off the NIC, stamped for service
	// listeners (Get) only; a reply listener's is zero. Queue-wait
	// accounting starts here, not at dispatch: time spent in the
	// listener queue is wait the sender's deadline is already paying
	// for.
	At time.Time
}

// Release returns the message's pooled buffer (if any) to the pool.
// The payload is invalid afterwards.
func (r Received) Release() {
	if r.Buf != nil {
		r.Buf.Release()
	}
}

// Errors.
var (
	// ErrPortBusy is returned by Get for a port with an active listener.
	ErrPortBusy = errors.New("fbox: GET already outstanding for this port")
	// ErrClosed is returned after the F-box is closed.
	ErrClosed = errors.New("fbox: closed")
	// ErrBadFrame is reported for undecodable frames (dropped).
	ErrBadFrame = errors.New("fbox: malformed frame")
)

// frame kinds on the wire.
const (
	kindMessage = 0x01
	kindLocate  = 0x02
	kindLocateR = 0x03
)

// wire header: kind(1) dest(6) reply(6) sig(6) = 19 bytes.
const headerSize = 19

// Headroom is the buffer headroom PutBuf consumes: message builders
// that reserve at least wire.DefaultHeadroom (≥ Headroom plus the
// transport's own header) get their frame header prepended in place.
const Headroom = headerSize

// listenerQueue is a service Listener's buffer depth, the same 256
// frames a NIC's own Recv queue holds: it is the only queue between
// the wire and the service. Beyond it a message drops, as the hardware
// would, and the NIC counts the drop as an overrun.
const listenerQueue = 256

// replyQueue is a one-shot reply Listener's buffer depth: one reply is
// expected, plus room for a fault-injected duplicate. Keeping it tiny
// is what makes reply listeners cheap enough to pool — the old
// 256-slot channel per transaction was most of the RPC path's
// allocation bill.
const replyQueue = 2

// FBox is the per-machine function box. It owns the NIC: all traffic
// in and out of the machine flows through it.
type FBox struct {
	nic amnet.NIC
	f   crypto.OneWay

	mu        sync.Mutex
	listeners map[Port]*Listener
	locates   map[Port]bool // ports this F-box answers LOCATE for
	waiters   map[Port][]chan amnet.MachineID
	closed    bool
}

// New wraps a NIC in an F-box using the given one-way function (nil
// selects SHA-48 with the port-transform tag). It installs the F-box as
// the NIC's receiver and starts no goroutine: from here on every frame
// the NIC takes in is handled on the goroutine that carried it.
func New(nic amnet.NIC, f crypto.OneWay) *FBox {
	if f == nil {
		f = crypto.SHA48{Tag: 1}
	}
	fb := &FBox{
		nic:       nic,
		f:         f,
		listeners: make(map[Port]*Listener),
		locates:   make(map[Port]bool),
		waiters:   make(map[Port][]chan amnet.MachineID),
	}
	nic.SetReceiver(fb.handleFrame)
	return fb
}

// F applies the F-box's public one-way function to a port.
func (fb *FBox) F(p Port) Port {
	return Port(fb.f.F(uint64(p))) & cap.PortMask
}

// Machine returns the machine this F-box is attached to.
func (fb *FBox) Machine() amnet.MachineID { return fb.nic.ID() }

// Listener receives messages for one GET port.
type Listener struct {
	fb     *FBox
	put    Port // the transformed port the listener is keyed by
	ch     chan Received
	pooled bool // reply listener: recycled through replyListeners
	closed bool // guarded by fb.mu
}

// replyListeners recycles one-shot reply listeners (struct and
// channel) across transactions.
var replyListeners = sync.Pool{
	New: func() any { return &Listener{ch: make(chan Received, replyQueue)} },
}

// Recv returns the listener's message channel. For service listeners
// (Get) it is closed when the listener or its F-box is closed; pooled
// reply listeners (GetReply) keep their channel open for recycling and
// only see it closed when the whole F-box shuts down.
func (l *Listener) Recv() <-chan Received { return l.ch }

// Port returns the put-port this listener serves (F of the get-port).
func (l *Listener) Port() Port { return l.put }

// Close cancels the GET. A pooled reply listener is recycled; a
// service listener's channel is closed.
func (l *Listener) Close() {
	fb := l.fb
	fb.mu.Lock()
	if l.closed {
		fb.mu.Unlock()
		return
	}
	l.closed = true
	if fb.listeners[l.put] == l {
		delete(fb.listeners, l.put)
		delete(fb.locates, l.put)
	}
	if l.pooled && !fb.closed {
		fb.mu.Unlock()
		// The map delete above (under the lock handleFrame delivers
		// under) guarantees no further sends; drain what raced in
		// before it, then recycle.
		for {
			select {
			case m := <-l.ch:
				m.Release()
				continue
			default:
			}
			break
		}
		replyListeners.Put(l)
		return
	}
	// Closing under the F-box lock serializes with handleFrame's
	// (non-blocking) deliveries, so a frame in flight can never be
	// sent on a closed channel.
	close(l.ch)
	fb.mu.Unlock()
}

// Get implements GET(G): the F-box computes P = F(G) and delivers
// arriving messages addressed to P. The get-port G never leaves the
// machine. advertise controls whether this F-box answers LOCATE
// broadcasts for P (public services advertise; a client's one-shot
// reply ports do not, shrinking the attack surface).
func (fb *FBox) Get(g Port, advertise bool) (*Listener, error) {
	return fb.get(g, advertise, nil)
}

// GetReply is GET(G) for a transaction's one-shot reply port: never
// advertised, buffered for a single reply (plus a duplicate), and
// recycled through a pool when closed — the allocation-free fast path
// under every RPC transaction.
func (fb *FBox) GetReply(g Port) (*Listener, error) {
	l := replyListeners.Get().(*Listener)
	l.pooled = true
	got, err := fb.get(g, false, l)
	if err != nil {
		replyListeners.Put(l)
		return nil, err
	}
	return got, nil
}

func (fb *FBox) get(g Port, advertise bool, reuse *Listener) (*Listener, error) {
	put := fb.F(g)
	fb.mu.Lock()
	defer fb.mu.Unlock()
	if fb.closed {
		return nil, ErrClosed
	}
	if _, busy := fb.listeners[put]; busy {
		return nil, fmt.Errorf("%w: %v", ErrPortBusy, put)
	}
	l := reuse
	if l == nil {
		l = &Listener{ch: make(chan Received, listenerQueue)}
	}
	l.fb, l.put, l.closed = fb, put, false
	fb.listeners[put] = l
	if advertise {
		fb.locates[put] = true
	}
	return l, nil
}

// Put implements PUT(P): send a message to the machine dst, addressed
// to put-port msg.Dest. The F-box transforms the reply and signature
// fields with F on the way out; the destination field passes through
// untransformed. Hosts therefore place their *secret* reply get-port
// and signature in the message; only the one-way images touch the wire.
func (fb *FBox) Put(dst amnet.MachineID, msg Message) error {
	b := wire.Get(wire.DefaultHeadroom, len(msg.Payload))
	b.AppendBytes(msg.Payload)
	reply := msg.Reply
	if reply != 0 {
		reply = fb.F(reply)
	}
	return fb.send(dst, msg.Dest, reply, msg.Sig, b)
}

// PutBuf is the zero-copy PUT: b carries the message payload (built
// with at least wire.DefaultHeadroom of headroom) and the frame header
// is prepended in place before the same backing array goes to the NIC.
// Ownership of b transfers to the F-box/NIC on every path, success or
// failure. reply is the listener of the GET the sender has outstanding
// for this message's answer (nil: none expected): its put-port F(G′)
// was computed when the GET was posted and goes on the wire as is, so a
// transaction pays F once — as the paper's F-box does — and the secret
// G′ crosses this API once. sig is the sender's secret; its one-way
// image F(sig) is what hits the wire.
func (fb *FBox) PutBuf(dst amnet.MachineID, dest Port, reply *Listener, sig Port, b *wire.Buf) error {
	var replyPut Port
	if reply != nil {
		replyPut = reply.put
	}
	return fb.send(dst, dest, replyPut, sig, b)
}

// send frames b with the already-transformed reply port and the still-
// secret signature, and hands it to the NIC. It owns b.
func (fb *FBox) send(dst amnet.MachineID, dest, replyPut, sig Port, b *wire.Buf) error {
	fb.mu.Lock()
	if fb.closed {
		fb.mu.Unlock()
		b.Release()
		return ErrClosed
	}
	fb.mu.Unlock()
	if sig != 0 {
		sig = fb.F(sig)
	}
	hdr := b.Prepend(headerSize)
	hdr[0] = kindMessage
	putPort(hdr[1:7], dest)
	putPort(hdr[7:13], replyPut)
	putPort(hdr[13:19], sig)
	return fb.nic.SendBuf(dst, b)
}

// Locate broadcasts a LOCATE for put-port p. Machines whose F-box has
// an advertised GET outstanding for p answer with their machine ID.
// Replies arrive on the returned channel; callers time out on their own
// and must call cancel when done. Package locate layers caching and
// retry on top.
func (fb *FBox) Locate(p Port) (replies <-chan amnet.MachineID, cancel func(), err error) {
	ch := make(chan amnet.MachineID, 8)
	fb.mu.Lock()
	if fb.closed {
		fb.mu.Unlock()
		return nil, nil, ErrClosed
	}
	fb.waiters[p] = append(fb.waiters[p], ch)
	fb.mu.Unlock()

	cancel = func() {
		fb.mu.Lock()
		defer fb.mu.Unlock()
		ws := fb.waiters[p]
		for i, w := range ws {
			if w == ch {
				fb.waiters[p] = append(ws[:i], ws[i+1:]...)
				break
			}
		}
		if len(fb.waiters[p]) == 0 {
			delete(fb.waiters, p)
		}
	}

	var buf [headerSize]byte
	buf[0] = kindLocate
	putPort(buf[1:7], p)
	if err := fb.nic.Broadcast(buf[:]); err != nil {
		cancel()
		return nil, nil, fmt.Errorf("fbox: locate broadcast: %w", err)
	}
	return ch, cancel, nil
}

// Close shuts the F-box and its NIC down. A delivery racing it finds
// no listener and releases its frame.
func (fb *FBox) Close() error {
	fb.mu.Lock()
	if fb.closed {
		fb.mu.Unlock()
		return nil
	}
	fb.closed = true
	// Retire every listener inline, under the lock: a snapshot closed
	// after unlocking could race with an owner's concurrent Close
	// recycling a pooled reply listener — the stale handle would then
	// close (and double-pool) a listener already re-registered
	// elsewhere. Under fb.mu the map holds exactly the live listeners,
	// closing the channels here is safe against handleFrame (it
	// delivers under this lock), and fb.closed stops any
	// re-registration.
	for put, l := range fb.listeners {
		delete(fb.listeners, put)
		delete(fb.locates, put)
		l.closed = true
		close(l.ch)
	}
	fb.mu.Unlock()
	return fb.nic.Close()
}

// handleFrame is the F-box's receive, the NIC's receiver: decode,
// filter, deliver. It runs on whichever goroutine carried the frame,
// concurrently with itself and with every other F-box call, which is
// safe because the only state it touches is the fb.mu-guarded maps.
// It never blocks — it is the input action of an I/O automaton, which
// must always be enabled: a listener delivery is a send-or-drop under
// fb.mu, a LOCATE answer a send on the NIC with no lock held (on TCP
// the first frame to a peer may dial, for at most the transport's dial
// timeout). It returns false only for a message dropped at a full
// listener queue; a frame for a port nobody GETs is not a drop.
func (fb *FBox) handleFrame(f amnet.Frame) (accepted bool) {
	kind, msg, err := decodeFrame(f.Payload)
	if err != nil {
		f.Release()
		return true // malformed: drop, as hardware would
	}
	if kind != kindMessage {
		defer f.Release()
	}
	switch kind {
	case kindMessage:
		// Deliver under the lock (the send never blocks): pairs with
		// Listener.Close, which closes the channel under the same lock.
		// Ownership of the frame buffer rides into Received; every
		// non-delivery path releases it.
		delivered := false
		fb.mu.Lock()
		l := fb.listeners[msg.Dest]
		if l != nil {
			m := Received{Message: msg, From: f.Src, Buf: f.Buf}
			if !l.pooled {
				m.At = time.Now() // a reply or ack skips the clock read
			}
			select {
			case l.ch <- m:
				delivered = true
			default: // listener queue full: drop
			}
		}
		fb.mu.Unlock()
		if !delivered {
			f.Release()
		}
		return delivered || l == nil
	case kindLocate:
		fb.mu.Lock()
		_, here := fb.locates[msg.Dest]
		fb.mu.Unlock()
		if !here {
			return true
		}
		var buf [headerSize]byte
		buf[0] = kindLocateR
		putPort(buf[1:7], msg.Dest)
		// Best effort; the querier retries.
		_ = fb.nic.Send(f.Src, buf[:])
	case kindLocateR:
		fb.mu.Lock()
		ws := append([]chan amnet.MachineID(nil), fb.waiters[msg.Dest]...)
		fb.mu.Unlock()
		for _, w := range ws {
			select {
			case w <- f.Src:
			default:
			}
		}
	}
	return true
}

// encodeFrame lays a message out as kind ∥ dest ∥ reply ∥ sig ∥ payload.
func encodeFrame(kind byte, msg Message) []byte {
	buf := make([]byte, headerSize+len(msg.Payload))
	buf[0] = kind
	putPort(buf[1:7], msg.Dest)
	putPort(buf[7:13], msg.Reply)
	putPort(buf[13:19], msg.Sig)
	copy(buf[headerSize:], msg.Payload)
	return buf
}

func decodeFrame(buf []byte) (byte, Message, error) {
	if len(buf) < headerSize {
		return 0, Message{}, fmt.Errorf("%w: %d bytes", ErrBadFrame, len(buf))
	}
	return buf[0], Message{
		Dest:    getPort(buf[1:7]),
		Reply:   getPort(buf[7:13]),
		Sig:     getPort(buf[13:19]),
		Payload: buf[headerSize:],
	}, nil
}

func putPort(dst []byte, p Port) {
	binary.BigEndian.PutUint16(dst[0:], uint16(p>>32))
	binary.BigEndian.PutUint32(dst[2:], uint32(p))
}

func getPort(src []byte) Port {
	return Port(binary.BigEndian.Uint16(src[0:]))<<32 | Port(binary.BigEndian.Uint32(src[2:]))
}
