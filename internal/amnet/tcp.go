package amnet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"amoeba/internal/wire"
)

// TCPNet implements NIC over real TCP, for multi-process clusters run
// by cmd/amoebad. A static registry maps every MachineID to a TCP
// address; each machine listens on its own address and dials peers on
// demand, caching connections. Broadcast is sent peer-by-peer (the
// paper notes LOCATE can be "carried out efficiently, even in a
// network without broadcasting").
//
// Connections carry frames one way. Each outbound connection belongs
// to a lane: a goroutine that owns every write to it, so a send is an
// append to the lane's queue and whatever queued while the previous
// write was in the kernel leaves in one writev. Each inbound
// connection belongs to a reader that parses every frame one read
// returned before it reads again, handing each to the receiver on its
// own goroutine; a frame to this machine itself reaches the receiver on
// the sender's goroutine. Neither holds a lock shared with another
// connection while it is in the kernel, nor while the receiver runs.
//
// Source addresses: a frame's claimed Src is accepted only if the
// remote host matches the registry entry for that Src, approximating
// the unforgeable hardware source of §2.4 (host granularity: processes
// sharing a host could impersonate one another; real deployments want
// per-machine hosts, as in the paper).
type TCPNet struct {
	id MachineID
	ln net.Listener

	// peers is the registry, copy-on-write: the read loops check every
	// inbound frame's source against it without a lock; SetPeer
	// publishes a fresh map under mu.
	peers atomic.Pointer[map[MachineID]tcpPeer]

	// mu guards the connection tables and closed. It is never held
	// across a socket call or a call to the receiver.
	mu       sync.Mutex
	lanes    map[MachineID]*tcpLane
	accepted map[net.Conn]struct{}
	closed   bool

	recv  atomic.Pointer[func(Frame) bool]
	in    chan Frame     // the default receiver's queue, closed by Close
	wg    sync.WaitGroup // acceptLoop, every readLoop, every lane, every loopback delivery
	stats tcpCounters
}

var _ NIC = (*TCPNet)(nil)

const (
	// tcpMagic guards against cross-protocol noise.
	tcpMagic = 0xA0EB
	// tcpHdrLen is the transport header: magic, source, destination,
	// payload length.
	tcpHdrLen = 14
	// tcpQueue is how many frames wait in a lane behind the write in
	// progress, and on the Recv queue of a NIC with the default
	// receiver. Past it frames drop, as on SimNet.
	tcpQueue = 256
	// tcpReadBuf is each reader's buffer: a read returns up to this
	// many bytes of small frames at once; a larger payload is read
	// straight into its pooled buffer.
	tcpReadBuf = 8 << 10
	// tcpDialTimeout bounds a connect. A peer on the cluster's network
	// answers in well under a millisecond; a black-holed registry entry
	// must not hold a LOCATE broadcast for the kernel's two minutes.
	tcpDialTimeout = 500 * time.Millisecond
	// tcpCloseFlush bounds how long Close waits for queued frames to
	// reach a peer that has stopped reading.
	tcpCloseFlush = time.Second
)

// TCPStats counts one machine's transport activity. Frames per call is
// the coalescing the lanes and the buffered readers achieve.
type TCPStats struct {
	FramesOut   uint64 // frames written to peers' sockets
	WriteCalls  uint64 // write and writev calls that carried them
	FramesIn    uint64 // frames read from peers' sockets, forgeries excluded
	ReadCalls   uint64 // read calls that returned them
	LaneDropped uint64 // outbound frames dropped at a full lane
	InDropped   uint64 // frames, from a socket or looped back, the receiver dropped at a full queue: Recv's, or an F-box listener's
}

type tcpCounters struct {
	framesOut, writeCalls, framesIn, readCalls, laneDropped, inDropped atomic.Uint64
}

// Stats returns a snapshot of the transport counters.
func (t *TCPNet) Stats() TCPStats {
	return TCPStats{
		FramesOut:   t.stats.framesOut.Load(),
		WriteCalls:  t.stats.writeCalls.Load(),
		FramesIn:    t.stats.framesIn.Load(),
		ReadCalls:   t.stats.readCalls.Load(),
		LaneDropped: t.stats.laneDropped.Load(),
		InDropped:   t.stats.inDropped.Load(),
	}
}

// ParseRegistry reads the cluster map the commands take on their
// command lines: "id=host:port,id=host:port,…" (blanks around entries
// and empty entries ignored).
func ParseRegistry(s string) (map[MachineID]string, error) {
	out := make(map[MachineID]string)
	for _, pair := range strings.Split(s, ",") {
		if pair = strings.TrimSpace(pair); pair == "" {
			continue
		}
		id, addr, ok := strings.Cut(pair, "=")
		if !ok {
			return nil, fmt.Errorf("bad registry entry %q (want id=host:port)", pair)
		}
		n, err := strconv.ParseUint(id, 10, 32)
		if err != nil {
			return nil, fmt.Errorf("bad machine id %q: %w", id, err)
		}
		out[MachineID(n)] = addr
	}
	if len(out) == 0 {
		return nil, errors.New("empty registry")
	}
	return out, nil
}

// NewTCPNet attaches machine id to the cluster described by registry
// (MachineID → "host:port"). The registry must contain id; its entry
// is listened on. Registry entries with port 0 pick an ephemeral port;
// Addr reports the actual address.
func NewTCPNet(id MachineID, registry map[MachineID]string) (*TCPNet, error) {
	addr, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("amnet: machine %v not in registry", id)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("amnet: listen %s: %w", addr, err)
	}
	peers := make(map[MachineID]tcpPeer, len(registry))
	for k, v := range registry {
		peers[k] = resolvePeer(v)
	}
	peers[id] = resolvePeer(ln.Addr().String())
	t := &TCPNet{
		id:       id,
		ln:       ln,
		lanes:    make(map[MachineID]*tcpLane),
		accepted: make(map[net.Conn]struct{}),
		in:       make(chan Frame, tcpQueue),
	}
	t.SetReceiver(func(f Frame) bool { return offer(t.in, f) }) // the Recv queue
	t.peers.Store(&peers)
	t.wg.Add(1)
	go t.acceptLoop()
	return t, nil
}

// ID implements NIC.
func (t *TCPNet) ID() MachineID { return t.id }

// Addr returns the address this machine actually listens on.
func (t *TCPNet) Addr() string { return t.ln.Addr().String() }

// SetPeer updates (or adds) a peer's address, for clusters whose
// members bind ephemeral ports and learn each other's addresses after
// startup. The cached connection to the peer is dropped, and with it
// whatever its lane had not yet written.
func (t *TCPNet) SetPeer(id MachineID, addr string) {
	t.mu.Lock()
	old := *t.peers.Load()
	peers := make(map[MachineID]tcpPeer, len(old)+1)
	for k, v := range old {
		peers[k] = v
	}
	peers[id] = resolvePeer(addr)
	t.peers.Store(&peers)
	l := t.lanes[id]
	delete(t.lanes, id)
	t.mu.Unlock()
	if l != nil {
		l.retire()
		l.conn.Close() // fails the lane's write, if one is in progress
	}
}

// Registry returns a copy of the cluster map with this machine's
// resolved address.
func (t *TCPNet) Registry() map[MachineID]string {
	peers := *t.peers.Load()
	out := make(map[MachineID]string, len(peers))
	for k, v := range peers {
		out[k] = v.addr
	}
	return out
}

// Send implements NIC.
func (t *TCPNet) Send(dst MachineID, payload []byte) error {
	if len(payload) > MTU {
		return fmt.Errorf("%w: %d bytes", ErrTooLarge, len(payload))
	}
	if dst == BroadcastID {
		// Straight to the fan-out: broadcast copies per recipient
		// anyway, so wrapping payload in a pooled buffer first would
		// only add a copy.
		return t.broadcast(payload)
	}
	return t.SendBuf(dst, wire.NewFrom(payload))
}

// SendBuf implements NIC: the 14-byte transport header is prepended in
// b's headroom and b is queued on the lane of dst's connection, which
// writes header and payload from the same backing array and releases b
// when that write has returned.
func (t *TCPNet) SendBuf(dst MachineID, b *wire.Buf) error {
	if b.Len() > MTU {
		b.Release()
		return fmt.Errorf("%w: %d bytes", ErrTooLarge, b.Len())
	}
	if dst == BroadcastID {
		err := t.broadcast(b.Bytes())
		b.Release()
		return err
	}
	if dst == t.id {
		t.loopbackBuf(b)
		return nil
	}
	return t.sendTo(dst, b)
}

// Broadcast implements NIC.
func (t *TCPNet) Broadcast(payload []byte) error { return t.Send(BroadcastID, payload) }

// broadcast is best-effort, like a real broadcast medium: peers that
// are down simply miss the frame. Unlike the simulated LAN, the frame
// is also delivered locally — a TCP "machine" is a whole daemon, and
// services inside it (the flat file server locating a co-resident
// block server) must be reachable by broadcast too.
func (t *TCPNet) broadcast(payload []byte) error {
	t.loopbackBuf(wire.NewFrom(payload))
	for id := range *t.peers.Load() {
		if id != t.id {
			_ = t.sendTo(id, wire.NewFrom(payload))
		}
	}
	return nil
}

// loopbackBuf owns b: it is handed to the receiver, on the sender's
// goroutine, or released. The delivery joins t.wg under t.mu but runs
// after it is released: a daemon's LOCATE of a service it hosts itself
// is answered by a receiver that sends back through here.
func (t *TCPNet) loopbackBuf(b *wire.Buf) {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		b.Release()
		return
	}
	t.wg.Add(1)
	t.mu.Unlock()
	defer t.wg.Done()
	t.deliver(Frame{Src: t.id, Dst: t.id, Payload: b.Bytes(), Buf: b})
}

// deliver hands f to the receiver, counting a frame it dropped. The
// caller is in t.wg, so Close cannot close t.in under the default
// receiver.
func (t *TCPNet) deliver(f Frame) {
	if !(*t.recv.Load())(f) {
		t.stats.inDropped.Add(1)
	}
}

// putTCPHeader fills the transport header of a frame from src to dst
// carrying n payload bytes.
func putTCPHeader(hdr []byte, src, dst MachineID, n int) {
	binary.BigEndian.PutUint16(hdr[0:], tcpMagic)
	binary.BigEndian.PutUint32(hdr[2:], uint32(src))
	binary.BigEndian.PutUint32(hdr[6:], uint32(dst))
	binary.BigEndian.PutUint32(hdr[10:], uint32(n))
}

// sendTo owns b; the transport header goes into b's headroom so header
// and payload leave from one backing array. Only finding the lane can
// fail here — no route, a failed dial, a closed NIC; what happens to
// the frame after it is queued is the network's business, as on a LAN.
func (t *TCPNet) sendTo(dst MachineID, b *wire.Buf) error {
	n := b.Len()
	putTCPHeader(b.Prepend(tcpHdrLen), t.id, dst, n)
	for {
		l, err := t.lane(dst)
		if err != nil {
			b.Release()
			return err
		}
		switch l.enqueue(b) {
		case laneFull:
			t.stats.laneDropped.Add(1)
			b.Release()
			return nil
		case laneQueued:
			return nil
		}
		// The lane retired between the lookup and the enqueue (SetPeer,
		// a write error). It left the cache before it was marked, so
		// the next lookup dials afresh or finds the NIC closed.
	}
}

// lane returns the lane of the cached connection to dst, dialling one
// if there is none.
func (t *TCPNet) lane(dst MachineID) (*tcpLane, error) {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil, ErrClosed
	}
	if l, ok := t.lanes[dst]; ok {
		t.mu.Unlock()
		return l, nil
	}
	t.mu.Unlock()
	p, ok := (*t.peers.Load())[dst]
	if !ok {
		return nil, fmt.Errorf("%w: %v", ErrNoRoute, dst)
	}
	c, err := net.DialTimeout("tcp", p.addr, tcpDialTimeout)
	if err != nil {
		return nil, fmt.Errorf("amnet: dial %v (%s): %w", dst, p.addr, err)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		c.Close()
		return nil, ErrClosed
	}
	if existing, ok := t.lanes[dst]; ok {
		c.Close()
		return existing, nil
	}
	l := &tcpLane{dst: dst, conn: c, wake: make(chan struct{}, 1)}
	t.lanes[dst] = l
	t.wg.Add(1)
	go t.runLane(l)
	return l, nil
}

// tcpLane is one outbound connection and the queue of frames waiting
// to be written to it. Senders append under mu; the lane's goroutine
// is the only writer of conn.
type tcpLane struct {
	dst  MachineID
	conn net.Conn
	// wake holds a token while the lane has something to look at: the
	// queue left empty, or the lane was retired.
	wake chan struct{}

	mu      sync.Mutex
	q       []*wire.Buf // headers already prepended, in send order
	retired bool        // no further frames are accepted

	// vecs is the lane goroutine's reusable writev vector; out is the
	// view of it that net.Buffers consumes.
	vecs [][]byte
	out  net.Buffers
}

type laneResult int

const (
	laneQueued laneResult = iota
	laneFull
	laneRetired
)

// enqueue takes b only when it returns laneQueued.
func (l *tcpLane) enqueue(b *wire.Buf) laneResult {
	l.mu.Lock()
	if l.retired {
		l.mu.Unlock()
		return laneRetired
	}
	if len(l.q) >= tcpQueue {
		l.mu.Unlock()
		return laneFull
	}
	l.q = append(l.q, b)
	first := len(l.q) == 1
	l.mu.Unlock()
	if first {
		l.signal()
	}
	return laneQueued
}

func (l *tcpLane) signal() {
	select {
	case l.wake <- struct{}{}:
	default:
	}
}

// retire stops l accepting frames; its goroutine writes what is
// already queued and exits.
func (l *tcpLane) retire() {
	l.mu.Lock()
	l.retired = true
	l.mu.Unlock()
	l.signal()
}

// runLane writes l's queue to its connection until l is retired or a
// write fails.
func (t *TCPNet) runLane(l *tcpLane) {
	defer t.wg.Done()
	defer l.conn.Close()
	var batch []*wire.Buf
	for range l.wake {
		// Every sender that is already runnable gets to enqueue before
		// the queue is taken. On one processor the lane, woken by the
		// first reply, would otherwise run before the second worker
		// has replied and write each frame alone.
		runtime.Gosched()
		l.mu.Lock()
		batch, l.q = l.q, batch[:0]
		retired := l.retired
		l.mu.Unlock()
		err := t.writeFrames(l, batch)
		releaseAll(batch) // only now: the kernel has copied them
		if err != nil {
			// The connection is dead. Uncache it so the next send
			// dials again, and drop what queued behind the failed write.
			t.mu.Lock()
			if t.lanes[l.dst] == l {
				delete(t.lanes, l.dst)
			}
			t.mu.Unlock()
			l.mu.Lock()
			l.retired = true
			batch, l.q = l.q, nil
			l.mu.Unlock()
			releaseAll(batch)
			return
		}
		if retired {
			return // nothing was queued after the swap above
		}
	}
}

// writeFrames writes batch in one call: Write for one frame, writev for
// several.
func (t *TCPNet) writeFrames(l *tcpLane, batch []*wire.Buf) error {
	var err error
	switch len(batch) {
	case 0:
		return nil
	case 1:
		_, err = l.conn.Write(batch[0].Bytes())
	default:
		l.vecs = l.vecs[:0]
		for _, b := range batch {
			l.vecs = append(l.vecs, b.Bytes())
		}
		l.out = l.vecs
		_, err = l.out.WriteTo(l.conn)
	}
	t.stats.writeCalls.Add(1)
	if err == nil {
		t.stats.framesOut.Add(uint64(len(batch)))
	}
	return err
}

func releaseAll(bufs []*wire.Buf) {
	for i, b := range bufs {
		b.Release()
		bufs[i] = nil
	}
}

// Recv implements NIC.
func (t *TCPNet) Recv() <-chan Frame { return t.in }

// SetReceiver implements NIC.
func (t *TCPNet) SetReceiver(fn func(Frame) bool) { t.recv.Store(&fn) }

// Close implements NIC. Frames already queued on a lane are written
// before its socket closes, for at most tcpCloseFlush.
func (t *TCPNet) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	lanes := t.lanes
	t.lanes = nil
	for c := range t.accepted {
		c.Close()
	}
	t.mu.Unlock()
	deadline := time.Now().Add(tcpCloseFlush)
	for _, l := range lanes {
		l.retire()
		l.conn.SetWriteDeadline(deadline)
	}
	t.ln.Close()
	t.wg.Wait()
	close(t.in)
	return nil
}

func (t *TCPNet) acceptLoop() {
	defer t.wg.Done()
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			return // listener closed
		}
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			conn.Close()
			return
		}
		t.accepted[conn] = struct{}{}
		t.mu.Unlock()
		t.wg.Add(1)
		go t.readLoop(conn)
	}
}

// readLoop turns one inbound connection's byte stream into frames. It
// ends at the first read error or protocol violation; Close ends it by
// closing the connection.
func (t *TCPNet) readLoop(conn net.Conn) {
	defer t.wg.Done()
	defer func() {
		conn.Close()
		t.mu.Lock()
		delete(t.accepted, conn)
		t.mu.Unlock()
	}()
	remoteHost, _, _ := net.SplitHostPort(conn.RemoteAddr().String())
	remote := resolveHost(remoteHost)
	buf := make([]byte, tcpReadBuf)
	r, w := 0, 0 // buf[r:w] is read but not yet parsed
	for {
		// Parse every complete frame the last read returned.
		for w-r >= tcpHdrLen {
			hdr := buf[r : r+tcpHdrLen]
			if binary.BigEndian.Uint16(hdr[0:]) != tcpMagic {
				return // protocol violation: drop the connection
			}
			src := MachineID(binary.BigEndian.Uint32(hdr[2:]))
			dst := MachineID(binary.BigEndian.Uint32(hdr[6:]))
			size := binary.BigEndian.Uint32(hdr[10:])
			if size > MTU {
				return
			}
			n := int(size)
			have := w - r - tcpHdrLen
			if have < n && tcpHdrLen+n <= len(buf) {
				break // the rest of this frame fits in buf: read on
			}
			b := wire.Get(0, n)
			p := b.Extend(n)
			if have >= n {
				copy(p, buf[r+tcpHdrLen:])
				r += tcpHdrLen + n
			} else {
				// Larger than buf could ever hold: the remainder goes
				// from the socket straight into the pooled buffer.
				copy(p, buf[r+tcpHdrLen:w])
				r, w = 0, 0
				for have < n {
					m, err := conn.Read(p[have:])
					t.stats.readCalls.Add(1)
					if err != nil {
						b.Release()
						return
					}
					have += m
				}
			}
			if !t.sourcePlausible(src, remote) {
				b.Release() // forged source: drop the frame
				continue
			}
			t.stats.framesIn.Add(1) // before the consumer can see the frame
			t.deliver(Frame{Src: src, Dst: dst, Payload: b.Bytes(), Buf: b})
		}
		if r > 0 {
			w = copy(buf, buf[r:w])
			r = 0
		}
		m, err := conn.Read(buf[w:])
		t.stats.readCalls.Add(1)
		if err != nil {
			return
		}
		w += m
	}
}

// sourcePlausible checks the claimed source machine against the
// connection's remote host.
func (t *TCPNet) sourcePlausible(src MachineID, remote tcpHost) bool {
	p, ok := (*t.peers.Load())[src]
	if !ok || p.bad {
		return false
	}
	return p.wild || p.host.equal(remote)
}

// tcpPeer is one registry entry, its host resolved when the entry was
// set so the per-frame source check parses nothing.
type tcpPeer struct {
	addr string // "host:port", as dialled
	host tcpHost
	wild bool // wildcard listener: cannot pin a host
	bad  bool // unparsable address: no source is plausible
}

func resolvePeer(addr string) tcpPeer {
	host, _, err := net.SplitHostPort(addr)
	return tcpPeer{
		addr: addr,
		host: resolveHost(host),
		wild: host == "" || host == "0.0.0.0" || host == "::",
		bad:  err != nil,
	}
}

// tcpHost is a host as written plus, when that is an IP literal, the
// parsed address.
type tcpHost struct {
	name string
	ip   net.IP
}

func resolveHost(h string) tcpHost { return tcpHost{name: h, ip: net.ParseIP(h)} }

func (a tcpHost) equal(b tcpHost) bool {
	if a.name == b.name {
		return true
	}
	if a.ip != nil && b.ip != nil {
		// Loopback is loopback: 127.0.0.1 vs ::1 both mean "this host".
		return a.ip.Equal(b.ip) || a.ip.IsLoopback() && b.ip.IsLoopback()
	}
	return false
}

// ErrBadRegistry is returned by cluster helpers for malformed
// registries.
var ErrBadRegistry = errors.New("amnet: bad registry")
