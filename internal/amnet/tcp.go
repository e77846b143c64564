package amnet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"

	"amoeba/internal/wire"
)

// TCPNet implements NIC over real TCP, for multi-process clusters run
// by cmd/amoebad. A static registry maps every MachineID to a TCP
// address; each machine listens on its own address and dials peers on
// demand, caching connections. Broadcast is sent peer-by-peer (the
// paper notes LOCATE can be "carried out efficiently, even in a
// network without broadcasting").
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

	mu       sync.Mutex
	conns    map[MachineID]net.Conn
	accepted map[net.Conn]struct{}
	in       chan Frame
	closed   bool
	wg       sync.WaitGroup
}

var _ NIC = (*TCPNet)(nil)

// tcpMagic guards against cross-protocol noise.
const tcpMagic = 0xA0EB

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
		conns:    make(map[MachineID]net.Conn),
		accepted: make(map[net.Conn]struct{}),
		in:       make(chan Frame, 256),
	}
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
// startup. Existing cached connections to the peer are dropped.
func (t *TCPNet) SetPeer(id MachineID, addr string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	old := *t.peers.Load()
	peers := make(map[MachineID]tcpPeer, len(old)+1)
	for k, v := range old {
		peers[k] = v
	}
	peers[id] = resolvePeer(addr)
	t.peers.Store(&peers)
	if c, ok := t.conns[id]; ok {
		c.Close()
		delete(t.conns, id)
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
// b's headroom and the payload goes to the socket from the same
// backing array; b is released once written (or on any error path).
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

// loopbackBuf owns b: it is handed to the local queue or released.
func (t *TCPNet) loopbackBuf(b *wire.Buf) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		b.Release()
		return
	}
	select {
	case t.in <- Frame{Src: t.id, Dst: t.id, Payload: b.Bytes(), Buf: b}:
	default:
		b.Release()
	}
}

// sendTo owns b; the transport header goes into b's headroom so header
// and payload leave in one Write from one backing array.
func (t *TCPNet) sendTo(dst MachineID, b *wire.Buf) error {
	payloadLen := b.Len()
	conn, err := t.conn(dst)
	if err != nil {
		b.Release()
		return err
	}
	hdr := b.Prepend(14)
	binary.BigEndian.PutUint16(hdr[0:], tcpMagic)
	binary.BigEndian.PutUint32(hdr[2:], uint32(t.id))
	binary.BigEndian.PutUint32(hdr[6:], uint32(dst))
	binary.BigEndian.PutUint32(hdr[10:], uint32(payloadLen))
	t.mu.Lock()
	defer t.mu.Unlock()
	defer b.Release()
	if t.closed {
		return ErrClosed
	}
	if _, err := conn.Write(b.Bytes()); err != nil {
		delete(t.conns, dst)
		conn.Close()
		return fmt.Errorf("amnet: send to %v: %w", dst, err)
	}
	return nil
}

// conn returns a cached or fresh connection to dst.
func (t *TCPNet) conn(dst MachineID) (net.Conn, error) {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil, ErrClosed
	}
	if c, ok := t.conns[dst]; ok {
		t.mu.Unlock()
		return c, nil
	}
	t.mu.Unlock()
	p, ok := (*t.peers.Load())[dst]
	if !ok {
		return nil, fmt.Errorf("%w: %v", ErrNoRoute, dst)
	}
	c, err := net.Dial("tcp", p.addr)
	if err != nil {
		return nil, fmt.Errorf("amnet: dial %v (%s): %w", dst, p.addr, err)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		c.Close()
		return nil, ErrClosed
	}
	if existing, ok := t.conns[dst]; ok {
		c.Close()
		return existing, nil
	}
	t.conns[dst] = c
	return c, nil
}

// Recv implements NIC.
func (t *TCPNet) Recv() <-chan Frame { return t.in }

// Close implements NIC.
func (t *TCPNet) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	for _, c := range t.conns {
		c.Close()
	}
	t.conns = map[MachineID]net.Conn{}
	for c := range t.accepted {
		c.Close()
	}
	t.accepted = map[net.Conn]struct{}{}
	t.mu.Unlock()
	t.ln.Close()
	t.wg.Wait()
	t.mu.Lock()
	close(t.in)
	t.mu.Unlock()
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
	for {
		var hdr [14]byte
		if _, err := io.ReadFull(conn, hdr[:]); err != nil {
			return
		}
		if binary.BigEndian.Uint16(hdr[0:]) != tcpMagic {
			return // protocol violation: drop the connection
		}
		src := MachineID(binary.BigEndian.Uint32(hdr[2:]))
		dst := MachineID(binary.BigEndian.Uint32(hdr[6:]))
		n := binary.BigEndian.Uint32(hdr[10:])
		if n > MTU {
			return
		}
		b := wire.Get(0, int(n))
		if _, err := io.ReadFull(conn, b.Extend(int(n))); err != nil {
			b.Release()
			return
		}
		if !t.sourcePlausible(src, remote) {
			b.Release()
			continue // forged source: drop the frame
		}
		t.mu.Lock()
		closed := t.closed
		delivered := false
		if !closed {
			select {
			case t.in <- Frame{Src: src, Dst: dst, Payload: b.Bytes(), Buf: b}:
				delivered = true
			default:
			}
		}
		t.mu.Unlock()
		if !delivered {
			b.Release()
		}
		if closed {
			return
		}
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
