// Package amnet is the network substrate under the Amoeba stack: the
// broadcast LAN the paper assumes, with machines attached through NICs
// that stamp an unforgeable hardware source address on every frame
// ("in nearly all networks an intruder can forge nearly all parts of a
// message being sent except the source address, which is supplied by
// the network interface hardware", §2.4).
//
// Two implementations share one interface: SimNet, an in-memory network
// with configurable latency, loss and wiretaps (the paper's "building
// full of rooms with wall sockets"); and a TCP transport for running
// real multi-process clusters. The F-box (package fbox) interposes on a
// NIC as its receiver; the simulated network is the substitute for the
// paper's VLSI F-box placement — hosts built on this stack structurally
// cannot emit or receive a frame except through their F-box.
package amnet

import (
	"errors"
	"fmt"

	"amoeba/internal/clock"
	"amoeba/internal/wire"
)

// MachineID identifies a machine (a network attachment point). It is
// the "source machine" of §2.4: stamped by the network, not by the
// sender's software.
type MachineID uint32

// BroadcastID addresses a frame to every attached machine. LOCATE uses
// it to find which machine serves a port.
const BroadcastID MachineID = 0xffffffff

// MachineIDOf is n as a MachineID. An n wider than 32 bits, or
// BroadcastID itself, is an error: the wire would carry it as some
// other machine, or as every machine.
func MachineIDOf(n uint64) (MachineID, error) {
	if n >= uint64(BroadcastID) {
		return 0, fmt.Errorf("bad machine id %d: want a decimal below %d", n, uint64(BroadcastID))
	}
	return MachineID(n), nil
}

// String renders the machine id.
func (m MachineID) String() string {
	if m == BroadcastID {
		return "m*"
	}
	return fmt.Sprintf("m%d", uint32(m))
}

// Frame is the unit the wire carries.
type Frame struct {
	// Src is the hardware-stamped source machine. Receivers may trust
	// it exactly as far as the underlying network allows source
	// forgery (SimNet: only via an explicitly configured forging tap).
	Src MachineID
	// Dst is the destination machine, or BroadcastID.
	Dst MachineID
	// Payload is the frame body. Receivers must treat it as untrusted.
	Payload []byte
	// Buf, when non-nil, is the pooled buffer backing Payload. The
	// receiver owns it: call Release (or Frame.Release) once the
	// payload and everything aliasing it are done with. Releasing is
	// optional — an unreleased buffer is garbage-collected — but the
	// hot paths release, which is what keeps the pool warm.
	Buf *wire.Buf
}

// Release returns the frame's pooled buffer (if any) to the pool. The
// payload is invalid afterwards.
func (f Frame) Release() {
	if f.Buf != nil {
		f.Buf.Release()
	}
}

// NIC is one machine's network attachment.
type NIC interface {
	// ID returns this machine's address.
	ID() MachineID
	// Send transmits payload to dst. The network stamps this NIC's ID
	// as the frame source. The payload is copied; the caller keeps
	// ownership (see SendBuf for the zero-copy path).
	Send(dst MachineID, payload []byte) error
	// SendBuf transmits the contents of b to dst, taking ownership of
	// b: the network prepends any transport header it needs in b's
	// headroom, hands the same backing array to the receiver where it
	// can, and releases b when the frame leaves the machine. The
	// caller must not touch b afterwards, success or failure.
	//
	// A nil error means the network has the frame, not that it
	// arrived. On TCP it means the frame is queued behind the
	// connection's writes in progress: ErrTooLarge, ErrNoRoute, a
	// failed dial and ErrClosed are reported here; a later write error
	// or a full queue loses the frame silently, as a LAN would, and
	// Close writes what is still queued (for a bounded time) before it
	// closes the connection.
	SendBuf(dst MachineID, b *wire.Buf) error
	// Broadcast transmits payload to every attached machine. The
	// simulated LAN excludes the sender (hardware semantics); the TCP
	// transport includes it, because a TCP "machine" is a whole daemon
	// whose services must be able to LOCATE one another. Best effort:
	// unreachable peers just miss the frame.
	Broadcast(payload []byte) error
	// Recv returns the queue the default receiver fills: every inbound
	// frame until SetReceiver installs another receiver, none after.
	// Past its length (SimConfig.QueueLen on SimNet, 256 on TCP) frames
	// drop and count as overruns. It is closed when the NIC is closed or
	// detached.
	Recv() <-chan Frame
	// SetReceiver makes fn the receiver: every inbound frame is handed
	// to exactly one receiver, on the goroutine that carried it — the
	// sender's or a delivery timer's on SimNet, the connection's reader
	// or (loopback) the sender's on TCP. The contract, both ways:
	//   - fn runs concurrently with itself and must never block: an
	//     input it cannot take is dropped, as a full hardware queue
	//     drops it. It owns the frame on every path.
	//   - fn is never called with a NIC lock held, so it may send —
	//     to the frame's source, or to itself.
	//   - fn returns false only for a frame it dropped for want of
	//     room; the NIC counts that where it counts an overrun.
	// Install it before the machine's address is handed out: frames
	// that arrived earlier stay on the Recv queue.
	SetReceiver(fn func(Frame) (accepted bool))
	// Clock is the machine's time: everything built over the NIC reads
	// it, and nothing compares it with another machine's.
	Clock() clock.Clock
	// Close detaches the NIC. Further sends fail with ErrClosed. A
	// delivery already past the NIC may still reach the receiver.
	Close() error
}

// ErrClosed is returned by operations on a detached NIC.
var ErrClosed = errors.New("amnet: NIC closed")

// ErrNoRoute is returned when the destination machine is not attached.
var ErrNoRoute = errors.New("amnet: no route to machine")

// ErrTooLarge is returned when a payload exceeds the network MTU.
var ErrTooLarge = errors.New("amnet: payload exceeds MTU")

// MTU is the largest payload a frame may carry. Amoeba messages above
// this are rejected; the RPC layer documents the resulting request
// size limit (the paper's Amoeba used 32K transactions; we allow 64K
// plus headroom for headers).
const MTU = 1 << 17
