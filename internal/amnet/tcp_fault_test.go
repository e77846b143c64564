package amnet

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"runtime"
	"testing"
	"time"

	"amoeba/internal/wire"
)

// Framing, fault and coalescing tests for the TCP transport. Every
// test in this file runs twice, the second time with the wire pool's
// poison-on-release armed: a lane that released a buffer before its
// write returned would put poison on the wire, the peer would see bad
// magic and drop the connection, and the frames the test waits for
// would never arrive. (The reset test runs armed only: wire.Live,
// which it checks for leaks, counts only then.)

func eachWireMode(t *testing.T, body func(t *testing.T)) {
	for _, debug := range []bool{false, true} {
		t.Run(fmt.Sprintf("wiredebug=%v", debug), func(t *testing.T) {
			wire.SetDebug(debug)
			defer wire.SetDebug(false)
			body(t)
		})
	}
}

// rawSrc is the machine the raw connections below claim to be. Its
// registry entry is on the loopback host, so frames from it pass the
// source check; nothing ever dials it.
const rawSrc MachineID = 2

// newRawTarget builds machine 1 and a raw TCP connection to it, over
// which a test writes transport frames byte by byte.
func newRawTarget(t *testing.T) (*TCPNet, *net.TCPConn) {
	t.Helper()
	a, err := NewTCPNet(1, map[MachineID]string{
		1:      "127.0.0.1:0",
		rawSrc: "127.0.0.1:1",
		3:      "elsewhere.invalid:9", // registered, but not where the raw connection comes from
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	c, err := net.Dial("tcp", a.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return a, c.(*net.TCPConn)
}

// rawFrame appends one transport frame to stream.
func rawFrame(stream []byte, src, dst MachineID, payload []byte) []byte {
	var hdr [tcpHdrLen]byte
	putTCPHeader(hdr[:], src, dst, len(payload))
	return append(append(stream, hdr[:]...), payload...)
}

// framingSizes are the payload lengths the framing tests draw from:
// empty, around the header length, small, and one byte either side of
// what fits in a reader's buffer, up to the MTU.
var framingSizes = []int{
	0, 1, tcpHdrLen - 1, tcpHdrLen, 64, 200, 1000,
	tcpReadBuf - tcpHdrLen - 1, tcpReadBuf - tcpHdrLen, tcpReadBuf - tcpHdrLen + 1,
	tcpReadBuf, 20000, MTU,
}

// checkFraming writes count frames drawn from seed to a TCPNet through
// a raw connection in randomly sized chunks — one byte, less than a
// header, a few frames at once — and requires the same frames out of
// Recv, in order. count must stay under the receive queue's length:
// nothing here waits for the consumer.
func checkFraming(t *testing.T, seed int64, count int) {
	a, conn := newRawTarget(t)
	rng := rand.New(rand.NewSource(seed))
	want := make([][]byte, count)
	var stream []byte
	for i := range want {
		size := framingSizes[rng.Intn(len(framingSizes))]
		if rng.Intn(3) == 0 {
			size = rng.Intn(300)
		}
		want[i] = make([]byte, size)
		rng.Read(want[i])
		stream = rawFrame(stream, rawSrc, 1, want[i])
	}
	wrote := make(chan error, 1)
	go func() {
		for len(stream) > 0 {
			var n int
			switch rng.Intn(4) {
			case 0:
				n = 1
			case 1:
				n = 1 + rng.Intn(tcpHdrLen)
			case 2:
				n = 1 + rng.Intn(400)
			default:
				n = 1 + rng.Intn(3*tcpReadBuf)
			}
			if n > len(stream) {
				n = len(stream)
			}
			if _, err := conn.Write(stream[:n]); err != nil {
				wrote <- err
				return
			}
			stream = stream[n:]
		}
		wrote <- nil
	}()
	for i, w := range want {
		f := recvWithin(t, a.Recv(), 10*time.Second)
		if f.Src != rawSrc || f.Dst != 1 || !bytes.Equal(f.Payload, w) {
			t.Fatalf("seed %d frame %d: got %v→%v %d bytes, want %v→1 %d bytes (or contents differ)",
				seed, i, f.Src, f.Dst, len(f.Payload), rawSrc, len(w))
		}
		f.Release()
	}
	if err := <-wrote; err != nil {
		t.Fatal(err)
	}
	if st := a.Stats(); st.FramesIn != uint64(count) || st.InDropped != 0 {
		t.Fatalf("seed %d: stats %+v after %d frames", seed, st, count)
	}
}

func TestTCPFramingSeeded(t *testing.T) {
	eachWireMode(t, func(t *testing.T) {
		for seed := int64(1); seed <= 8; seed++ {
			checkFraming(t, seed, 120)
		}
	})
}

func FuzzTCPFraming(f *testing.F) {
	f.Add(int64(1), uint8(1))
	f.Add(int64(0x5eed), uint8(40))
	f.Add(int64(-7), uint8(200))
	f.Fuzz(func(t *testing.T, seed int64, count uint8) {
		checkFraming(t, seed, int(count)%200+1)
	})
}

// waitFor polls cond, which reads state only the transport's own
// goroutines change, and fails the test if it stays false.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting until %s", what)
		}
	}
}

// waitReadersGone waits until a has no inbound connection left.
func waitReadersGone(t *testing.T, a *TCPNet) {
	t.Helper()
	waitFor(t, "every reader has ended", func() bool {
		a.mu.Lock()
		defer a.mu.Unlock()
		return len(a.accepted) == 0
	})
}

// TestTCPPeerResetMidFrame: a peer that resets after a header and half
// the payload ends its reader, and the pooled buffer the reader was
// filling goes back — for a frame that was waiting in the read buffer
// and for one being read straight into its Buf.
func TestTCPPeerResetMidFrame(t *testing.T) {
	for _, size := range []int{1000, 5 * tcpReadBuf} {
		t.Run(fmt.Sprint(size), func(t *testing.T) {
			wire.SetDebug(true) // Live counts only while armed
			defer wire.SetDebug(false)
			a, conn := newRawTarget(t)
			before := wire.Live()
			stream := rawFrame(nil, rawSrc, 1, make([]byte, size))
			if _, err := conn.Write(stream[:tcpHdrLen+size/2]); err != nil {
				t.Fatal(err)
			}
			waitFor(t, "the reader has the header", func() bool { return a.Stats().ReadCalls > 0 })
			conn.SetLinger(0) // close with RST, not FIN
			conn.Close()
			waitReadersGone(t, a)
			if after := wire.Live(); after != before {
				t.Fatalf("reader leaked %d wire.Buf", after-before)
			}
			select {
			case f := <-a.Recv():
				t.Fatalf("half a frame was delivered: %d bytes", len(f.Payload))
			default:
			}
		})
	}
}

// TestTCPProtocolViolationClosesConn: bad magic, or a length past the
// MTU, and the reader drops the connection — after delivering what
// preceded the violation in the same write.
func TestTCPProtocolViolationClosesConn(t *testing.T) {
	badMagic := rawFrame(nil, rawSrc, 1, []byte("x"))
	badMagic[0] ^= 0xff
	var tooLong [tcpHdrLen]byte
	putTCPHeader(tooLong[:], rawSrc, 1, MTU+1)
	for name, bad := range map[string][]byte{"magic": badMagic, "length": tooLong[:]} {
		t.Run(name, func(t *testing.T) {
			eachWireMode(t, func(t *testing.T) {
				a, conn := newRawTarget(t)
				if _, err := conn.Write(append(rawFrame(nil, rawSrc, 1, []byte("good")), bad...)); err != nil {
					t.Fatal(err)
				}
				if f := recvWithin(t, a.Recv(), 2*time.Second); string(f.Payload) != "good" {
					t.Fatalf("frame before the violation: %q", f.Payload)
				}
				conn.SetReadDeadline(time.Now().Add(5 * time.Second))
				if _, err := conn.Read(make([]byte, 1)); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
					t.Fatalf("connection not closed after the violation: %v", err)
				}
				waitReadersGone(t, a)
			})
		})
	}
}

// TestTCPForgedSourceSandwiched: three frames in one write, the middle
// one claiming a source the connection cannot be — an unregistered
// machine, then one registered on another host. The forgery is
// dropped; its neighbours, parsed from the same read, are delivered.
func TestTCPForgedSourceSandwiched(t *testing.T) {
	eachWireMode(t, func(t *testing.T) {
		for _, forged := range []MachineID{77, 3} {
			a, conn := newRawTarget(t)
			stream := rawFrame(nil, rawSrc, 1, []byte("first"))
			stream = rawFrame(stream, forged, 1, []byte("forged"))
			stream = rawFrame(stream, rawSrc, 1, []byte("last"))
			if _, err := conn.Write(stream); err != nil {
				t.Fatal(err)
			}
			for _, want := range []string{"first", "last"} {
				f := recvWithin(t, a.Recv(), 2*time.Second)
				if f.Src != rawSrc || string(f.Payload) != want {
					t.Fatalf("forged source %v: got %q from %v, want %q", forged, f.Payload, f.Src, want)
				}
			}
		}
	})
}

// blast has senders goroutines each send perSender numbered frames
// from a to b, and checks that b receives every one, each sender's in
// the order sent. The transport drops at a full queue by design, so
// each sender keeps at most window frames unreceived; senders×window
// stays under tcpQueue.
func blast(t *testing.T, a, b *TCPNet, senders, perSender, window int) {
	t.Helper()
	credits := make([]chan struct{}, senders)
	sent := make(chan error, senders) // one result per sender
	for s := range credits {
		credits[s] = make(chan struct{}, window)
		for i := 0; i < window; i++ {
			credits[s] <- struct{}{}
		}
		go func(s int) {
			for i := 0; i < perSender; i++ {
				<-credits[s]
				if err := a.Send(b.ID(), []byte{byte(s), byte(i >> 8), byte(i)}); err != nil {
					sent <- fmt.Errorf("sender %d frame %d: %w", s, i, err)
					return
				}
			}
			sent <- nil
		}(s)
	}
	next := make([]int, senders)
	for got := 0; got < senders*perSender; got++ {
		f := recvWithin(t, b.Recv(), 10*time.Second)
		s, i := int(f.Payload[0]), int(f.Payload[1])<<8|int(f.Payload[2])
		if i != next[s] {
			t.Fatalf("sender %d: frame %d arrived where %d was due", s, i, next[s])
		}
		next[s]++
		f.Release()
		credits[s] <- struct{}{}
	}
	for range credits {
		if err := <-sent; err != nil {
			t.Fatal(err)
		}
	}
	if sa, sb := a.Stats(), b.Stats(); sa.LaneDropped != 0 || sb.InDropped != 0 {
		t.Fatalf("frames dropped inside the window: sender %+v receiver %+v", sa, sb)
	}
}

func TestTCPManySendersOrdered(t *testing.T) {
	eachWireMode(t, func(t *testing.T) {
		a, b := newTCPPair(t)
		blast(t, a, b, 8, 1000, 16)
	})
}

// TestTCPNetCoalesces is the gate on what the lanes and buffered
// readers are for: on one processor with eight senders at once, frames
// must share write calls and read calls.
func TestTCPNetCoalesces(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	eachWireMode(t, func(t *testing.T) {
		a, b := newTCPPair(t)
		blast(t, a, b, 8, 500, 16)
		// The lane counts a batch once its write has returned, which the
		// receiver can beat.
		waitFor(t, "the sender has counted its last write", func() bool { return a.Stats().FramesOut == 8*500 })
		sa, sb := a.Stats(), b.Stats()
		if sa.WriteCalls >= sa.FramesOut {
			t.Errorf("sender did not coalesce: %d frames in %d write calls", sa.FramesOut, sa.WriteCalls)
		}
		if sb.FramesIn != 8*500 || sb.ReadCalls >= sb.FramesIn {
			t.Errorf("receiver did not coalesce: %d frames in %d read calls", sb.FramesIn, sb.ReadCalls)
		}
	})
}

// TestTCPNetSlowPeerDoesNotBlockOthers: machine 3 accepts and never
// reads. Once the kernel's buffers and then its lane are full, frames
// to it drop — and frames to machine 2 and to self still arrive at
// once, and Close still returns.
func TestTCPNetSlowPeerDoesNotBlockOthers(t *testing.T) {
	eachWireMode(t, func(t *testing.T) {
		stuck, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer stuck.Close()
		held := make(chan net.Conn, 1)
		go func() {
			if c, err := stuck.Accept(); err == nil {
				held <- c // kept open, never read
			}
		}()
		defer func() {
			select {
			case c := <-held:
				c.Close()
			default:
			}
		}()

		a, b := newTCPPair(t)
		a.SetPeer(3, stuck.Addr().String())
		big := make([]byte, 32<<10)
		for i := 0; a.Stats().LaneDropped == 0; i++ {
			if i > 20000 {
				t.Fatal("lane to the stuck peer never filled")
			}
			if err := a.Send(3, big); err != nil {
				t.Fatal(err)
			}
		}

		if err := a.Send(b.ID(), []byte("to b")); err != nil {
			t.Fatal(err)
		}
		if f := recvWithin(t, b.Recv(), time.Second); string(f.Payload) != "to b" {
			t.Fatalf("frame %q", f.Payload)
		}
		if err := a.Send(a.ID(), []byte("to self")); err != nil {
			t.Fatal(err)
		}
		if f := recvWithin(t, a.Recv(), time.Second); string(f.Payload) != "to self" {
			t.Fatalf("frame %q", f.Payload)
		}

		closed := make(chan struct{})
		go func() { a.Close(); close(closed) }()
		select {
		case <-closed:
		case <-time.After(tcpCloseFlush + 5*time.Second):
			t.Fatal("Close did not return with a lane blocked on a peer that never reads")
		}
	})
}

// TestTCPCloseFlushesQueuedFrames: frames accepted by SendBuf before
// Close reach the peer, though Close began before the lane wrote them.
func TestTCPCloseFlushesQueuedFrames(t *testing.T) {
	eachWireMode(t, func(t *testing.T) {
		a, b := newTCPPair(t)
		const count = 100
		for i := 0; i < count; i++ {
			if err := a.Send(b.ID(), []byte{byte(i)}); err != nil {
				t.Fatal(err)
			}
		}
		a.Close()
		for i := 0; i < count; i++ {
			if f := recvWithin(t, b.Recv(), 2*time.Second); f.Payload[0] != byte(i) {
				t.Fatalf("frame %d arrived where %d was due", f.Payload[0], i)
			}
		}
	})
}
