package amnet

import (
	"errors"
	"fmt"
	"net"
	"os"
	"syscall"
	"testing"
	"time"
)

// blackhole returns a loopback address on which a connect neither
// succeeds nor fails: a listener with a backlog of zero whose accept
// queue is already full, so the kernel drops further SYNs — what a
// registry entry pointing at a dead host looks like, without leaving
// this machine.
func blackhole(t *testing.T) string {
	t.Helper()
	fd, err := syscall.Socket(syscall.AF_INET, syscall.SOCK_STREAM, 0)
	if err != nil {
		t.Skipf("socket: %v", err)
	}
	t.Cleanup(func() { syscall.Close(fd) })
	if err := syscall.Bind(fd, &syscall.SockaddrInet4{Addr: [4]byte{127, 0, 0, 1}}); err != nil {
		t.Skipf("bind: %v", err)
	}
	if err := syscall.Listen(fd, 0); err != nil {
		t.Skipf("listen: %v", err)
	}
	sa, err := syscall.Getsockname(fd)
	if err != nil {
		t.Skipf("getsockname: %v", err)
	}
	addr := fmt.Sprintf("127.0.0.1:%d", sa.(*syscall.SockaddrInet4).Port)
	for i := 0; i < 8; i++ {
		c, err := net.DialTimeout("tcp", addr, 100*time.Millisecond)
		if errors.Is(err, os.ErrDeadlineExceeded) {
			return addr
		}
		if err != nil {
			t.Skipf("filling the accept queue: %v", err)
		}
		t.Cleanup(func() { c.Close() }) // holds its place in the queue
	}
	t.Skip("this kernel kept accepting past a zero backlog")
	return ""
}

// TestTCPBroadcastBoundedByDialTimeout: a listed peer that swallows
// SYNs costs a broadcast one bounded dial, not the kernel's connect
// timeout, and the peer that is there still hears it.
func TestTCPBroadcastBoundedByDialTimeout(t *testing.T) {
	hole := blackhole(t)
	a, b := newTCPPair(t)
	a.SetPeer(3, hole)
	start := time.Now()
	if err := a.Broadcast([]byte("hear ye")); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > tcpDialTimeout+time.Second {
		t.Fatalf("Broadcast took %v with one black-holed peer (dial bound %v)", took, tcpDialTimeout)
	}
	if f := recvWithin(t, b.Recv(), time.Second); string(f.Payload) != "hear ye" {
		t.Fatalf("frame %q", f.Payload)
	}
	// A unicast to the dead entry fails in the same bound, synchronously.
	start = time.Now()
	err := a.Send(3, []byte("x"))
	if err == nil || time.Since(start) > tcpDialTimeout+time.Second {
		t.Fatalf("send to a black hole: err %v after %v", err, time.Since(start))
	}
}
