package rpc

import (
	"context"
	"testing"
	"time"

	"amoeba/internal/obs"
)

// echoAsync sends one echo-shaped request and returns the channel its
// outcome arrives on.
func echoAsync(r *testRig, op uint16, data string) chan error {
	done := make(chan error, 1)
	go func() {
		rep, err := r.client.Trans(context.Background(), r.server.PutPort(), Request{Op: op, Data: []byte(data)},
			WithTimeout(5*time.Second), WithRetries(0))
		if err == nil && rep.Status != StatusOK {
			err = rep.Status.Err()
		}
		if err == nil && string(rep.Data) != data {
			err = ErrBadMessage
		}
		done <- err
	}()
	return done
}

// quiesceAsync runs Quiesce on its own goroutine.
func quiesceAsync(s *Server) chan func() {
	q := make(chan func(), 1)
	go func() { q <- s.Quiesce() }()
	return q
}

// pending fails the test if ch yields within a short grace period.
func pending[T any](t *testing.T, ch chan T, what string) {
	t.Helper()
	select {
	case <-ch:
		t.Fatal(what)
	case <-time.After(100 * time.Millisecond):
	}
}

// arrives waits (bounded) for ch to yield.
func arrives[T any](t *testing.T, ch chan T, what string) T {
	t.Helper()
	select {
	case v := <-ch:
		return v
	case <-time.After(5 * time.Second):
		t.Fatal(what)
	}
	panic("unreachable")
}

// Quiesce returns only once a pool handler and an inline handler that
// were running when it was called have both replied.
func TestQuiesceWaitsForInflightHandlers(t *testing.T) {
	r := newPoolRig(t, 2)
	inPool, inInline := make(chan struct{}), make(chan struct{})
	releasePool, releaseInline := make(chan struct{}), make(chan struct{})
	r.server.Handle(0x41, func(_ context.Context, _ Meta, req Request) Reply {
		close(inPool)
		<-releasePool
		return OkReply(req.Data)
	})
	r.server.HandleInline(0x43, func(_ context.Context, _ Meta, req Request) Reply {
		close(inInline)
		<-releaseInline
		return OkReply(req.Data)
	})
	r.start(t)
	poolCall := echoAsync(r, 0x41, "pool")
	arrives(t, inPool, "the pool handler never started")
	inlineCall := echoAsync(r, 0x43, "inline")
	arrives(t, inInline, "the inline handler never started")

	q := quiesceAsync(r.server)
	pending(t, q, "Quiesce returned while a pool and an inline handler ran")
	close(releaseInline)
	if err := arrives(t, inlineCall, "the inline call never completed"); err != nil {
		t.Fatal(err)
	}
	pending(t, q, "Quiesce returned while a pool handler ran")
	close(releasePool)
	resume := arrives(t, q, "Quiesce never returned after both handlers replied")
	if err := arrives(t, poolCall, "the pool call never completed"); err != nil {
		t.Fatal(err)
	}
	resume()
}

// Requests that arrive while the server is quiesced wait in the
// listener — not executed, not shed — and are served after resume: a
// pool request and an inline one alike.
func TestQuiesceHoldsNewRequestsUntilResume(t *testing.T) {
	r := newPoolRig(t, 2)
	stats := obs.NewServerStats(obs.NewRegistry(), nil, "test", StatusName)
	r.server.SetObserver(stats)
	r.server.HandleInline(0x43, func(_ context.Context, _ Meta, req Request) Reply { return OkReply(req.Data) })
	r.start(t)
	resume := r.server.Quiesce()
	poolCall, inlineCall := echoAsync(r, OpEcho, "held"), echoAsync(r, 0x43, "inline")
	pending(t, poolCall, "a pool request was served while the server was quiesced")
	pending(t, inlineCall, "an inline request was served while the server was quiesced")
	resume()
	for _, call := range []chan error{poolCall, inlineCall} {
		if err := arrives(t, call, "a held request was never served after resume"); err != nil {
			t.Fatal(err)
		}
	}
	if n := stats.ShedCount(); n != 0 {
		t.Fatalf("quiesce shed %d requests, want 0", n)
	}
}

// A second Quiesce waits for the first one's resume.
func TestQuiesceTwiceRunsOneAfterTheOther(t *testing.T) {
	r := newPoolRig(t, 2)
	r.start(t)
	first := r.server.Quiesce()
	second := quiesceAsync(r.server)
	pending(t, second, "a second Quiesce returned before the first resumed")
	first()
	arrives(t, second, "the second Quiesce never returned after the first resumed")()
	if err := arrives(t, echoAsync(r, OpEcho, "after"), "no service after both resumed"); err != nil {
		t.Fatal(err)
	}
}

// Quiesce on a server whose dispatch loop is not running — never
// started, or closed — returns at once.
func TestQuiesceWithoutLoopReturnsAtOnce(t *testing.T) {
	r := newPoolRig(t, 2)
	arrives(t, quiesceAsync(r.server), "Quiesce on a server never started blocked")()
	r.start(t)
	if err := r.server.Close(); err != nil {
		t.Fatal(err)
	}
	arrives(t, quiesceAsync(r.server), "Quiesce on a closed server blocked")()
}
