package rpc

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"amoeba/internal/cap"
	"amoeba/internal/obs"
)

// occupyWorker parks one request in the server's (single-worker) pool
// and returns a release function plus a channel that yields the
// occupying call's result.
func occupyWorker(t *testing.T, r *testRig, op uint16) (release func(), done chan error) {
	t.Helper()
	block := make(chan struct{})
	entered := make(chan struct{})
	var once sync.Once
	r.server.Handle(op, func(_ context.Context, _ Meta, _ Request) Reply {
		once.Do(func() { close(entered) })
		<-block
		return OkReply([]byte("held"))
	})
	r.start(t)
	done = make(chan error, 1)
	go func() {
		rep, err := r.client.Trans(context.Background(), r.server.PutPort(), Request{Op: op},
			WithTimeout(5*time.Second), WithRetries(0))
		if err == nil && rep.Status != StatusOK {
			err = rep.Status.Err()
		}
		done <- err
	}()
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("occupying request never reached the handler")
	}
	var releaseOnce sync.Once
	return func() { releaseOnce.Do(func() { close(block) }) }, done
}

// A budgeted request that cannot survive the current queue is refused
// with StatusOverload before touching the pool; an unbudgeted request
// is never deadline-shed.
func TestAdmissionShedsDoomedRequests(t *testing.T) {
	r := newPoolRig(t, 1)
	stats := obs.NewServerStats(obs.NewRegistry(), nil, "test", StatusName)
	r.server.SetObserver(stats)
	release, done := occupyWorker(t, r, 0x0001)
	defer release()

	// The pool is saturated (inflight == pool == 1); make the
	// smoothed queue wait say "a second" so any sane budget is doomed.
	r.server.ewmaWait.Store(int64(time.Second))

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	rep, err := r.client.Trans(ctx, r.server.PutPort(), Request{Op: OpEcho}, WithRetries(0))
	if err != nil {
		t.Fatalf("Trans: %v", err)
	}
	if rep.Status != StatusOverload {
		t.Fatalf("budgeted request got %v, want overload", rep.Status)
	}
	if got := stats.ShedCount(); got != 1 {
		t.Fatalf("shed count = %d, want 1", got)
	}

	// Same conditions, no deadline: the request must NOT be shed — it
	// queues behind the busy worker and completes once it frees up.
	unbudgeted := make(chan error, 1)
	go func() {
		rep, err := r.client.Trans(context.Background(), r.server.PutPort(),
			Request{Op: OpEcho, Data: []byte("x")}, WithTimeout(5*time.Second), WithRetries(0))
		if err == nil && rep.Status != StatusOK {
			err = rep.Status.Err()
		}
		unbudgeted <- err
	}()
	time.Sleep(20 * time.Millisecond) // let it reach (and pass) admission
	release()
	for i, ch := range []chan error{done, unbudgeted} {
		select {
		case err := <-ch:
			if err != nil {
				t.Fatalf("request %d: %v", i, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("request %d never completed", i)
		}
	}
	if got := stats.ShedCount(); got != 1 {
		t.Fatalf("shed count after unbudgeted request = %d, want still 1", got)
	}
}

// Drain sheds everything new while in-flight work runs to completion.
func TestDrainFinishesInflightAndShedsNew(t *testing.T) {
	r := newPoolRig(t, 1)
	release, done := occupyWorker(t, r, 0x0001)

	drained := make(chan struct{})
	go func() {
		r.server.Drain()
		close(drained)
	}()
	// Draining flips synchronously-enough for new arrivals; poll until
	// the server reports it rather than racing the goroutine.
	for !r.server.Draining() {
		time.Sleep(time.Millisecond)
	}

	_, err := r.client.Call(context.Background(), cap.Capability{Server: r.server.PutPort()}, OpEcho, nil, WithRetries(0))
	if !errors.Is(err, ErrOverload) {
		t.Fatalf("call during drain: %v, want ErrOverload", err)
	}
	select {
	case <-drained:
		t.Fatal("Drain returned while a request was still in flight")
	default:
	}

	release()
	if err := <-done; err != nil {
		t.Fatalf("in-flight request failed across drain: %v", err)
	}
	select {
	case <-drained:
	case <-time.After(5 * time.Second):
		t.Fatal("Drain never returned after in-flight work finished")
	}
}

// A shed must never burn the caller's whole deadline: against a
// draining (always-shedding) server, the client retries with bounded
// backoff and hands back ErrOverload with most of the budget unspent.
func TestOverloadRetryPreservesDeadline(t *testing.T) {
	r := newTestRig(t, cap.SchemeOneWay)
	stats := obs.NewServerStats(obs.NewRegistry(), nil, "test", StatusName)
	r.server.SetObserver(stats)
	r.start(t)
	r.server.Drain() // no in-flight work: returns at once, sheds forever after

	const deadline = 500 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	start := time.Now()
	_, err := r.client.Call(ctx, cap.Capability{Server: r.server.PutPort()}, OpEcho, nil)
	elapsed := time.Since(start)

	if !errors.Is(err, ErrOverload) {
		t.Fatalf("err = %v, want ErrOverload", err)
	}
	if elapsed > deadline/2 {
		t.Fatalf("shed burned %v of a %v deadline", elapsed, deadline)
	}
	// The rig default is 2 retries: the server must have seen (and
	// shed) all three attempts — proof the client did retry rather
	// than give up on the first refusal.
	if got := stats.ShedCount(); got != 3 {
		t.Fatalf("server shed %d requests, want 3 (initial + 2 retries)", got)
	}
}

// Request IDs ride the wire: handlers see the client-minted ID in
// Meta, and budgeted requests carry it in the context for nested RPC.
func TestRequestIDReachesHandler(t *testing.T) {
	r := newTestRig(t, cap.SchemeOneWay)
	type seen struct{ meta, ctx uint64 }
	got := make(chan seen, 1)
	r.server.Handle(0x0002, func(ctx context.Context, md Meta, _ Request) Reply {
		got <- seen{meta: md.ReqID, ctx: RequestIDFromContext(ctx)}
		return OkReply(nil)
	})
	r.start(t)

	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if _, err := r.client.Trans(ctx, r.server.PutPort(), Request{Op: 0x0002}); err != nil {
		t.Fatal(err)
	}
	s := <-got
	if s.meta == 0 {
		t.Fatal("Meta.ReqID is zero; the wire ID was lost")
	}
	if s.ctx != s.meta {
		t.Fatalf("context ID %d != Meta ID %d", s.ctx, s.meta)
	}

	// A handler-side client reuses the originating ID for nested RPC.
	nested := ContextWithRequestID(context.Background(), 424242)
	if id := r.client.requestID(nested, 0); id != 424242 {
		t.Fatalf("nested requestID = %d, want 424242", id)
	}
	// An explicit ID wins over everything.
	if id := r.client.requestID(nested, 7); id != 7 {
		t.Fatalf("explicit requestID = %d, want 7", id)
	}
	// Freshly minted IDs are distinct and nonzero.
	a := r.client.requestID(context.Background(), 0)
	b := r.client.requestID(context.Background(), 0)
	if a == 0 || b == 0 || a == b {
		t.Fatalf("minted IDs %d, %d", a, b)
	}
}
