package rpc

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"amoeba/internal/amnet"
	"amoeba/internal/cap"
	"amoeba/internal/crypto"
	"amoeba/internal/fbox"
	"amoeba/internal/locate"
)

func TestBatchEchoRoundTrip(t *testing.T) {
	ctx := context.Background()
	r := newTestRig(t, cap.SchemeOneWay)
	r.start(t)
	reqs := make([]Request, 10)
	for i := range reqs {
		reqs[i] = Request{Op: OpEcho, Data: []byte(fmt.Sprintf("item-%d", i))}
	}
	reps, err := r.client.Batch(ctx, r.server.PutPort(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != len(reqs) {
		t.Fatalf("got %d replies, want %d", len(reps), len(reqs))
	}
	for i, rep := range reps {
		if rep.Status != StatusOK || string(rep.Data) != fmt.Sprintf("item-%d", i) {
			t.Fatalf("reply %d out of order or failed: %+v", i, rep)
		}
	}
}

func TestBatchMixedStatuses(t *testing.T) {
	ctx := context.Background()
	r := newTestRig(t, cap.SchemeOneWay)
	r.start(t)
	owner, err := r.table.Create()
	if err != nil {
		t.Fatal(err)
	}
	forged := owner
	forged.Check ^= 1
	reqs := []Request{
		{Cap: owner, Op: OpValidate},
		{Cap: forged, Op: OpValidate},
		{Op: 0x7777}, // unregistered
		{Op: OpEcho, Data: []byte("ok")},
	}
	reps, err := r.client.Batch(ctx, r.server.PutPort(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	want := []Status{StatusOK, StatusBadCapability, StatusNoSuchOp, StatusOK}
	for i, rep := range reps {
		if rep.Status != want[i] {
			t.Errorf("item %d: status %v, want %v", i, rep.Status, want[i])
		}
	}
}

func TestBatchCarriesCapabilities(t *testing.T) {
	ctx := context.Background()
	r := newTestRig(t, cap.SchemeOneWay)
	r.start(t)
	owner, err := r.table.Create()
	if err != nil {
		t.Fatal(err)
	}
	reps, err := r.client.Batch(ctx, r.server.PutPort(), []Request{
		{Cap: owner, Op: OpRestrict, Data: []byte{byte(cap.RightRead)}},
		{Cap: owner, Op: OpRestrict, Data: []byte{byte(cap.RightWrite)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, wantRights := range []cap.Rights{cap.RightRead, cap.RightWrite} {
		if reps[i].Status != StatusOK {
			t.Fatalf("item %d: %+v", i, reps[i])
		}
		got, err := r.table.Validate(reps[i].Cap)
		if err != nil || got != wantRights {
			t.Fatalf("item %d: restricted cap validates to %v, %v", i, got, err)
		}
	}
}

func TestBatchRejectsNesting(t *testing.T) {
	ctx := context.Background()
	r := newTestRig(t, cap.SchemeOneWay)
	r.start(t)
	inner := EncodeBatchItems([][]byte{requestBytes(Request{Op: OpEcho})})
	_, err := r.client.Batch(ctx, r.server.PutPort(), []Request{{Op: OpBatch, Data: inner}})
	if !IsStatus(err, StatusBadRequest) {
		t.Fatalf("nested batch: %v", err)
	}
}

func TestBatchEmptyAndOversize(t *testing.T) {
	ctx := context.Background()
	r := newTestRig(t, cap.SchemeOneWay)
	r.start(t)
	reps, err := r.client.Batch(ctx, r.server.PutPort(), nil)
	if err != nil || reps != nil {
		t.Fatalf("empty batch: %v, %v", reps, err)
	}
	big := make([]Request, 2)
	for i := range big {
		big[i] = Request{Op: OpEcho, Data: make([]byte, MaxBatchBytes/2+1024)}
	}
	if _, err := r.client.Batch(ctx, r.server.PutPort(), big); err == nil {
		t.Fatal("oversize batch accepted")
	}
	many := make([]Request, MaxBatchItems+1)
	for i := range many {
		many[i] = Request{Op: OpEcho}
	}
	if _, err := r.client.Batch(ctx, r.server.PutPort(), many); err == nil {
		t.Fatal("over-count batch accepted")
	}
}

func TestBatchItemsCodec(t *testing.T) {
	items := [][]byte{[]byte("a"), {}, []byte("longer item")}
	got, err := DecodeBatchItems(EncodeBatchItems(items))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(items) {
		t.Fatalf("%d items", len(got))
	}
	for i := range items {
		if string(got[i]) != string(items[i]) {
			t.Fatalf("item %d: %q", i, got[i])
		}
	}
	for _, bad := range [][]byte{
		{},
		{0, 1},                                // count 1, no items
		{0, 1, 0, 0, 0, 9, 1},                 // truncated item
		append(EncodeBatchItems(items), 0xFF), // trailing bytes
	} {
		if _, err := DecodeBatchItems(bad); err == nil {
			t.Fatalf("malformed batch %v accepted", bad)
		}
	}
}

func TestHandleRefusesOpBatch(t *testing.T) {
	r := newTestRig(t, cap.SchemeOneWay)
	defer func() {
		if recover() == nil {
			t.Fatal("Handle(OpBatch) did not panic")
		}
	}()
	r.server.Handle(OpBatch, func(context.Context, Meta, Request) Reply { return Reply{} })
}

// TestBatchUnderSaturatedPool: a tiny pool filled entirely with
// batches still serves every one of them, each on its own worker.
func TestBatchUnderSaturatedPool(t *testing.T) {
	ctx := context.Background()
	r := newPoolRig(t, 2)
	r.start(t)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			reqs := make([]Request, 16)
			for i := range reqs {
				reqs[i] = Request{Op: OpEcho, Data: []byte{byte(g), byte(i)}}
			}
			reps, err := r.client.Batch(ctx, r.server.PutPort(), reqs, WithTimeout(5*time.Second), WithRetries(0))
			if err != nil {
				t.Errorf("goroutine %d: %v", g, err)
				return
			}
			for i, rep := range reps {
				if rep.Status != StatusOK || len(rep.Data) != 2 || rep.Data[0] != byte(g) || rep.Data[1] != byte(i) {
					t.Errorf("goroutine %d item %d: %+v", g, i, rep)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestBatchOccupiesOneWorker: a batch is one in-flight request, so it
// holds exactly one worker while its sub-requests run. With a pool of
// two and a batch stuck in its first sub-request, the second worker
// must still serve a plain request.
func TestBatchOccupiesOneWorker(t *testing.T) {
	ctx := context.Background()
	r := newPoolRig(t, 2)
	entered := make(chan struct{}, 2) // one per sub-request
	release := make(chan struct{})
	r.server.Handle(0x60, func(context.Context, Meta, Request) Reply {
		entered <- struct{}{}
		<-release
		return OkReply(nil)
	})
	r.start(t)
	var releaseOnce sync.Once
	defer releaseOnce.Do(func() { close(release) })

	batch := make(chan error, 1)
	go func() {
		_, err := r.client.Batch(ctx, r.server.PutPort(), []Request{{Op: 0x60}, {Op: 0x60}},
			WithTimeout(10*time.Second), WithRetries(0))
		batch <- err
	}()
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("batch never reached its first sub-request")
	}
	rep, err := r.client.Trans(ctx, r.server.PutPort(), Request{Op: OpEcho, Data: []byte("free")},
		WithTimeout(2*time.Second), WithRetries(0))
	if err != nil || rep.Status != StatusOK || string(rep.Data) != "free" {
		t.Fatalf("echo beside a held batch: %v %+v (the batch took more than one worker)", err, rep)
	}
	releaseOnce.Do(func() { close(release) })
	if err := <-batch; err != nil {
		t.Fatalf("batch: %v", err)
	}
}

// TestBatchRunsInOrder: a batch's sub-requests run one after another,
// in the order the frame carries them, even with idle workers to spare.
func TestBatchRunsInOrder(t *testing.T) {
	ctx := context.Background()
	r := newPoolRig(t, 4)
	var (
		running atomic.Int32
		mu      sync.Mutex
		order   []byte
	)
	r.server.Handle(0x61, func(_ context.Context, _ Meta, req Request) Reply {
		defer running.Add(-1)
		if running.Add(1) != 1 {
			return ErrReply(StatusServerError, "another sub-request of the batch is running")
		}
		mu.Lock()
		order = append(order, req.Data[0])
		mu.Unlock()
		time.Sleep(2 * time.Millisecond) // room for a concurrent sibling to show
		return OkReply(nil)
	})
	r.start(t)
	const n = 8
	reqs := make([]Request, n)
	for i := range reqs {
		reqs[i] = Request{Op: 0x61, Data: []byte{byte(i)}}
	}
	reps, err := r.client.Batch(ctx, r.server.PutPort(), reqs, WithTimeout(5*time.Second), WithRetries(0))
	if err != nil {
		t.Fatal(err)
	}
	for i, rep := range reps {
		if rep.Status != StatusOK {
			t.Errorf("item %d: %v %s", i, rep.Status, rep.Data)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(order) != n {
		t.Fatalf("%d of %d sub-requests ran alone", len(order), n)
	}
	for i, got := range order {
		if got != byte(i) {
			t.Fatalf("start order %v, want 0..%d", order, n-1)
		}
	}
}

// newPoolRig is newTestRig with an explicit MaxInflight.
func newPoolRig(t *testing.T, maxInflight int) *testRig {
	t.Helper()
	n := amnet.NewSimNet(amnet.SimConfig{})
	t.Cleanup(func() { n.Close() })
	attach := func() *fbox.FBox {
		nic, err := n.Attach()
		if err != nil {
			t.Fatal(err)
		}
		fb := fbox.New(nic, nil)
		t.Cleanup(func() { fb.Close() })
		return fb
	}
	r := &testRig{net: n, clientFB: attach(), serverFB: attach()}
	src := crypto.NewSeededSource(0x900F)
	r.server = NewServerWithConfig(r.serverFB, ServerConfig{Source: src, MaxInflight: maxInflight})
	scheme, err := cap.NewScheme(cap.SchemeOneWay)
	if err != nil {
		t.Fatal(err)
	}
	r.table = cap.NewTable(scheme, r.server.PutPort(), src)
	r.server.ServeTable(r.table, nil, nil)
	res := locate.New(r.clientFB, locate.Config{Timeout: 200 * time.Millisecond, Attempts: 3})
	r.client = NewClient(r.clientFB, res, ClientConfig{Timeout: 2 * time.Second, Retries: 2, Source: src})
	return r
}

// TestPoolBoundsConcurrency verifies MaxInflight is a hard ceiling on
// concurrently executing handlers.
func TestPoolBoundsConcurrency(t *testing.T) {
	ctx := context.Background()
	const limit = 3
	r := newPoolRig(t, limit)
	var cur, peak atomic.Int64
	release := make(chan struct{})
	r.server.Handle(0x42, func(_ context.Context, _ Meta, _ Request) Reply {
		n := cur.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		<-release
		cur.Add(-1)
		return OkReply(nil)
	})
	r.start(t)

	var wg sync.WaitGroup
	for i := 0; i < 12; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Long timeout: requests beyond the pool limit queue at the
			// listener until workers free up.
			_, err := r.client.Trans(ctx, r.server.PutPort(), Request{Op: 0x42},
				WithTimeout(10*time.Second), WithRetries(0))
			if err != nil {
				t.Error(err)
			}
		}()
	}
	// Let the pool fill, then let everything through.
	time.Sleep(300 * time.Millisecond)
	close(release)
	wg.Wait()
	if got := peak.Load(); got > limit {
		t.Fatalf("peak concurrency %d exceeds MaxInflight %d", got, limit)
	}
	if got := peak.Load(); got != limit {
		t.Fatalf("peak concurrency %d never reached MaxInflight %d", got, limit)
	}
}

// TestCloseWaitsForPool: Close returns only after every accepted
// request has replied, and the worker pool shuts down.
func TestCloseWaitsForPool(t *testing.T) {
	ctx := context.Background()
	r := newPoolRig(t, 2)
	started := make(chan struct{}, 8)
	var done atomic.Int32
	r.server.Handle(0x42, func(ctx context.Context, _ Meta, _ Request) Reply {
		started <- struct{}{}
		<-ctx.Done() // runs until Close cancels
		done.Add(1)
		return OkReply(nil)
	})
	r.start(t)
	for i := 0; i < 2; i++ {
		go r.client.Trans(ctx, r.server.PutPort(), Request{Op: 0x42}, WithTimeout(5*time.Second), WithRetries(0))
	}
	<-started
	<-started
	if err := r.server.Close(); err != nil {
		t.Fatal(err)
	}
	if got := done.Load(); got != 2 {
		t.Fatalf("Close returned with %d of 2 handlers finished", got)
	}
}

// TestBackpressureShedsExcessLoad: with a pool of 1 and a slow
// handler, a flood of one-shot requests must not spawn unbounded
// work — excess requests queue and then drop at the NIC; the server
// stays alive and serves afterwards.
func TestBackpressureShedsExcessLoad(t *testing.T) {
	ctx := context.Background()
	r := newPoolRig(t, 1)
	r.server.Handle(0x42, func(_ context.Context, _ Meta, _ Request) Reply {
		time.Sleep(10 * time.Millisecond)
		return OkReply(nil)
	})
	r.start(t)
	// Flood without waiting for replies.
	for i := 0; i < 600; i++ {
		_, _ = r.client.Trans(ctx, r.server.PutPort(), Request{Op: OpEcho},
			WithTimeout(10*time.Millisecond), WithRetries(0))
	}
	// The server must still answer.
	rep, err := r.client.Trans(ctx, r.server.PutPort(), Request{Op: OpEcho, Data: []byte("alive")},
		WithTimeout(5*time.Second))
	if err != nil || string(rep.Data) != "alive" {
		t.Fatalf("server unresponsive after flood: %v %+v", err, rep)
	}
}

// TestBatchReplyOverflowRejected: a batch whose packed replies would
// exceed the MTU must fail loudly with StatusBadRequest instead of
// being dropped on the wire (which would retry-loop forever).
func TestBatchReplyOverflowRejected(t *testing.T) {
	ctx := context.Background()
	r := newTestRig(t, cap.SchemeOneWay)
	big := make([]byte, 8<<10)
	r.server.Handle(0x50, func(context.Context, Meta, Request) Reply { return OkReply(big) })
	r.start(t)
	reqs := make([]Request, 20) // 20 × 8 KiB replies > MaxBatchBytes
	for i := range reqs {
		reqs[i] = Request{Op: 0x50}
	}
	_, err := r.client.Batch(ctx, r.server.PutPort(), reqs)
	if !IsStatus(err, StatusBadRequest) {
		t.Fatalf("oversize batch reply: %v", err)
	}
}
