package rpc

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"amoeba/internal/amnet"
	"amoeba/internal/crypto"
	"amoeba/internal/fbox"
	"amoeba/internal/locate"
)

// retryRig builds a client/server pair where the server's OpEcho
// handler is swappable, for driving the retry engine through specific
// status sequences.
func retryRig(t *testing.T, backoff time.Duration, retries int) (*Client, *Server, *atomic.Value) {
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
	clientFB, serverFB := attach(), attach()
	src := crypto.NewSeededSource(0x0E7)
	server := NewServer(serverFB, src)
	var handler atomic.Value // of func(Request) Reply
	handler.Store(func(req Request) Reply { return OkReply(req.Data) })
	server.Handle(OpEcho, func(_ context.Context, _ Meta, req Request) Reply {
		return handler.Load().(func(Request) Reply)(req)
	})
	if err := server.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { server.Close() })
	res := locate.New(clientFB, locate.Config{Timeout: 100 * time.Millisecond, Attempts: 2})
	client := NewClient(clientFB, res, ClientConfig{
		Timeout:      time.Second,
		Retries:      retries,
		RetryBackoff: backoff,
		Source:       src,
	})
	return client, server, &handler
}

// TestStaleRetryNoBackoff pins the "no backoff" promise on the
// StatusStale path: a stale-authority reply must trigger an immediate
// evict-and-re-locate, not a RetryBackoff sleep. The backoff is set to
// two seconds — absurdly larger than the sub-millisecond SimNet round
// trips — so an elapsed-time bound separates "slept" from "didn't"
// with a huge margin either way.
func TestStaleRetryNoBackoff(t *testing.T) {
	client, server, handler := retryRig(t, 2*time.Second, 4)
	var calls atomic.Int32
	handler.Store(func(req Request) Reply {
		if calls.Add(1) == 1 {
			return ErrReply(StatusStale, "deposed")
		}
		return OkReply(req.Data)
	})
	start := time.Now()
	rep, err := client.Trans(context.Background(), server.PutPort(), Request{Op: OpEcho, Data: []byte("x")})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("transaction failed: %v", err)
	}
	if rep.Status != StatusOK || string(rep.Data) != "x" {
		t.Fatalf("unexpected reply: %v %q", rep.Status, rep.Data)
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("server saw %d calls, want 2 (stale then retry)", got)
	}
	if elapsed >= time.Second {
		t.Fatalf("stale-authority retry took %v — the 2s RetryBackoff slept on a path that promises none", elapsed)
	}
}

// TestWrongShardRetryNoBackoff is the same pin for the StatusWrongShard
// path: a stale-map bounce refreshes and re-routes at once.
func TestWrongShardRetryNoBackoff(t *testing.T) {
	client, server, handler := retryRig(t, 2*time.Second, 4)
	var calls atomic.Int32
	handler.Store(func(req Request) Reply {
		if calls.Add(1) == 1 {
			return WrongShardReply(7)
		}
		return OkReply(req.Data)
	})
	start := time.Now()
	rep, err := client.Trans(context.Background(), server.PutPort(), Request{Op: OpEcho, Data: []byte("y")})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("transaction failed: %v", err)
	}
	if rep.Status != StatusOK || string(rep.Data) != "y" {
		t.Fatalf("unexpected reply: %v %q", rep.Status, rep.Data)
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("server saw %d calls, want 2 (wrong-shard then retry)", got)
	}
	if elapsed >= time.Second {
		t.Fatalf("wrong-shard retry took %v — the 2s RetryBackoff slept on a path that promises none", elapsed)
	}
}

// TestTimeoutRetryStillBacksOff guards the flip side of the backoff
// restructure: timeout retries are the wait-something-out case and must
// keep sleeping RetryBackoff.
func TestTimeoutRetryStillBacksOff(t *testing.T) {
	client, server, handler := retryRig(t, 120*time.Millisecond, 4)
	var calls atomic.Int32
	handler.Store(func(req Request) Reply {
		if calls.Add(1) == 1 {
			time.Sleep(300 * time.Millisecond) // past the attempt timeout below
		}
		return OkReply(req.Data)
	})
	start := time.Now()
	_, err := client.Trans(context.Background(), server.PutPort(), Request{Op: OpEcho},
		WithTimeout(100*time.Millisecond))
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("transaction failed: %v", err)
	}
	// One timed-out attempt (100ms) + one backoff (120ms) at minimum.
	if elapsed < 220*time.Millisecond {
		t.Fatalf("timed-out retry completed in %v — the RetryBackoff sleep is gone from the timeout path", elapsed)
	}
}

// TestWrongShardExhaustionDetail pins that a call exhausting its
// retries behind a churning shard map reports both generations — the
// server's and the client's at send time — instead of a blind status.
func TestWrongShardExhaustionDetail(t *testing.T) {
	client, server, handler := retryRig(t, 0, 1)
	handler.Store(func(Request) Reply { return WrongShardReply(42) })
	_, err := client.Trans(context.Background(), server.PutPort(), Request{Op: OpEcho})
	if err == nil {
		t.Fatal("exhausted wrong-shard call succeeded")
	}
	var se *StatusError
	if !errors.As(err, &se) || se.Status != StatusWrongShard {
		t.Fatalf("want StatusWrongShard error, got %v", err)
	}
	if !strings.Contains(se.Detail, "server map generation 42") || !strings.Contains(se.Detail, "client had 0") {
		t.Fatalf("wrong-shard exhaustion detail is blind: %q", se.Detail)
	}
}

// TestLocateBudgetRearmsOnAuthorityChange drives the exact sequence
// the one-shot locate budget used to lose: the call's only extra
// LOCATE round is burned early (nobody up yet — a promotion in
// progress), then a deposed old primary answers StatusStale (an
// authority change), the old primary drops off the network, and the
// successor appears only after one more failed broadcast. The
// authority change must re-arm the budget or the call dies with
// retries to spare — which is exactly what the one-shot version did.
func TestLocateBudgetRearmsOnAuthorityChange(t *testing.T) {
	n := amnet.NewSimNet(amnet.SimConfig{Latency: 2 * time.Millisecond})
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
	src := crypto.NewSeededSource(0xA17)
	clientFB := attach()
	res := locate.New(clientFB, locate.Config{Timeout: 80 * time.Millisecond, Attempts: 1})
	client := NewClient(clientFB, res, ClientConfig{
		Timeout:      250 * time.Millisecond,
		Retries:      100,
		RetryBackoff: 300 * time.Millisecond,
		Source:       src,
	})

	// The deposed old primary: it will answer every broadcast and reply
	// StatusStale to every request — but it is NOT up yet when the call
	// starts, so the first broadcast fails and burns the initial locate
	// budget (the promotion window the budget exists for).
	staleFB := attach()
	stale := NewServer(staleFB, src)
	var staleServed atomic.Int32
	stale.Handle(OpEcho, func(_ context.Context, _ Meta, _ Request) Reply {
		staleServed.Add(1)
		return ErrReply(StatusStale, "deposed")
	})
	t.Cleanup(func() { stale.Close() })
	port := stale.PutPort()

	done := make(chan error, 1)
	go func() {
		_, err := client.Trans(context.Background(), port, Request{Op: OpEcho})
		done <- err
	}()

	waitFor := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(20 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
			time.Sleep(time.Millisecond)
		}
	}

	// Phase 1: the first broadcast fails (nobody up) — initial locate
	// budget spent. The retry backs off 300ms, which is the window the
	// old primary comes up in.
	waitFor("first failed broadcast", func() bool { return res.Stats().Failures >= 1 })
	if err := stale.Start(); err != nil {
		t.Fatal(err)
	}

	// Phase 2: the client finds the old primary and gets StatusStale —
	// the authority change. Let a few stale cycles complete so the
	// evict-and-re-arm has definitely processed client-side (serve N's
	// reply may still be in flight when we observe it; serve N-1's has
	// been answered and acted on).
	waitFor("stale authority to answer repeatedly", func() bool { return staleServed.Load() >= 3 })

	// Phase 3: the old primary drops off the network (partition, not
	// close: in-flight frames die silently, like a crashed machine).
	// The next broadcast fails — the round the re-armed budget pays
	// for. The successor attaches only after that failure is observed,
	// so it is found by the round after, never the first.
	f0 := res.Stats().Failures
	n.Partition(clientFB.Machine(), staleFB.Machine())
	waitFor("a post-partition failed broadcast", func() bool { return res.Stats().Failures > f0 })
	succFB := attach()
	succ := NewServerWithConfig(succFB, ServerConfig{Port: stale.GetPort()})
	succ.Handle(OpEcho, func(_ context.Context, _ Meta, req Request) Reply { return OkReply(req.Data) })
	if err := succ.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { succ.Close() })

	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("call died despite retries to spare: %v", err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("call never completed")
	}
}
