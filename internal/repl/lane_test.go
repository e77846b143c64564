package repl

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"amoeba/internal/cap"
	"amoeba/internal/crypto"
	"amoeba/internal/locate"
	"amoeba/internal/rpc"
	"amoeba/internal/vdisk"
	"amoeba/internal/wal"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// holdShipInFlight cuts the primary off from standby i and starts one
// mutation, returning once its ship frame is on the (dead) wire: from
// then until the attempt times out, that standby has a data frame in
// flight. done reports the mutation's outcome.
func holdShipInFlight(t *testing.T, r *rig, g *groupRig, i int) (done <-chan error) {
	t.Helper()
	r.net.Partition(g.primaryFB.Machine(), g.backupFBs[i].Machine())
	before := g.ship.Stats().Frames
	ch := make(chan error, 1)
	go func() {
		_, err := r.client.Trans(context.Background(), g.primary.PutPort(),
			rpc.Request{Op: opInc, Data: []byte("held")}, rpc.WithTimeout(10*time.Second), rpc.WithRetries(0))
		ch <- err
	}()
	waitFor(t, "the ship frame to leave", func() bool { return g.ship.Stats().Frames > before })
	return ch
}

// TestLaneStopAbortsShipInFlight: Stop must not wait out a dead peer's
// attempt budget — it aborts the round's RPC, the sink (and the client
// behind it) is released, and a round that raced Stop sends nothing.
func TestLaneStopAbortsShipInFlight(t *testing.T) {
	const attempt = 2 * time.Second
	r := newRig(t)
	g := newGroupRig(t, r, 2, Options{
		LeaseTerm: time.Hour, GroupSize: 3, Term: 1,
		Timeout: attempt, Attempts: 8,
	})
	g.inc(t, r, "a", 1)
	peers := g.ship.peerList()
	done := holdShipInFlight(t, r, g, 0)

	start := time.Now()
	g.ship.Stop()
	if took := time.Since(start); took >= attempt {
		t.Fatalf("Stop took %v with a ship in flight; it must abort the attempt (timeout %v)", took, attempt)
	}
	select {
	case <-done: // acknowledged or refused — either way, released
	case <-time.After(attempt):
		t.Fatal("the commit behind the aborted ship never completed")
	}

	// A sink that raced Stop past its own stopped check ships nothing:
	// every target ends refused, and no frame leaves.
	frames := g.ship.Stats().Frames
	if acked, targets, err := g.ship.ship(batchRound, peers, [][]byte{{}}); acked != 0 || targets != len(peers) || !errors.Is(err, context.Canceled) {
		t.Fatalf("round after Stop: %d of %d acked, err %v; want none, context.Canceled", acked, targets, err)
	}
	if got := g.ship.Stats().Frames; got != frames {
		t.Fatalf("round after Stop sent %d frames", got-frames)
	}
	for i, p := range peers {
		if n := p.busy.Load(); n != 0 {
			t.Fatalf("peer %d left marked busy (%d) by finished rounds", i, n)
		}
	}
	// And the sink itself drops, counting what it did not ship.
	before := g.ship.Stats().Dropped
	g.ship.sink([]wal.Record{{Seq: 99, Data: []byte{1}}})
	if got := g.ship.Stats().Dropped; got != before+1 {
		t.Fatalf("sink after Stop: Dropped %d → %d, want +1", before, got)
	}
}

// TestLaneHeartbeatSkipsBusyLane: no heartbeat goes to a peer with a
// data frame in flight — the frame's own ack renews the grant — and
// none is queued to fire once the frame resolves.
func TestLaneHeartbeatSkipsBusyLane(t *testing.T) {
	const lt = 30 * time.Millisecond // heartbeat tick: 10ms
	r := newRig(t)
	g := newGroupRig(t, r, 1, Options{
		LeaseTerm: lt, GroupSize: 2, Term: 1,
		Timeout: 400 * time.Millisecond, Attempts: 8,
	})
	g.inc(t, r, "a", 1)
	waitFor(t, "an idle-lane heartbeat", func() bool { return g.ship.Stats().Heartbeats > 0 })

	done := holdShipInFlight(t, r, g, 0)
	busy := g.ship.Stats()
	time.Sleep(10 * lt / 3 * 2) // twenty ticks, every one finding the peer busy
	if got := g.ship.Stats(); got.Heartbeats != busy.Heartbeats || got.Frames != busy.Frames {
		t.Fatalf("heartbeats went out with a data frame in flight: %d → %d (frames %d → %d)",
			busy.Heartbeats, got.Heartbeats, busy.Frames, got.Frames)
	}

	r.net.Heal(g.primaryFB.Machine(), g.backupFBs[0].Machine())
	select {
	case <-done: // the RPC layer's retry lands the frame
	case <-time.After(5 * time.Second):
		t.Fatal("held ship never resolved after the link healed")
	}
	resolved := g.ship.Stats().Heartbeats
	if resolved > busy.Heartbeats+1 {
		t.Fatalf("%d heartbeats were queued behind the data frame", resolved-busy.Heartbeats)
	}
	waitFor(t, "heartbeats to resume to the idle peer", func() bool { return g.ship.Stats().Heartbeats > resolved })
}

// TestLaneBatchReachingNoLaneSeals: in group mode a committed batch that
// reaches no peer — every peer lost, or every peer dropped — missed its
// majority as surely as one that timed out, and must seal.
func TestLaneBatchReachingNoLaneSeals(t *testing.T) {
	for _, tc := range []struct {
		name  string
		empty func(g *groupRig)
	}{
		{"every peer lost", func(g *groupRig) {
			for _, p := range g.ship.peerList() {
				p.lost.Store(true)
			}
		}},
		{"every peer dropped", func(g *groupRig) {
			for _, rv := range g.recvs {
				g.ship.DropPeer(rv.Port())
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(t)
			g := newGroupRig(t, r, 2, Options{LeaseTerm: time.Hour, GroupSize: 3, Term: 1, Reprobe: time.Hour})
			g.inc(t, r, "a", 1)
			tc.empty(g)
			before := g.ship.Stats()
			g.inc(t, r, "orphan", 1) // commits locally, ships nowhere
			got := g.ship.Stats()
			if !got.Sealed || !errors.Is(g.ship.Fence(), ErrSealed) {
				t.Fatalf("unshipped batch did not seal: %+v, fence %v", got, g.ship.Fence())
			}
			if got.Dropped != before.Dropped+1 || got.Frames != before.Frames {
				t.Fatalf("want 1 dropped record and no frame: before %+v after %+v", before, got)
			}
		})
	}
}

// shipperGoroutines counts the goroutines the repl package has started
// in the whole process, and among them the heartbeat/reprobe loops,
// from the goroutine dump — exact, whatever else the test binary is
// running.
func shipperGoroutines() (all, loops int) {
	buf := make([]byte, 1<<20)
	dump := string(buf[:runtime.Stack(buf, true)])
	return strings.Count(dump, "created by amoeba/internal/repl."),
		strings.Count(dump, "repl.(*Shipper).every(")
}

// TestLaneLifecycleLeaksNothing: a shipper's only goroutines are its
// heartbeat and reprobe loops — none per peer, none per batch, however
// peers join (AttachGroup, AddPeer, a failed AddPeer) or leave (DropPeer)
// — and Stop leaves none behind.
func TestLaneLifecycleLeaksNothing(t *testing.T) {
	o := Options{
		LeaseTerm: 30 * time.Millisecond, GroupSize: 3, Term: 1,
		Timeout: 20 * time.Millisecond, Attempts: 2, Backoff: time.Millisecond,
	}
	onlyLoops := func(when string) {
		t.Helper()
		// Polled: a loop just started may not show in the dump yet.
		waitFor(t, when+": the 2 loops as the only repl goroutines", func() bool {
			all, loops := shipperGoroutines()
			return all == 2 && loops == 2
		})
	}
	none := func(when string) {
		t.Helper()
		if all, _ := shipperGoroutines(); all != 0 {
			t.Fatalf("%s: %d repl goroutines outlived Stop", when, all)
		}
	}
	r := newRig(t)
	g := newGroupRig(t, r, 2, o)
	g.inc(t, r, "a", 1)
	onlyLoops("attached, one batch shipped")
	g.ship.Stop()
	none("first shipper stopped")

	// A resolver that gives up fast: one AddPeer below targets a port
	// nobody serves.
	res := locate.New(g.primaryFB, locate.Config{Timeout: 10 * time.Millisecond, Attempts: 1})
	client := rpc.NewClient(g.primaryFB, res, rpc.ClientConfig{Source: crypto.NewSeededSource(11)})
	ship, err := AttachGroup(g.primary.Kernel, client, []cap.Port{g.recvs[0].Port(), g.recvs[1].Port()}, o)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ship.Stop)
	onlyLoops("attached")

	// A third standby joins; one that does not exist fails to.
	disk, err := vdisk.New(512, 256)
	if err != nil {
		t.Fatal(err)
	}
	blog, err := wal.Open(disk, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	fb := r.attach()
	b := newCounter(t, fb, blog, g.primary.GetPort())
	t.Cleanup(func() { b.Close() })
	recv := NewReceiver(fb, crypto.NewSeededSource(31), b.Kernel)
	if err := recv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { recv.Close() })
	if err := ship.AddPeer(recv.Port()); err != nil {
		t.Fatal(err)
	}
	if err := ship.AddPeer(0xDEAD); err == nil {
		t.Fatal("AddPeer to a port nobody serves succeeded")
	}
	g.inc(t, r, "b", 3)
	if got := b.get("b"); got != 3 {
		t.Fatalf("joined peer holds %d of 3 streamed records", got)
	}
	onlyLoops("three peers joined, one join failed")

	ship.DropPeer(g.recvs[0].Port())
	g.inc(t, r, "c", 2)
	if got := g.backups[0].get("c"); got != 0 {
		t.Fatalf("dropped peer still received %d records", got)
	}
	onlyLoops("one peer dropped")

	ship.Stop()
	none("second shipper stopped")
}

// TestLaneStoppedShipperRefusesJoin: Stop marks the shipper stopped before
// it cancels the context, and in that window a join (or a frame send)
// must still fail — an AddPeer answered with the not-yet-set ctx.Err()
// would report a standby joined that no sink feeds.
func TestLaneStoppedShipperRefusesJoin(t *testing.T) {
	r := newRig(t)
	g := newGroupRig(t, r, 2, Options{GroupSize: 3, Term: 1})
	g.ship.DropPeer(g.recvs[1].Port())
	p := g.ship.peerList()[0]
	// halt's first half, frozen: stopped is set, the context still live.
	g.ship.mu.Lock()
	g.ship.stopped.Store(true)
	g.ship.mu.Unlock()
	if err := g.ship.AddPeer(g.recvs[1].Port()); err == nil {
		t.Fatal("AddPeer on a stopped shipper reported success")
	}
	if err := g.ship.join(false, p); err == nil {
		t.Fatal("join on a stopped shipper reported success")
	}
	if acked, _, err := g.ship.ship(batchRound, []*peer{p}, g.ship.beat); acked != 0 || err == nil {
		t.Fatalf("a frame never sent counted as delivered (%d acked, err %v)", acked, err)
	}
}

// TestShipBacksOffBetweenAttempts: a peer whose sends fail at once (its
// machine left the network) spends its attempt budget one backoff pause
// apart, including the pause after its very first attempt — a round
// must not send to it again before that pause is over.
func TestShipBacksOffBetweenAttempts(t *testing.T) {
	const backoff = 40 * time.Millisecond
	r := newRig(t)
	g := newGroupRig(t, r, 1, Options{
		LeaseTerm: time.Hour, GroupSize: 2, Term: 1, Reprobe: time.Hour,
		Timeout: time.Second, Attempts: 3, Backoff: backoff,
	})
	g.inc(t, r, "a", 1) // the peer is located and live
	if err := g.backupFBs[0].Close(); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	acked, _, err := g.ship.ship(batchRound, g.ship.peerList(), g.ship.beat)
	took := time.Since(start)
	if acked != 0 || !errors.Is(err, ErrBackupLost) {
		t.Fatalf("round to a detached peer: %d acked, err %v; want 0, ErrBackupLost", acked, err)
	}
	if took < 2*backoff {
		t.Fatalf("3 attempts took %v, want at least the 2 backoff pauses between them (%v)", took, 2*backoff)
	}
}
