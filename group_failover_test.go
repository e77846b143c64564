// Replication-group tests that are not soaks (those are rows in
// soak_test.go): the split-brain guard across a failover and a chained
// second one, the lifecycle verbs' refusals, and the shipper goroutines
// a churn of shippers and peers must not leak. See EXPERIMENTS.md E21.
package amoeba

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestGroupLeaseSplitBrainGuard: split-brain is prevented by time
// plus quorum (the old primary's lease lapses before any standby's
// detector can fire, and stale terms bounce), NOT by exiling the dead
// machine — so after the failover the machine REJOINS as a standby and
// the group is whole again, with exactly one server ever behind the
// port.
func TestGroupLeaseSplitBrainGuard(t *testing.T) {
	cl := seeded(t, groupChaos, 0x5B12)
	w := newWorkload(t, cl, "directory", 0, 2, 0x5B12)
	w.mustWrite("pre")

	primary := killPrimary(t, cl, w.pick)
	waitForFailover(t, cl, primary, w.pick)
	// The successor serves the same port with the pre-crash state.
	w.lookup(w.home, "pre")
	w.mustWrite("post")

	// The old machine is NOT exiled: Restart re-integrates it as a fresh
	// standby (its divergent log tail discarded), and the group's epoch
	// has advanced so any stale stream of its would bounce.
	if err := cl.Restart(primary); err != nil {
		t.Fatalf("lease-guarded group refused re-integration: %v", err)
	}
	if _, standbys, term := group(cl, w.sh); len(standbys) != 2 || term < 2 {
		t.Fatalf("after re-integration: %d standbys (want 2), term %d (want ≥ 2)", len(standbys), term)
	}

	// Chained failover: the re-formed group survives killing the NEW
	// primary as well — the availability story end to end.
	next := killPrimary(t, cl, w.pick)
	waitForFailover(t, cl, next, w.pick)
	w.verify("two failovers")
}

// TestGroupLifecycleGuards: the lifecycle verbs refuse what makes no
// sense on a group (restarting a live member, draining a standby,
// restarting a dead primary ahead of its election), standby kills are
// absorbed without an election, and a killed standby rejoins via
// Restart.
func TestGroupLifecycleGuards(t *testing.T) {
	cl := seeded(t, groupChaos, 0x6A4E)
	m := cl.Machines()
	_, standbys, _ := group(cl, cl.shards["directory"][0])
	stMachine := standbys[0]

	if err := cl.Restart(m.Dirs); err == nil || !strings.Contains(err.Error(), "not down") {
		t.Fatalf("Restart of a live group primary: %v", err)
	}
	if err := cl.Restart(stMachine); err == nil || !strings.Contains(err.Error(), "not down") {
		t.Fatalf("Restart of a live standby: %v", err)
	}
	if err := cl.Drain(stMachine); err == nil || !strings.Contains(err.Error(), "standby") {
		t.Fatalf("Drain of a standby: %v", err)
	}
	if err := cl.Kill(m.Memory); err == nil || !strings.Contains(err.Error(), "killable") {
		t.Fatalf("Kill of a volatile service's machine: %v", err)
	}

	// Kill one standby: no election (the primary is fine), the group
	// keeps serving, and the standby's machine can rejoin.
	if err := cl.Kill(stMachine); err != nil {
		t.Fatal(err)
	}
	if err := cl.Kill(stMachine); err == nil || !strings.Contains(err.Error(), "already down") {
		t.Fatalf("double Kill of a standby: %v", err)
	}
	if got := cl.Machines().Dirs; got != m.Dirs {
		t.Fatal("killing a standby triggered an election")
	}
	w := newWorkload(t, cl, "directory", 0, 2, 0x6A4E)
	w.mustWrite("with a dead standby")
	if err := cl.Restart(stMachine); err != nil {
		t.Fatalf("killed standby could not rejoin: %v", err)
	}
	if _, standbys, _ := group(cl, cl.shards["directory"][0]); len(standbys) != 2 {
		t.Fatalf("group has %d standbys after standby re-integration, want 2", len(standbys))
	}
	w.mustWrite("after standby rejoin")
	w.verify("a standby's kill and rejoin")
}

// TestGroupLanesDoNotLeak: a shipper's goroutines are its heartbeat
// and reprobe loops, and the group's life is a churn of shippers and
// peers — Kill stops one, the election attaches a successor, Restart
// adds the corpse back as a peer. After five rounds of that and Close,
// no goroutine the repl package started may be left, and the process
// is back to the goroutines it had before the cluster booted.
func TestGroupLanesDoNotLeak(t *testing.T) {
	shipperGoroutines := func() int {
		buf := make([]byte, 4<<20)
		return strings.Count(string(buf[:runtime.Stack(buf, true)]), "created by amoeba/internal/repl.")
	}
	base := runtime.NumGoroutine()
	cl := testCluster(t, ClusterConfig{Seed: 0x1A9E, Replicas: 3, LeaseTerm: 150 * time.Millisecond})
	w := newWorkload(t, cl, "directory", 0, 2, 0x1A9E)
	for round := 0; round < 5; round++ {
		old := killPrimary(t, cl, w.pick)
		waitForFailover(t, cl, old, w.pick)
		w.mustWrite(fmt.Sprintf("after election %d", round))
		if err := cl.Restart(old); err != nil {
			t.Fatalf("round %d: restart: %v", round, err)
		}
		w.mustWrite(fmt.Sprintf("after rejoin %d", round))
	}
	w.verify("five elections")
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}
	if n := shipperGoroutines(); n != 0 {
		t.Fatalf("%d repl goroutines outlived Cluster.Close", n)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 4<<20)
			t.Fatalf("%d goroutines after Close, %d before boot:\n%s",
				runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}
