// Gray failures of a standby: its disk dies while its NIC keeps
// answering. The primary's own gray failures — a dead disk, a one-way
// partition, a flapping link — are rows in soak_test.go.
package amoeba

import (
	"context"
	"fmt"
	"testing"
	"time"
)

// TestStandbyWedgeDropsFromQuorum wedges one STANDBY's disk: the
// receiver answers every subsequent frame with its death, the shipper
// writes the peer off, and the group keeps serving on primary + the
// healthy standby (majorities count the configured size, so nothing
// loosens). Kill + Restart re-integrates the machine with a fresh disk.
func TestStandbyWedgeDropsFromQuorum(t *testing.T) {
	cl := seeded(t, groupChaos, 0x57DB)
	w := newWorkload(t, cl, "directory", 0, 2, 0x57DB)
	primary, standbys, _ := group(cl, w.sh)
	stMachine := standbys[0]
	cl.WALFault(stMachine).FailWritesAfter(0)

	// Writes keep landing: the wedged standby errors every frame, the
	// shipper retries, writes it off, and serves on the remaining
	// majority.
	for i := 0; i < 8; i++ {
		w.mustWrite(fmt.Sprintf("through-wedge-%d", i))
	}
	deadline := time.Now().Add(15 * time.Second)
	for {
		cl.mu.Lock()
		lost := w.sh.primary.Ship().LostPeers()
		cl.mu.Unlock()
		if lost >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("wedged standby never written off the ack quorum")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if n := wedgedCount(cl, "directory"); n < 1 {
		t.Fatalf("amoeba_wal_wedged_total{directory} = %d, want ≥ 1", n)
	}
	if got := cl.Machines().Dirs; got != primary {
		t.Fatal("a wedged standby triggered an election (the primary was fine)")
	}

	// The dead-disk machine re-integrates through Kill + Restart: the
	// new incarnation gets a fresh disk and a base snapshot.
	if err := cl.Kill(stMachine); err != nil {
		t.Fatal(err)
	}
	untilOK(t, "reintegrate standby", func(ctx context.Context) error { return cl.Restart(stMachine) })
	if _, standbys, _ := group(cl, w.sh); len(standbys) != 2 {
		t.Fatalf("group has %d live standbys after re-integration, want 2", len(standbys))
	}
	w.mustWrite("rejoined")
	w.verify("standby re-integration")
}

// TestStandbyWedgeThenPrimaryDeath: the primary dies while a wedged
// standby is still up, so the winner of the election cannot hand that
// standby a base. The winner must serve anyway, with the wedged peer
// starting out lost, and Kill + Restart of the wedged machine must give
// it back its quorum. Every acknowledged entry survives.
func TestStandbyWedgeThenPrimaryDeath(t *testing.T) {
	cl := seeded(t, groupChaos, 0x57DC)
	w := newWorkload(t, cl, "directory", 0, 2, 0x57DC)
	for i := 0; i < 4; i++ {
		w.mustWrite(fmt.Sprintf("before-wedge-%d", i))
	}
	_, standbys, _ := group(cl, w.sh)
	wedged := standbys[0]
	lost := func() int {
		cl.mu.Lock()
		defer cl.mu.Unlock()
		return w.sh.primary.Ship().LostPeers()
	}
	cl.WALFault(wedged).FailWritesAfter(0)
	for i := 0; i < 4 || lost() < 1; i++ {
		if i > 2000 {
			t.Fatal("wedged standby never written off the ack quorum")
		}
		w.mustWrite(fmt.Sprintf("through-wedge-%d", i))
	}

	old := killPrimary(t, cl, w.pick)
	waitForFailover(t, cl, old, w.pick)
	if err := cl.Kill(wedged); err != nil {
		t.Fatal(err)
	}
	untilOK(t, "restart the wedged standby", func(context.Context) error { return cl.Restart(wedged) })
	untilOK(t, "restart the old primary", func(context.Context) error { return cl.Restart(old) })
	w.mustWrite("after")
	if _, standbys, _ := group(cl, w.sh); len(standbys) != 2 {
		t.Fatalf("group has %d live standbys after both restarts, want 2", len(standbys))
	}
	w.verify("both restarts")
}
