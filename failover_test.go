// Forced-election chaos tests: kill a replication group's primary
// mid-soak and run the election AT ONCE instead of waiting out the
// standbys' failure detectors — the path Drain's handoff and
// BenchmarkE19_Failover take, here under load and the race detector.
// Clients must converge onto the successor through locate's
// invalidate-and-re-broadcast with every acknowledged operation
// present. The bodies are group_failover_test.go's; only who starts
// the election differs. See EXPERIMENTS.md E19.
package amoeba

import (
	"fmt"
	"testing"
	"time"

	"amoeba/internal/amnet"
)

// failoverCluster is groupCluster, except that a forced run never waits
// for a detector and so can afford a lease long enough that none false-
// alarms: an unplanned election ahead of the kill would leave the group
// one standby short (the deposed primary is not re-attached), and the
// forced one would then be refused for want of a quorum.
func failoverCluster(t *testing.T, seed uint64, forced bool) *Cluster {
	if forced {
		return groupClusterLease(t, seed, 400*time.Millisecond)
	}
	return groupCluster(t, seed)
}

// forceElection runs sh's election now, provided dead is still its
// primary (a detector false alarm may legally have moved the crown
// already — see killPrimary).
func forceElection(tb testing.TB, cl *Cluster, sh *svcShard, dead amnet.MachineID) {
	tb.Helper()
	cl.lifeMu.Lock()
	defer cl.lifeMu.Unlock()
	cl.mu.Lock()
	g, cur := sh.group, sh.primary.machine
	cl.mu.Unlock()
	if cur == dead && !cl.elect(g) {
		tb.Fatalf("forced %s election found no successor", sh.label)
	}
}

func TestChaosFailoverDirsvr(t *testing.T) {
	for i := 0; i < killRestartSeeds(t); i++ {
		t.Run(fmt.Sprintf("seed=%d", i), func(t *testing.T) {
			runAutoFailoverDirsvr(t, 0xFA10_0000+uint64(i), true)
		})
	}
}

func TestChaosFailoverBanksvr(t *testing.T) {
	for i := 0; i < killRestartSeeds(t); i++ {
		t.Run(fmt.Sprintf("seed=%d", i), func(t *testing.T) {
			runAutoFailoverBanksvr(t, 0xFA10_B000+uint64(i), true)
		})
	}
}
