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

	"amoeba/internal/amnet"
)

// forceElection runs sh's election now, provided dead is still its
// primary (a detector false alarm may legally have moved the crown
// already — see killPrimary).
func forceElection(tb testing.TB, cl *Cluster, sh *svcShard, dead amnet.MachineID) {
	tb.Helper()
	cl.lifeMu.Lock()
	defer cl.lifeMu.Unlock()
	cl.mu.Lock()
	cur := sh.primary.Machine()
	cl.mu.Unlock()
	if cur == dead && !cl.elect(sh) {
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
