// One durable-service path: every shard of every durable service is
// the same kind of thing, so the same lifecycle script must play out
// identically on shard 0 and shard 1 of both the directory and the
// bank server — kill the primary (the detectors elect, Restart
// re-attaches the corpse), kill a standby (no election, Restart
// re-attaches it), drain the primary (the election runs at once,
// nothing acknowledged is lost, Restart re-attaches the drained
// machine) — and every shard must export the replication gauges under
// its own label.
package amoeba

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"amoeba/internal/amnet"
	"amoeba/internal/obs"
)

// lifecycleOutcome is what one run of the script does to a group, read
// off the group itself and off the metrics registry.
type lifecycleOutcome struct {
	terms          [3]uint64 // term advance per step: kill primary, kill standby, drain
	standbys       [3]int    // live standbys after each step's Restart
	failovers      uint64
	reintegrations uint64
}

func TestShardLifecycleUniform(t *testing.T) {
	for i := 0; i < 3; i++ {
		t.Run(fmt.Sprintf("seed=%d", i), func(t *testing.T) {
			runShardLifecycleUniform(t, 0x11FE_0000+uint64(i))
		})
	}
}

func runShardLifecycleUniform(t *testing.T, seed uint64) {
	// A generous lease: the script asserts exact term counts, so a
	// detector false alarm under the race detector's scheduler must be
	// out of the question, and only one step waits out a detector.
	cl := testCluster(t, ClusterConfig{
		Seed: seed, Replicas: 3, Shards: 2,
		Latency: 50 * time.Microsecond, Jitter: 100 * time.Microsecond,
		LeaseTerm: 500 * time.Millisecond,
	})

	shards := append(cl.shards["directory"][:2:2], cl.shards["bank"][:2]...)
	want := lifecycleOutcome{
		terms:          [3]uint64{1, 0, 1},
		standbys:       [3]int{2, 2, 2},
		failovers:      2,
		reintegrations: 3,
	}
	for _, sh := range shards {
		t.Run(sh.label, func(t *testing.T) {
			// The script's faults never overlap a call, except the
			// drain's: zero echoes until then.
			w := newWorkload(t, cl, sh.svc.Label, sh.idx, 0, seed)
			if got := runLifecycleScript(t, cl, w); got != want {
				t.Fatalf("%s lifecycle outcome %+v, want %+v (the same on every shard)", sh.label, got, want)
			}
		})
	}

	// Every shard reports its replication state under its own label;
	// shard 0 keeps the bare service name.
	var buf bytes.Buffer
	if err := cl.Metrics().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, sh := range shards {
		for _, name := range []string{"amoeba_ship_lag_records", "amoeba_lease_valid", "amoeba_repl_term"} {
			series := fmt.Sprintf(`%s{service=%q}`, name, sh.label)
			if !strings.Contains(buf.String(), series) {
				t.Errorf("/metrics missing %s", series)
			}
		}
		// Two elections behind each group: the term gauge follows the
		// current shipper, whichever machine that is.
		if series := fmt.Sprintf("amoeba_repl_term{service=%q} 3\n", sh.label); !strings.Contains(buf.String(), series) {
			t.Errorf("/metrics lacks %q", series)
		}
	}
}

// runLifecycleScript plays the three steps on one shard's group.
func runLifecycleScript(t *testing.T, cl *Cluster, sub *workload) lifecycleOutcome {
	sh := sub.sh
	failovers := cl.Metrics().Counter("amoeba_failovers_total", obs.L("service", sh.label), failoversHelp)
	reintegrations := cl.Metrics().Counter("amoeba_reintegrations_total", obs.L("service", sh.label), reintegrationsHelp)
	failovers0, reint0 := failovers.Value(), reintegrations.Value()
	var out lifecycleOutcome
	step := func(i int, name string, run func(primary, standby amnet.MachineID) amnet.MachineID) {
		primary, standbys, term0 := group(cl, sh)
		sub.mustWrite(name + "-before")
		down := run(primary, standbys[len(standbys)-1])
		sub.mustWrite(name + "-after")
		if err := cl.Restart(down); err != nil {
			t.Fatalf("%s: Restart(%v): %v", name, down, err)
		}
		sub.mustWrite(name + "-rejoined")
		sub.verify(name)
		_, standbys, term := group(cl, sh)
		out.terms[i], out.standbys[i] = term-term0, len(standbys)
	}

	step(0, "kill-primary", func(primary, _ amnet.MachineID) amnet.MachineID {
		if err := cl.Kill(primary); err != nil {
			t.Fatal(err)
		}
		if err := cl.Restart(primary); err == nil || !strings.Contains(err.Error(), "wait for the election") {
			t.Fatalf("Restart of a dead primary ahead of its election: %v", err)
		}
		deadline := time.Now().Add(15 * time.Second)
		for p, _, _ := group(cl, sh); p == primary; p, _, _ = group(cl, sh) {
			if time.Now().After(deadline) {
				t.Fatal("the detectors never elected a successor")
			}
			time.Sleep(5 * time.Millisecond)
		}
		return primary
	})

	step(1, "kill-standby", func(primary, standby amnet.MachineID) amnet.MachineID {
		if err := cl.Kill(standby); err != nil {
			t.Fatal(err)
		}
		if p, _, _ := group(cl, sh); p != primary {
			t.Fatal("killing a standby moved the primary")
		}
		return standby
	})

	step(2, "drain-primary", func(primary, _ amnet.MachineID) amnet.MachineID {
		// Writers straight through the drain: the handoff must lose
		// nothing they were acknowledged.
		sub.h.SetEchoes(2)
		sub.start(3)
		if err := cl.Drain(primary); err != nil {
			t.Fatalf("Drain: %v", err)
		}
		// No waiting: the election ran inside Drain.
		if p, _, _ := group(cl, sh); p == primary {
			t.Fatal("Drain returned without handing the shard to a standby")
		}
		sub.wait()
		return primary
	})

	out.failovers = failovers.Value() - failovers0
	out.reintegrations = reintegrations.Value() - reint0
	return out
}
