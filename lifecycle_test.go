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
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"amoeba/internal/amnet"
	"amoeba/internal/cap"
	"amoeba/internal/obs"
)

// lifecycleSubject is one shard under test: how to land an acknowledged
// mutation on it (safe from any goroutine) and how to check that all of
// them are still there.
type lifecycleSubject struct {
	sh     *svcShard
	write  func(tag string) error
	verify func(when string)
}

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
	cl, err := NewCluster(ClusterConfig{
		Seed: seed, Replicas: 3, Shards: 2,
		Latency: 50 * time.Microsecond, Jitter: 100 * time.Microsecond,
		LeaseTerm: 500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })

	subjects := []lifecycleSubject{
		directorySubject(t, cl, 0), directorySubject(t, cl, 1),
		bankSubject(t, cl, 0), bankSubject(t, cl, 1),
	}
	want := lifecycleOutcome{
		terms:          [3]uint64{1, 0, 1},
		standbys:       [3]int{2, 2, 2},
		failovers:      2,
		reintegrations: 3,
	}
	for _, sub := range subjects {
		t.Run(sub.sh.label, func(t *testing.T) {
			if got := runLifecycleScript(t, cl, sub); got != want {
				t.Fatalf("%s lifecycle outcome %+v, want %+v (the same on every shard)", sub.sh.label, got, want)
			}
		})
	}

	// Every shard reports its replication state under its own label;
	// shard 0 keeps the bare service name.
	var buf bytes.Buffer
	if err := cl.Metrics().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, sub := range subjects {
		for _, name := range []string{"amoeba_ship_lag_records", "amoeba_lease_valid", "amoeba_repl_term"} {
			series := fmt.Sprintf(`%s{service=%q}`, name, sub.sh.label)
			if !strings.Contains(buf.String(), series) {
				t.Errorf("/metrics missing %s", series)
			}
		}
		// Two elections behind each group: the term gauge follows the
		// current shipper, whichever machine that is.
		if series := fmt.Sprintf("amoeba_repl_term{service=%q} 3\n", sub.sh.label); !strings.Contains(buf.String(), series) {
			t.Errorf("/metrics lacks %q", series)
		}
	}
}

// runLifecycleScript plays the three steps on one shard's group.
func runLifecycleScript(t *testing.T, cl *Cluster, sub lifecycleSubject) lifecycleOutcome {
	sh := sub.sh
	group := func() (primary, standby amnet.MachineID, term uint64, live int) {
		cl.mu.Lock()
		defer cl.mu.Unlock()
		for _, st := range sh.standbysLocked() {
			if !st.down {
				live++
				standby = st.Machine()
			}
		}
		return sh.primary.Machine(), standby, sh.term, live
	}
	failovers := cl.Metrics().Counter("amoeba_failovers_total", obs.L("service", sh.label), failoversHelp)
	reintegrations := cl.Metrics().Counter("amoeba_reintegrations_total", obs.L("service", sh.label), reintegrationsHelp)
	failovers0, reint0 := failovers.Value(), reintegrations.Value()
	var out lifecycleOutcome
	write := func(tag string) {
		if err := sub.write(tag); err != nil {
			t.Fatal(err)
		}
	}
	step := func(i int, name string, run func(primary, standby amnet.MachineID) amnet.MachineID) {
		primary, standby, term0, _ := group()
		write(name + "-before")
		down := run(primary, standby)
		write(name + "-after")
		if err := cl.Restart(down); err != nil {
			t.Fatalf("%s: Restart(%v): %v", name, down, err)
		}
		write(name + "-rejoined")
		sub.verify(name)
		_, _, term, live := group()
		out.terms[i], out.standbys[i] = term-term0, live
	}

	step(0, "kill-primary", func(primary, _ amnet.MachineID) amnet.MachineID {
		if err := cl.Kill(primary); err != nil {
			t.Fatal(err)
		}
		if err := cl.Restart(primary); err == nil || !strings.Contains(err.Error(), "wait for the election") {
			t.Fatalf("Restart of a dead primary ahead of its election: %v", err)
		}
		deadline := time.Now().Add(15 * time.Second)
		for p, _, _, _ := group(); p == primary; p, _, _, _ = group() {
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
		if p, _, _, _ := group(); p != primary {
			t.Fatal("killing a standby moved the primary")
		}
		return standby
	})

	step(2, "drain-primary", func(primary, _ amnet.MachineID) amnet.MachineID {
		// Writers straight through the drain: the handoff must lose
		// nothing they were acknowledged.
		var wg sync.WaitGroup
		for w := 0; w < 3; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for j := 0; j < 4; j++ {
					if err := sub.write(fmt.Sprintf("drain-w%d-%d", w, j)); err != nil {
						t.Error(err)
						return
					}
				}
			}()
		}
		if err := cl.Drain(primary); err != nil {
			t.Fatalf("Drain: %v", err)
		}
		// No waiting: the election ran inside Drain.
		if p, _, _, _ := group(); p == primary {
			t.Fatal("Drain returned without handing the shard to a standby")
		}
		wg.Wait()
		return primary
	})

	out.failovers = failovers.Value() - failovers0
	out.reintegrations = reintegrations.Value() - reint0
	return out
}

// directorySubject homes one directory on shard idx; a write enters a
// fresh name into it.
func directorySubject(t *testing.T, cl *Cluster, idx int) lifecycleSubject {
	dirs := cl.Dirs()
	var home cap.Capability
	for home == cap.Nil {
		untilOK(t, "create dir", func(ctx context.Context) error {
			d, err := dirs.CreateDir(ctx, cl.DirPort())
			if err == nil && cl.ShardOf(cl.DirPort(), d.Object) == idx {
				home = d
			}
			return err
		})
	}
	var mu sync.Mutex
	acked := make(map[string]bool)
	return lifecycleSubject{
		sh: cl.shards["directory"][idx],
		write: func(tag string) error {
			err := retryOK("enter "+tag, func(ctx context.Context) error {
				err := dirs.Enter(ctx, home, tag, home)
				if err != nil && strings.Contains(err.Error(), "exists") {
					return nil // an earlier attempt landed; only its ack was lost
				}
				return err
			})
			if err == nil {
				mu.Lock()
				acked[tag] = true
				mu.Unlock()
			}
			return err
		},
		verify: func(when string) {
			present := make(map[string]bool)
			untilOK(t, "list", func(ctx context.Context) error {
				entries, err := dirs.List(ctx, home)
				for _, e := range entries {
					present[e.Name] = true
				}
				return err
			})
			mu.Lock()
			defer mu.Unlock()
			for name := range acked {
				if !present[name] {
					t.Fatalf("directory shard %d after %s: acknowledged entry %q lost", idx, when, name)
				}
			}
		},
	}
}

// bankSubject's write opens an account on shard idx with a balance all
// its own; every acknowledged account must still hold exactly that.
func bankSubject(t *testing.T, cl *Cluster, idx int) lifecycleSubject {
	bank := cl.Bank()
	var mu sync.Mutex
	acked := make(map[cap.Capability]int64)
	return lifecycleSubject{
		sh: cl.shards["bank"][idx],
		write: func(tag string) error {
			for {
				var acct cap.Capability
				var grant int64
				err := retryOK("open account "+tag, func(ctx context.Context) error {
					mu.Lock()
					grant = int64(1000 + len(acked))
					mu.Unlock()
					var err error
					acct, err = bank.CreateAccount(ctx, "dollar", grant)
					return err
				})
				if err != nil {
					return err
				}
				// Creates are spread over the shards; keep the ones that
				// landed on ours.
				if cl.ShardOf(bank.Port(), acct.Object) == idx {
					mu.Lock()
					acked[acct] = grant
					mu.Unlock()
					return nil
				}
			}
		},
		verify: func(when string) {
			mu.Lock()
			defer mu.Unlock()
			for acct, grant := range acked {
				untilOK(t, "balance", func(ctx context.Context) error {
					bal, err := bank.Balance(ctx, acct)
					if err == nil && bal["dollar"] != grant {
						t.Fatalf("bank shard %d after %s: account holds %d dollars, was acknowledged %d", idx, when, bal["dollar"], grant)
					}
					return err
				})
			}
		},
	}
}
