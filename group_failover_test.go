// Replication-group chaos tests: boot the durable services as
// 3-replica groups (ClusterConfig.Replicas) and kill machines mid-soak
// with nobody at the wheel — the standbys' failure detectors elect the
// successor on their own. Zero acknowledged operations may be
// lost through any failover, killed machines rejoin as fresh standbys
// via Restart, and a double failure (kill the newly promoted primary
// too) still converges. See EXPERIMENTS.md E21.
package amoeba

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"amoeba/internal/amnet"
)

// groupCluster boots a cluster whose durable services are 3-replica
// groups under mild network chaos, with a short lease so failovers
// resolve in tens of milliseconds.
func groupCluster(t *testing.T, seed uint64) *Cluster {
	t.Helper()
	// The production default lease: short enough for sub-second
	// failovers, long enough that the race detector's scheduler stalls
	// rarely counterfeit a 1.5-term silence and false-alarm a detector.
	cl, err := NewCluster(ClusterConfig{
		Seed:      seed,
		LossRate:  0.01,
		Latency:   50 * time.Microsecond,
		Jitter:    100 * time.Microsecond,
		Replicas:  3,
		LeaseTerm: 150 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

// liveStandbys counts sh's standbys that are up — Replicas-1 of them on
// a whole group.
func liveStandbys(cl *Cluster, sh *svcShard) int {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	n := 0
	for _, st := range sh.standbysLocked() {
		if !st.down {
			n++
		}
	}
	return n
}

// waitForFailover blocks until the service identified by pick moves off
// machine old (the group elected a successor).
func waitForFailover(t *testing.T, cl *Cluster, old amnet.MachineID, pick func(Machines) amnet.MachineID) amnet.MachineID {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		if m := pick(cl.Machines()); m != old {
			return m
		}
		if time.Now().After(deadline) {
			t.Fatal("auto-failover never happened")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// killPrimary kills whichever machine CURRENTLY hosts the service
// identified by pick. Under extreme scheduler stalls a detector false
// alarm may legally move the crown between a read of Machines() and the
// Kill — the suite asserts safety across elections, not that detectors
// never misfire — so the read-and-kill retries as one unit.
func killPrimary(t *testing.T, cl *Cluster, pick func(Machines) amnet.MachineID) amnet.MachineID {
	t.Helper()
	for attempt := 0; ; attempt++ {
		m := pick(cl.Machines())
		err := cl.Kill(m)
		if err == nil {
			return m
		}
		if attempt >= 50 || !strings.Contains(err.Error(), "killable") {
			t.Fatal(err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestChaosAutoFailoverDirsvr(t *testing.T) {
	for i := 0; i < killRestartSeeds(t); i++ {
		t.Run(fmt.Sprintf("seed=%d", i), func(t *testing.T) {
			runAutoFailoverDirsvr(t, 0xE210_0000+uint64(i), false)
		})
	}
}

// runAutoFailoverDirsvr kills the directory primary mid-soak. With
// forced unset nobody does anything about it — the detectors must;
// forced runs the election at once (failover_test.go).
func runAutoFailoverDirsvr(t *testing.T, seed uint64, forced bool) {
	cl := groupCluster(t, seed)
	dirs := cl.Dirs()

	var root Capability
	untilOK(t, "create root", func(ctx context.Context) error {
		var err error
		root, err = dirs.CreateDir(ctx, cl.DirPort())
		return err
	})

	const workers, perWorker = 4, 6
	subs := make([]Capability, workers*perWorker)
	enter := func(g, i int) {
		name := fmt.Sprintf("w%d-e%d", g, i)
		untilOK(t, "create "+name, func(ctx context.Context) error {
			var err error
			subs[g*perWorker+i], err = dirs.CreateDir(ctx, cl.DirPort())
			return err
		})
		untilOK(t, "enter "+name, func(ctx context.Context) error {
			err := dirs.Enter(ctx, root, name, subs[g*perWorker+i])
			if err != nil && strings.Contains(err.Error(), "exists") {
				return nil
			}
			return err
		})
	}
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWorker/2; i++ {
				enter(g, i)
			}
		}(g)
	}
	wg.Wait()

	// Kill the primary. The standbys' failure detectors notice the
	// silent lease and elect the highest-acked one while the workers
	// hammer straight through the outage.
	primary := killPrimary(t, cl, func(m Machines) amnet.MachineID { return m.Dirs })
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := perWorker / 2; i < perWorker; i++ {
				enter(g, i)
			}
		}(g)
	}
	if forced {
		time.Sleep(5 * time.Millisecond) // let some attempts hit the corpse
		forceElection(t, cl, cl.shards["directory"][0], primary)
	}
	waitForFailover(t, cl, primary, func(m Machines) amnet.MachineID { return m.Dirs })
	wg.Wait()

	// Every acknowledged entry survived the failover with its exact
	// capability.
	listed := make(map[string]Capability)
	untilOK(t, "list", func(ctx context.Context) error {
		entries, err := dirs.List(ctx, root)
		if err != nil {
			return err
		}
		clear(listed)
		for _, e := range entries {
			listed[e.Name] = e.Cap
		}
		return nil
	})
	if len(listed) != workers*perWorker {
		t.Fatalf("root has %d entries after auto-failover, want %d", len(listed), workers*perWorker)
	}
	for g := 0; g < workers; g++ {
		for i := 0; i < perWorker; i++ {
			name := fmt.Sprintf("w%d-e%d", g, i)
			got, ok := listed[name]
			if !ok {
				t.Fatalf("acknowledged entry %q lost in the auto-failover", name)
			}
			if got != subs[g*perWorker+i] {
				t.Fatalf("entry %q failed over with a different capability", name)
			}
		}
	}

	// The killed machine rejoins as a fresh standby — Restart routes it
	// through the snapshot re-integration path, not the old exile.
	if err := cl.Restart(primary); err != nil {
		t.Fatalf("killed primary could not rejoin its group: %v", err)
	}
	// Whole again, however many elections ran: one a detector false
	// alarm adds re-attaches its own victim.
	if standbys := liveStandbys(cl, cl.shards["directory"][0]); standbys != 2 {
		t.Fatalf("group has %d standbys after re-integration, want 2", standbys)
	}
	cl.mu.Lock()
	term := cl.shards["directory"][0].term
	cl.mu.Unlock()
	if term < 2 {
		t.Fatalf("group term %d after a failover, want ≥ 2", term)
	}
	// And the re-formed group still takes writes.
	untilOK(t, "post-reintegration enter", func(ctx context.Context) error {
		err := dirs.Enter(ctx, root, "rejoined", root)
		if err != nil && strings.Contains(err.Error(), "exists") {
			return nil
		}
		return err
	})
}

func TestChaosAutoFailoverBanksvr(t *testing.T) {
	for i := 0; i < killRestartSeeds(t); i++ {
		t.Run(fmt.Sprintf("seed=%d", i), func(t *testing.T) {
			runAutoFailoverBanksvr(t, 0xE210_B000+uint64(i), false)
		})
	}
}

func runAutoFailoverBanksvr(t *testing.T, seed uint64, forced bool) {
	cl := groupCluster(t, seed)
	bank := cl.Bank()

	const accounts, grant = 6, 1000
	caps := make([]Capability, accounts)
	for i := range caps {
		untilOK(t, "create account", func(ctx context.Context) error {
			var err error
			caps[i], err = bank.CreateAccount(ctx, "dollar", grant)
			return err
		})
	}

	const workers, transfers = 4, 10
	var wg sync.WaitGroup
	work := func(g, lo int) {
		defer wg.Done()
		for i := lo; i < lo+transfers/2; i++ {
			from := caps[(g+i)%accounts]
			to := caps[(g+i+1)%accounts]
			untilOK(t, "transfer", func(ctx context.Context) error {
				err := bank.Transfer(ctx, from, to, "dollar", 1)
				if err != nil && strings.Contains(err.Error(), "insufficient funds") {
					return nil
				}
				return err
			})
		}
	}
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go work(g, 0)
	}
	wg.Wait()

	primary := killPrimary(t, cl, func(m Machines) amnet.MachineID { return m.Bank })
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go work(g, transfers/2)
	}
	if forced {
		time.Sleep(5 * time.Millisecond)
		forceElection(t, cl, cl.shards["bank"][0], primary)
	}
	waitForFailover(t, cl, primary, func(m Machines) amnet.MachineID { return m.Bank })
	wg.Wait()

	// Exact money conservation through the election: every dollar is in
	// exactly one account on the self-promoted standby.
	total := int64(0)
	for i := range caps {
		var bal map[string]int64
		untilOK(t, "balance", func(ctx context.Context) error {
			var err error
			bal, err = bank.Balance(ctx, caps[i])
			return err
		})
		total += bal["dollar"]
	}
	if total != accounts*grant {
		t.Fatalf("money not conserved across auto-failover: %d, want %d", total, accounts*grant)
	}
}

// TestChaosDoubleFailure kills the primary, lets the group elect, lets
// the old machine rejoin, then kills the NEW primary mid-soak — two
// full elections in one run, every acknowledged op intact after both.
func TestChaosDoubleFailure(t *testing.T) {
	for i := 0; i < killRestartSeeds(t); i++ {
		t.Run(fmt.Sprintf("seed=%d", i), func(t *testing.T) {
			runDoubleFailure(t, 0xDB1F_0000+uint64(i))
		})
	}
}

func runDoubleFailure(t *testing.T, seed uint64) {
	cl := groupCluster(t, seed)
	dirs := cl.Dirs()

	var root Capability
	untilOK(t, "create root", func(ctx context.Context) error {
		var err error
		root, err = dirs.CreateDir(ctx, cl.DirPort())
		return err
	})

	const workers, phases, perPhase = 4, 3, 2
	const perWorker = phases * perPhase
	subs := make([]Capability, workers*perWorker)
	enter := func(g, i int) {
		name := fmt.Sprintf("w%d-e%d", g, i)
		untilOK(t, "create "+name, func(ctx context.Context) error {
			var err error
			subs[g*perWorker+i], err = dirs.CreateDir(ctx, cl.DirPort())
			return err
		})
		untilOK(t, "enter "+name, func(ctx context.Context) error {
			err := dirs.Enter(ctx, root, name, subs[g*perWorker+i])
			if err != nil && strings.Contains(err.Error(), "exists") {
				return nil
			}
			return err
		})
	}
	var wg sync.WaitGroup
	phase := func(p int) {
		for g := 0; g < workers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := p * perPhase; i < (p+1)*perPhase; i++ {
					enter(g, i)
				}
			}(g)
		}
	}

	phase(0)
	wg.Wait()

	// First failure: the boot primary dies mid-soak.
	p0 := killPrimary(t, cl, func(m Machines) amnet.MachineID { return m.Dirs })
	phase(1)
	p1 := waitForFailover(t, cl, p0, func(m Machines) amnet.MachineID { return m.Dirs })

	// The dead machine rejoins as a fresh standby, restoring the group
	// to three live members — without this, a second election could not
	// reach a majority of the configured group, and the survivor would
	// (correctly) refuse to serve.
	untilOK(t, "reintegrate p0", func(ctx context.Context) error { return cl.Restart(p0) })
	wg.Wait()

	// Second failure: the NEWLY PROMOTED primary dies mid-soak too.
	p1 = killPrimary(t, cl, func(m Machines) amnet.MachineID { return m.Dirs })
	phase(2)
	waitForFailover(t, cl, p1, func(m Machines) amnet.MachineID { return m.Dirs })
	wg.Wait()

	// Both elections behind us: every acknowledged entry is present with
	// its exact capability.
	listed := make(map[string]Capability)
	untilOK(t, "list", func(ctx context.Context) error {
		entries, err := dirs.List(ctx, root)
		if err != nil {
			return err
		}
		clear(listed)
		for _, e := range entries {
			listed[e.Name] = e.Cap
		}
		return nil
	})
	if len(listed) != workers*perWorker {
		t.Fatalf("root has %d entries after the double failure, want %d", len(listed), workers*perWorker)
	}
	for g := 0; g < workers; g++ {
		for i := 0; i < perWorker; i++ {
			name := fmt.Sprintf("w%d-e%d", g, i)
			got, ok := listed[name]
			if !ok {
				t.Fatalf("acknowledged entry %q lost across the double failure", name)
			}
			if got != subs[g*perWorker+i] {
				t.Fatalf("entry %q came back with a different capability", name)
			}
		}
	}
	cl.mu.Lock()
	term := cl.shards["directory"][0].term
	cl.mu.Unlock()
	if term < 3 {
		t.Fatalf("group term %d after two elections, want ≥ 3", term)
	}
}

// TestGroupLeaseSplitBrainGuard: split-brain is prevented by time
// plus quorum (the old primary's lease lapses before any standby's
// detector can fire, and stale terms bounce), NOT by exiling the dead
// machine — so after the failover the machine REJOINS as a standby and
// the group is whole again, with exactly one server ever behind the
// port.
func TestGroupLeaseSplitBrainGuard(t *testing.T) {
	cl := groupCluster(t, 0x5B12)
	dirs := cl.Dirs()

	var root Capability
	untilOK(t, "create root", func(ctx context.Context) error {
		var err error
		root, err = dirs.CreateDir(ctx, cl.DirPort())
		return err
	})
	untilOK(t, "enter pre", func(ctx context.Context) error {
		err := dirs.Enter(ctx, root, "pre", root)
		if err != nil && strings.Contains(err.Error(), "exists") {
			return nil
		}
		return err
	})

	primary := killPrimary(t, cl, func(m Machines) amnet.MachineID { return m.Dirs })
	waitForFailover(t, cl, primary, func(m Machines) amnet.MachineID { return m.Dirs })

	// The successor serves the same port with the pre-crash state.
	untilOK(t, "post-failover lookup", func(ctx context.Context) error {
		_, err := dirs.Lookup(ctx, root, "pre")
		return err
	})
	untilOK(t, "post-failover enter", func(ctx context.Context) error {
		err := dirs.Enter(ctx, root, "post", root)
		if err != nil && strings.Contains(err.Error(), "exists") {
			return nil
		}
		return err
	})

	// The old machine is NOT exiled: Restart re-integrates it as a
	// fresh standby (its divergent log tail discarded), and the group's
	// epoch has advanced so any stale stream of its would bounce.
	if err := cl.Restart(primary); err != nil {
		t.Fatalf("lease-guarded group refused re-integration: %v", err)
	}
	cl.mu.Lock()
	term := cl.shards["directory"][0].term
	cl.mu.Unlock()
	if standbys := liveStandbys(cl, cl.shards["directory"][0]); standbys != 2 || term < 2 {
		t.Fatalf("after re-integration: %d standbys (want 2), term %d (want ≥ 2)", standbys, term)
	}

	// Chained failover: the re-formed group survives killing the NEW
	// primary as well — the availability story end to end.
	next := killPrimary(t, cl, func(m Machines) amnet.MachineID { return m.Dirs })
	waitForFailover(t, cl, next, func(m Machines) amnet.MachineID { return m.Dirs })
	untilOK(t, "second failover lookup", func(ctx context.Context) error {
		_, err := dirs.Lookup(ctx, root, "post")
		return err
	})
}

// TestGroupLifecycleGuards: the lifecycle verbs refuse what makes no
// sense on a group (restarting a live member, draining a standby,
// restarting a dead primary ahead of its election), standby kills are
// absorbed without an election, and a killed standby rejoins via
// Restart.
func TestGroupLifecycleGuards(t *testing.T) {
	cl := groupCluster(t, 0x6A4E)
	m := cl.Machines()
	cl.mu.Lock()
	stMachine := cl.shards["directory"][0].standbysLocked()[0].machine
	cl.mu.Unlock()

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
	dirs := cl.Dirs()
	untilOK(t, "write with a dead standby", func(ctx context.Context) error {
		_, err := dirs.CreateDir(ctx, cl.DirPort())
		return err
	})
	if err := cl.Restart(stMachine); err != nil {
		t.Fatalf("killed standby could not rejoin: %v", err)
	}
	if standbys := liveStandbys(cl, cl.shards["directory"][0]); standbys != 2 {
		t.Fatalf("group has %d standbys after standby re-integration, want 2", standbys)
	}
	untilOK(t, "write after standby rejoin", func(ctx context.Context) error {
		_, err := dirs.CreateDir(ctx, cl.DirPort())
		return err
	})
}

// TestGroupLanesDoNotLeak: every shipper owns one long-lived ship lane
// per standby, and the group's life is a churn of shippers and peers —
// Kill stops one, the election attaches a successor, Restart adds the
// corpse back as a peer. After five rounds of that and Close, no lane
// or shipper loop may be left, and the process is back to the
// goroutines it had before the cluster booted.
func TestGroupLanesDoNotLeak(t *testing.T) {
	shipperGoroutines := func() int {
		buf := make([]byte, 4<<20)
		return strings.Count(string(buf[:runtime.Stack(buf, true)]), "created by amoeba/internal/repl.")
	}
	base := runtime.NumGoroutine()
	cl, err := NewCluster(ClusterConfig{Seed: 0x1A9E, Replicas: 3, LeaseTerm: 150 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	pick := func(m Machines) amnet.MachineID { return m.Dirs }
	dirs := cl.Dirs()
	write := func(what string) {
		untilOK(t, what, func(ctx context.Context) error {
			_, err := dirs.CreateDir(ctx, cl.DirPort())
			return err
		})
	}
	for round := 0; round < 5; round++ {
		old := killPrimary(t, cl, pick)
		waitForFailover(t, cl, old, pick)
		write("write after the election")
		if err := cl.Restart(old); err != nil {
			t.Fatalf("round %d: restart: %v", round, err)
		}
		write("write after the corpse rejoined")
	}
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
