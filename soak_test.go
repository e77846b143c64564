// The fault soaks, as one table. Each row is a fault schedule run against
// a workload (workload_test.go) while the workload's writers hammer
// through it: a crash and restart, an election forced or left to the
// detectors, two elections back to back, a dead disk behind a live NIC, a
// one-way partition, a flapping link, a shard primary's death, a drain,
// a hot directory migrated between shards, and a migration whose
// destination's primary dies. Every run ends the same way: the workload
// is read back and the whole history of typed-client calls goes to
// servertest's checker, which enforces acked ⟹ survives — and that no
// answer was given that one machine running the service alone could not
// have given — for every row at once. A row asserts only what is
// particular to its fault: terms, counters, live standbys, who serves,
// who stalls. Seeded. Built with GOEXPERIMENT=synctest, every seed runs
// in a synctest bubble, in virtual time, and a row runs 500 seeds; CI's
// race job does that. See EXPERIMENTS.md E19, E21 and E23.
package amoeba

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"amoeba/internal/amnet"
	"amoeba/internal/obs"
	"amoeba/internal/server/servertest"
)

func TestChaosKillRestartDirsvr(t *testing.T)   { runSoak(t, "kill-restart", 0xD00D_0000, "directory") }
func TestChaosKillRestartBanksvr(t *testing.T)  { runSoak(t, "kill-restart", 0xBA2C_0000, "bank") }
func TestChaosFailoverDirsvr(t *testing.T)      { runSoak(t, "failover/forced", 0xFA10_0000, "directory") }
func TestChaosFailoverBanksvr(t *testing.T)     { runSoak(t, "failover/forced", 0xFA10_B000, "bank") }
func TestChaosAutoFailoverDirsvr(t *testing.T)  { runSoak(t, "failover/auto", 0xE210_0000, "directory") }
func TestChaosAutoFailoverBanksvr(t *testing.T) { runSoak(t, "failover/auto", 0xE210_B000, "bank") }
func TestChaosDoubleFailure(t *testing.T)       { runSoak(t, "failover/double", 0xDB1F_0000, both...) }
func TestChaosDiskDeathDirsvr(t *testing.T)     { runSoak(t, "disk-death", 0xD15C_0000, "directory") }
func TestChaosDiskDeathBanksvr(t *testing.T)    { runSoak(t, "disk-death", 0xD15C_B000, "bank") }
func TestChaosOneWayPartition(t *testing.T)     { runSoak(t, "one-way", 0x04E1_0000, both...) }
func TestChaosFlappingLink(t *testing.T)        { runSoak(t, "flapping", 0xF1A9_0000, both...) }
func TestChaosShardPrimaryKill(t *testing.T)    { runSoak(t, "shard-kill", 0x51AD_0000, "directory") }
func TestDrainHandoffMidSoak(t *testing.T)      { runSoak(t, "drain/handoff", 0xD0A1_0000, "directory") }
func TestDrainRestartMidSoak(t *testing.T)      { runSoak(t, "drain/restart", 0xD0A1_4E57, "directory") }
func TestChaosMigrateUnderLoad(t *testing.T)    { runSoak(t, "migrate", 0x316A_0000, "directory") }
func TestShardKillPromoteOverlappingMigration(t *testing.T) {
	runSoak(t, "migrate+kill", 0x5EAD_0000, "directory")
}

// both runs a row's directory and bank workloads side by side.
var both = []string{"directory", "bank"}

// A soak is one row: the cluster (runSoak adds the seed), how many
// seeded runs it makes on the wall clock when that is fewer than
// chaosSeeds, and the schedule. Every row's faults overlap calls, so
// every row allows the cluster client's two retries as echoes.
type soak struct {
	cfg      ClusterConfig
	wallRuns int
	schedule func(*testing.T, *Cluster, *workload)
}

var soaks = map[string]soak{
	"kill-restart":    {cfg: mildChaos, schedule: killRestart},
	"failover/forced": {cfg: groupChaos, schedule: failover(true)},
	"failover/auto":   {cfg: groupChaos, schedule: failover(false)},
	"failover/double": {cfg: groupChaos, schedule: doubleFailure},
	"disk-death":      {cfg: groupChaos, schedule: diskDeath},
	"one-way":         {cfg: groupChaos, schedule: oneWayPartition},
	"flapping":        {cfg: groupChaos, schedule: flappingLink},
	"shard-kill":      {cfg: shardGroupChaos, schedule: shardPrimaryKill},
	"drain/handoff":   {cfg: groupChaos, wallRuns: 3, schedule: drainHandoff},
	"drain/restart":   {cfg: mildChaos, wallRuns: 1, schedule: drainRestart},
	// No packet loss: the migration is the only fault, so a stall
	// measures the migration, not the network.
	"migrate":      {cfg: ClusterConfig{Shards: 2, Latency: 50 * time.Microsecond, Jitter: 100 * time.Microsecond}, schedule: migrate},
	"migrate+kill": {cfg: shardGroupChaos, wallRuns: 5, schedule: migrateKill},
}

// The rows' clusters. Mild network chaos, so that the row's fault is the
// main one. groupChaos makes the durable services 3-replica groups with
// the production default lease: short enough for sub-second failovers,
// long enough that the race detector's scheduler stalls rarely
// counterfeit a 1.5-term silence on the wall clock. shardGroupChaos
// makes that two shards, the configuration a shard primary's death needs
// (a 2-member group cannot elect: majorities count the configured size).
var (
	mildChaos       = ClusterConfig{LossRate: 0.01, Latency: 50 * time.Microsecond, Jitter: 100 * time.Microsecond}
	groupChaos      = ClusterConfig{LossRate: 0.01, Latency: 50 * time.Microsecond, Jitter: 100 * time.Microsecond, Replicas: 3, LeaseTerm: 150 * time.Millisecond}
	shardGroupChaos = ClusterConfig{LossRate: 0.01, Latency: 50 * time.Microsecond, Jitter: 100 * time.Microsecond, Replicas: 3, LeaseTerm: 150 * time.Millisecond, Shards: 2}
)

// runSoak runs row against each service, seed+i for run i, each run in
// its own bubble. Two services share one cluster and run side by side,
// each under its own fault. A run that fails stops its writers and
// closes its cluster on the way out, inside the bubble.
func runSoak(t *testing.T, row string, seed uint64, services ...string) {
	s := soaks[row]
	runs := chaosSeeds()
	if !virtual && s.wallRuns > 0 {
		runs = min(runs, s.wallRuns)
	}
	for i := range runs {
		t.Run(fmt.Sprintf("seed=%d", i), func(t *testing.T) {
			seed := seed + uint64(i)
			bubble(t, func() {
				cl := seeded(t, s.cfg, seed)
				defer cl.Close()
				start := time.Now()
				defer func() { t.Logf("seed %#x ran for %v", seed, time.Since(start)) }()
				run := func(t *testing.T, svc string) {
					w := newWorkload(t, cl, svc, 0, 2, seed)
					defer w.stop()
					s.schedule(t, cl, w)
					w.wait()
					w.verify(row)
				}
				if len(services) == 1 {
					run(t, services[0])
					return
				}
				done := make(chan struct{})
				for _, svc := range services {
					go func() {
						defer func() { done <- struct{}{} }()
						t.Run(svc, func(t *testing.T) { run(t, svc) })
					}()
				}
				for range services {
					<-done
				}
			})
		})
	}
}

// chaosSeeds is how many seeded runs a soak performs: 500 in virtual
// time, 20 on the wall clock; -short trims to 4.
func chaosSeeds() int {
	switch {
	case testing.Short():
		return 4
	case virtual:
		return 500
	}
	return 20
}

// seeded boots a cluster of configuration cfg and seed seed that closes
// with the test.
func seeded(t *testing.T, cfg ClusterConfig, seed uint64) *Cluster {
	t.Helper()
	cfg.Seed = seed
	return testCluster(t, cfg)
}

// testCluster boots a cluster that closes with the test.
func testCluster(t *testing.T, cfg ClusterConfig) *Cluster {
	t.Helper()
	cl, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

// killRestart crashes the service's only copy mid-soak and restarts it
// on the same cluster while the workers race the restart: timeout →
// evict → LOCATE failover on a live workload, then WAL replay.
func killRestart(t *testing.T, cl *Cluster, w *workload) {
	w.start(3)
	w.wait()
	m := w.pick(cl.Machines())
	if err := cl.Kill(m); err != nil {
		t.Fatal(err)
	}
	w.start(3)
	time.Sleep(5 * time.Millisecond) // let some attempts hit the corpse
	if err := cl.Restart(m); err != nil {
		t.Fatal(err)
	}
	w.wait()
	// A replayed subdirectory's capability still validates: the table
	// secrets were recovered, not re-rolled.
	if w.dirs != nil {
		if err := w.enter(w.first, "alive", w.home); err != nil {
			t.Fatal(err)
		}
		w.lookup(w.first, "alive")
	}
}

// failover kills a group's primary mid-soak. Forced, the election runs at
// once (the path Drain's handoff and BenchmarkE19_Failover take);
// otherwise nobody does anything about it and the standbys' failure
// detectors must. The killed machine then rejoins as a fresh standby —
// Restart's snapshot re-integration, not exile — and the group is whole.
func failover(forced bool) func(*testing.T, *Cluster, *workload) {
	return func(t *testing.T, cl *Cluster, w *workload) {
		w.start(3)
		w.wait()
		primary := killPrimary(t, cl, w.pick)
		w.start(3)
		if forced {
			time.Sleep(5 * time.Millisecond) // let some attempts hit the corpse
			forceElection(t, cl, w.sh, primary)
		}
		waitForFailover(t, cl, primary, w.pick)
		w.wait()
		if err := cl.Restart(primary); err != nil {
			t.Fatalf("killed primary could not rejoin its group: %v", err)
		}
		// Whole again, however many elections ran: one a detector false
		// alarm adds re-attaches its own victim.
		if _, standbys, term := group(cl, w.sh); len(standbys) != 2 || term < 2 {
			t.Fatalf("after re-integration: %d standbys (want 2), term %d (want ≥ 2)", len(standbys), term)
		}
		w.mustWrite("rejoined")
	}
}

// doubleFailure kills the primary, lets the group elect and the old
// machine rejoin, then kills the NEW primary mid-soak: two full
// elections in one run.
func doubleFailure(t *testing.T, cl *Cluster, w *workload) {
	w.start(2)
	w.wait()
	p0 := killPrimary(t, cl, w.pick)
	w.start(2)
	waitForFailover(t, cl, p0, w.pick)
	// The dead machine rejoins, restoring the group to three live members
	// — without it a second election could not reach a majority of the
	// configured group, and the survivor would (correctly) refuse to serve.
	untilOK(t, "reintegrate p0", func(context.Context) error { return cl.Restart(p0) })
	w.wait()
	p1 := killPrimary(t, cl, w.pick)
	w.start(2)
	waitForFailover(t, cl, p1, w.pick)
	w.wait()
	if _, _, term := group(cl, w.sh); term < 3 {
		t.Fatalf("group term %d after two elections, want ≥ 3", term)
	}
}

// diskDeath kills the primary's DISK — not its machine — mid-soak. The
// NIC stays up, so no failure detector would ever fire; the wedged log
// must make the primary renounce leadership and fail-stop, and the
// standbys elect. The machine rejoins with a fresh disk.
func diskDeath(t *testing.T, cl *Cluster, w *workload) {
	w.start(3)
	w.wait()
	// Second wave first, THEN the disk death: the workers' writes are what
	// springs the injected fault.
	w.start(3)
	primary := wedgeServingWAL(t, cl, w.sh.label, w.pick)
	waitForFailover(t, cl, primary, w.pick)
	w.wait()
	if n := wedgedCount(cl, w.sh.label); n < 1 {
		t.Fatalf("amoeba_wal_wedged_total{%s} = %d, want ≥ 1", w.sh.label, n)
	}
	if n := demotedCount(cl, w.sh.label); n < 1 {
		t.Fatalf("amoeba_self_demotions_total{%s} = %d, want ≥ 1", w.sh.label, n)
	}
	untilOK(t, "reintegrate", func(context.Context) error { return cl.Restart(primary) })
	w.mustWrite("rejoined")
}

// oneWayPartition cuts the ACK direction only: every standby still hears
// the primary, the primary hears nothing back. The first post-cut batch
// reaches zero acks, so the primary seals before its lease lapses; a
// sealed primary stops transmitting on purpose, so the standbys finally
// observe silence, elect, and the clients — shed with StatusStale — fail
// over. The deposed primary was alive throughout and re-attaches itself.
func oneWayPartition(t *testing.T, cl *Cluster, w *workload) {
	w.start(2)
	w.wait()
	primary, standbys, _ := group(cl, w.sh)
	for _, sm := range standbys {
		cl.Net().PartitionOneWay(sm, primary)
	}
	w.start(2)
	waitForFailover(t, cl, primary, w.pick)
	w.wait()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		_, standbys, term := group(cl, w.sh)
		if term < 2 {
			t.Fatalf("group term %d after the one-way partition, want ≥ 2 (an election)", term)
		}
		if len(standbys) == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("group has %d live standbys after the one-way partition, want 2 (the deposed primary re-attaches itself)", len(standbys))
		}
	}
}

// flappingLink flaps the primary↔standby link faster than the detector
// gap: up 40ms, down 25ms, well inside the 225ms gap, so elections are
// rare — the exercise is the lost → reprobe → re-base cycle under a live
// write load, with the second standby keeping the majority.
func flappingLink(t *testing.T, cl *Cluster, w *workload) {
	primary, standbys, _ := group(cl, w.sh)
	stop := cl.Net().FlapLink(primary, standbys[0], 40*time.Millisecond, 25*time.Millisecond)
	defer stop()
	w.start(4)
	w.wait()
	stop() // heal for the read-back
}

// shardPrimaryKill kills shard 1's group primary (Shards=2 × Replicas=3).
// Shard 0's group is untouched: its calls must be answered on the FIRST
// try all through shard 1's outage and election (the client's own
// retries absorb the 1% loss), and the corpse rejoins its own shard.
func shardPrimaryKill(t *testing.T, cl *Cluster, w *workload) {
	w1 := w.onShard(1)
	mark := func(w *workload, tag string) {
		if err := w.enter(w.home, tag, w.home); err != nil {
			t.Fatal(err)
		}
	}
	for i := range 5 {
		mark(w, fmt.Sprintf("pre%d", i))
		mark(w1, fmt.Sprintf("pre%d", i))
	}
	victim := cl.ShardMachines(cl.DirPort())[1]
	if err := cl.Kill(victim); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(15 * time.Second)
	for probe := 0; cl.ShardMachines(cl.DirPort())[1] == victim; probe++ {
		if time.Now().After(deadline) {
			t.Fatal("shard 1 never failed over")
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		err := w.enterOnce(ctx, w.home, fmt.Sprintf("during%d", probe), w.home)
		cancel()
		if answered(err) != nil {
			t.Fatalf("shard 0 blipped during shard 1's outage: %v", err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	mark(w1, "post-failover")
	mark(w, "post-failover")
	if err := cl.Restart(victim); err != nil {
		t.Fatalf("reintegrating the killed primary: %v", err)
	}
	mark(w1, "post-reintegration")
	w1.readBack()
}

// migrate moves the hot directory, the workload's home, to the other
// shard and back while its writers enter names in it: two map
// generations, two gate windows. A cold directory's writers on the
// other shard carry on meanwhile. On a loss-free network the move is
// the only fault: every call is answered, and the cold directory never
// stalls for the gate window a whole-shard pause would cost.
func migrate(t *testing.T, cl *Cluster, w *workload) {
	cold := w.onShard(1)
	for range 2 {
		w.start(4)
		cold.start(4)
		time.Sleep(time.Millisecond) // writes in flight
		if _, took := hop(t, cl, w); took > time.Second {
			t.Fatalf("a migration took %v; the object-granular cut takes milliseconds", took)
		}
		w.wait()
	}
	if n := w.h.Count(servertest.Unknown); n != 0 {
		t.Fatalf("%d calls left without an answer on a loss-free network", n)
	}
	if cold.slowest > 250*time.Millisecond {
		t.Fatalf("a call on the other shard stalled %v during the migrations", cold.slowest)
	}
	acked(t, w, 12)
}

// migrateKill moves the hot directory and kills its new home's primary
// at once (Shards=2 × Replicas=3). A call the move bounced
// (StatusWrongShard → map refresh) then meets a dead authority: one
// extra LOCATE round per cause, which the locate budget re-arms for.
// After the election the same client, with the same locate cache and
// shard map, converges.
func migrateKill(t *testing.T, cl *Cluster, w *workload) {
	w.start(4)
	time.Sleep(time.Millisecond) // writes in flight
	// Unbounded: at 1 % loss, a lost frame costs a hop the client's 1 s
	// timeout.
	dst, _ := hop(t, cl, w)
	home := func(Machines) amnet.MachineID { return cl.ShardMachines(cl.DirPort())[dst] }
	waitForFailover(t, cl, killPrimary(t, cl, home), home)
	w.mustWrite("post-overlap")
	w.wait()
	acked(t, w, 12)
}

// hop migrates the workload's home to the other shard, and returns that
// shard and how long the move took.
func hop(t *testing.T, cl *Cluster, w *workload) (dst int, took time.Duration) {
	t.Helper()
	dst = 1 - cl.ShardOf(cl.DirPort(), w.home.Object)
	start := time.Now()
	if err := cl.Migrate(context.Background(), cl.DirPort(), w.home.Object, dst); err != nil {
		t.Fatalf("migrating to shard %d: %v", dst, err)
	}
	return dst, time.Since(start)
}

// acked fails a run whose history holds fewer than n acknowledged
// calls: the fault overlapped nothing.
func acked(t *testing.T, w *workload, n int) {
	t.Helper()
	if got := w.h.Count(servertest.Ok); got < n {
		t.Fatalf("%d calls acknowledged, want ≥ %d: the fault was not exercised", got, n)
	}
}

// drainHandoff drains a group primary mid-soak: a zero-downtime restart.
// The election runs inside Drain, a standby takes the put-port over, and
// the clients ride through on overload retries and locate failover. The
// drained machine is no exile: it rejoins as a fresh standby.
func drainHandoff(t *testing.T, cl *Cluster, w *workload) {
	primary := w.pick(cl.Machines())
	w.start(4)
	w.wait()
	w.start(4)
	if err := cl.Drain(primary); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if cl.Machines().Dirs == primary {
		t.Fatal("drain did not hand the service to a standby's machine")
	}
	w.wait()
	if err := cl.Restart(primary); err != nil {
		t.Fatalf("drained machine could not rejoin its group: %v", err)
	}
	if _, standbys, term := group(cl, w.sh); len(standbys) != 2 || term < 2 {
		t.Fatalf("after the drained machine rejoined: %d standbys (want 2), term %d (want ≥ 2)", len(standbys), term)
	}
}

// drainRestart drains a service with no standby: Drain parks it —
// admission refused, in-flight finished, final checkpoint taken — and
// Restart brings it back from the drained WAL.
func drainRestart(t *testing.T, cl *Cluster, w *workload) {
	w.start(6)
	w.wait()
	m := w.pick(cl.Machines())
	if err := cl.Drain(m); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	// Down means down: a quick call must fail, not hang on a half-alive
	// server.
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	_, err := w.dirs.List(ctx, w.home)
	cancel()
	if err == nil {
		t.Fatal("drained service still answered")
	}
	if err := cl.Restart(m); err != nil {
		t.Fatalf("Restart after drain: %v", err)
	}
	w.start(3)
}

// untilOK retries op (each attempt carrying the client's own internal
// retries) until it succeeds or the generous attempt budget — sized for
// a kill/restart window — runs out.
func untilOK(t *testing.T, what string, op func(ctx context.Context) error) {
	t.Helper()
	if err := retryOK(what, op); err != nil {
		t.Fatal(err)
	}
}

// retryOK is untilOK for goroutines other than the test's own, which may
// not call t.Fatal: it returns the failure instead.
func retryOK(what string, op func(ctx context.Context) error) error {
	var err error
	for attempt := 0; attempt < 60; attempt++ {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		err = op(ctx)
		cancel()
		if err == nil {
			return nil
		}
		// A fenced or overloaded primary answers instantly — without a
		// pause between tries, fast failures burn the whole attempt
		// budget inside a single failover window.
		time.Sleep(100 * time.Millisecond)
	}
	return fmt.Errorf("%s never converged: %w", what, err)
}

// group reads sh's primary, its live standbys — Replicas-1 of them on a
// whole group — and its term.
func group(cl *Cluster, sh *svcShard) (primary amnet.MachineID, standbys []amnet.MachineID, term uint64) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	for _, st := range sh.standbysLocked() {
		if !st.down {
			standbys = append(standbys, st.Machine())
		}
	}
	return sh.primary.Machine(), standbys, sh.term
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

// wedgedCount reads the cluster's wedged-WAL counter for one service.
func wedgedCount(cl *Cluster, service string) uint64 {
	return cl.reg.Counter("amoeba_wal_wedged_total", obs.L("service", service), wedgedHelp).Value()
}

// demotedCount reads the self-demotion counter for one service.
func demotedCount(cl *Cluster, service string) uint64 {
	return cl.reg.Counter("amoeba_self_demotions_total", obs.L("service", service), demotedHelp).Value()
}

// wedgeServingWAL kills the disk of whichever machine CURRENTLY serves
// the service: the next WAL write fails, the log wedges, and the machine
// self-demotes. The soak workers supply the write that springs the trap.
// A detector false alarm can legally move the crown between the read and
// the injection, leaving the fault on a corpse whose log never writes
// again — so injection re-aims until a wedge actually lands.
func wedgeServingWAL(t *testing.T, cl *Cluster, service string, pick func(Machines) amnet.MachineID) amnet.MachineID {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		before := wedgedCount(cl, service)
		m := pick(cl.Machines())
		if f := cl.WALFault(m); f != nil {
			f.FailWritesAfter(0)
		}
		for i := 0; i < 1000; i++ {
			if wedgedCount(cl, service) > before {
				return m
			}
			if pick(cl.Machines()) != m {
				break // crown moved mid-aim; target the new primary
			}
			time.Sleep(2 * time.Millisecond)
		}
		if time.Now().After(deadline) {
			t.Fatal("WAL fault never wedged a serving primary")
		}
	}
}
