// Gray-failure chaos tests: failures the classic fail-stop model cannot
// see. A disk dies while the NIC keeps answering (the machine looks
// alive to every failure detector); a link drops frames in one
// direction only (the primary can send but not hear); a link flaps
// faster than anyone can write it off. The invariants are the same as
// the fail-stop suite's — zero acknowledged operations lost, exact
// conservation — but the detection path is new: wedged WALs self-demote
// the primary, sealed primaries go deliberately silent, and clients are
// shed with StatusStale so they fail over in one round trip.
package amoeba

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"amoeba/internal/amnet"
	"amoeba/internal/obs"
)

// wedgedCount reads the cluster's wedged-WAL counter for one service.
func wedgedCount(cl *Cluster, service string) uint64 {
	return cl.reg.Counter("amoeba_wal_wedged_total", obs.L("service", service), wedgedHelp).Value()
}

// demotedCount reads the self-demotion counter for one service.
func demotedCount(cl *Cluster, service string) uint64 {
	return cl.reg.Counter("amoeba_self_demotions_total", obs.L("service", service), demotedHelp).Value()
}

// wedgeServingWAL kills the disk of whichever machine CURRENTLY serves
// the service: the next WAL write fails, the log wedges, and the
// machine self-demotes. The soak workers supply the write that springs
// the trap. A detector false alarm can legally move the crown between
// the read and the injection, leaving the fault on a corpse whose log
// never writes again — so injection re-aims until a wedge actually
// lands.
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

// TestChaosDiskDeathDirsvr kills the directory primary's DISK — not its
// machine — mid-soak. The NIC stays up, so without the wedge→demotion
// path no failure detector would ever fire; with it, the primary
// renounces leadership, fail-stops, the standbys elect, and every
// acknowledged entry survives exactly.
func TestChaosDiskDeathDirsvr(t *testing.T) {
	for i := 0; i < killRestartSeeds(t); i++ {
		t.Run(fmt.Sprintf("seed=%d", i), func(t *testing.T) {
			runDiskDeathDirsvr(t, 0xD15C_0000+uint64(i))
		})
	}
}

func runDiskDeathDirsvr(t *testing.T, seed uint64) {
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

	// Second soak wave first, THEN the disk death: the workers' writes
	// are what springs the injected fault.
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := perWorker / 2; i < perWorker; i++ {
				enter(g, i)
			}
		}(g)
	}
	primary := wedgeServingWAL(t, cl, "directory", func(m Machines) amnet.MachineID { return m.Dirs })
	waitForFailover(t, cl, primary, func(m Machines) amnet.MachineID { return m.Dirs })
	wg.Wait()

	// Every acknowledged entry survived the disk death with its exact
	// capability — acknowledged means on a majority, and the election
	// picked the highest-acked standby.
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
		t.Fatalf("root has %d entries after the disk death, want %d", len(listed), workers*perWorker)
	}
	for g := 0; g < workers; g++ {
		for i := 0; i < perWorker; i++ {
			name := fmt.Sprintf("w%d-e%d", g, i)
			got, ok := listed[name]
			if !ok {
				t.Fatalf("acknowledged entry %q lost to the disk death", name)
			}
			if got != subs[g*perWorker+i] {
				t.Fatalf("entry %q survived with a different capability", name)
			}
		}
	}
	if n := wedgedCount(cl, "directory"); n < 1 {
		t.Fatalf("amoeba_wal_wedged_total{directory} = %d, want ≥ 1", n)
	}
	if n := demotedCount(cl, "directory"); n < 1 {
		t.Fatalf("amoeba_self_demotions_total{directory} = %d, want ≥ 1", n)
	}

	// The machine whose disk died rejoins with a FRESH disk (Restart
	// builds a new incarnation, and a replaced disk is a healthy one).
	untilOK(t, "reintegrate", func(ctx context.Context) error { return cl.Restart(primary) })
	untilOK(t, "post-reintegration enter", func(ctx context.Context) error {
		err := dirs.Enter(ctx, root, "rejoined", root)
		if err != nil && strings.Contains(err.Error(), "exists") {
			return nil
		}
		return err
	})
}

// TestChaosDiskDeathBanksvr is the bank-server variant: the primary's
// disk dies mid-transfer soak, and after the self-demotion election
// every dollar is still in exactly one account.
func TestChaosDiskDeathBanksvr(t *testing.T) {
	for i := 0; i < killRestartSeeds(t); i++ {
		t.Run(fmt.Sprintf("seed=%d", i), func(t *testing.T) {
			runDiskDeathBanksvr(t, 0xD15C_B000+uint64(i))
		})
	}
}

func runDiskDeathBanksvr(t *testing.T, seed uint64) {
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

	for g := 0; g < workers; g++ {
		wg.Add(1)
		go work(g, transfers/2)
	}
	primary := wedgeServingWAL(t, cl, "bank", func(m Machines) amnet.MachineID { return m.Bank })
	waitForFailover(t, cl, primary, func(m Machines) amnet.MachineID { return m.Bank })
	wg.Wait()

	// Exact money conservation through the wedge, demotion and election.
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
		t.Fatalf("money not conserved across the disk death: %d, want %d", total, accounts*grant)
	}
	if n := demotedCount(cl, "bank"); n < 1 {
		t.Fatalf("amoeba_self_demotions_total{bank} = %d, want ≥ 1", n)
	}
}

// TestChaosOneWayPartition cuts the ACK direction only: every standby
// still hears the primary perfectly, but the primary hears nothing
// back. The gray trap is that the standbys' contact clocks stay fresh
// while the primary serves blind. Safety: the first post-cut batch
// reaches zero acks, so the primary seals before its lease lapses and
// never acknowledges an op the next term's quorum doesn't hold.
// Liveness: a sealed primary stops transmitting on purpose, so the
// standbys finally observe silence, elect, and the clients — shed with
// StatusStale — fail over to the successor.
func TestChaosOneWayPartition(t *testing.T) {
	for i := 0; i < killRestartSeeds(t); i++ {
		t.Run(fmt.Sprintf("seed=%d", i), func(t *testing.T) {
			runOneWayPartition(t, 0x04E1_0000+uint64(i))
		})
	}
}

func runOneWayPartition(t *testing.T, seed uint64) {
	cl := groupCluster(t, seed)
	dirs := cl.Dirs()

	var root Capability
	untilOK(t, "create root", func(ctx context.Context) error {
		var err error
		root, err = dirs.CreateDir(ctx, cl.DirPort())
		return err
	})

	const workers, perWorker = 4, 4
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

	// Sever standby→primary for every standby: acknowledgements and
	// lease grants vanish; the primary's own frames still arrive.
	cl.mu.Lock()
	primary := cl.shards["directory"][0].primary.Machine()
	var standbys []amnet.MachineID
	for _, st := range cl.shards["directory"][0].standbysLocked() {
		if !st.down {
			standbys = append(standbys, st.Machine())
		}
	}
	cl.mu.Unlock()
	for _, sm := range standbys {
		cl.Net().PartitionOneWay(sm, primary)
	}

	// Soak straight through the partition. The first post-cut batch
	// seals the primary (zero acks < majority); the workers' retries
	// ride the StatusStale shed to the successor.
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := perWorker / 2; i < perWorker; i++ {
				enter(g, i)
			}
		}(g)
	}
	waitForFailover(t, cl, primary, func(m Machines) amnet.MachineID { return m.Dirs })
	wg.Wait()

	// Everything acknowledged — by the old primary before sealing, or by
	// the successor after — is present with its exact capability.
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
		t.Fatalf("root has %d entries after the one-way partition, want %d", len(listed), workers*perWorker)
	}
	for g := 0; g < workers; g++ {
		for i := 0; i < perWorker; i++ {
			name := fmt.Sprintf("w%d-e%d", g, i)
			got, ok := listed[name]
			if !ok {
				t.Fatalf("acknowledged entry %q lost to the one-way partition", name)
			}
			if got != subs[g*perWorker+i] {
				t.Fatalf("entry %q survived with a different capability", name)
			}
		}
	}
	cl.mu.Lock()
	term := cl.shards["directory"][0].term
	cl.mu.Unlock()
	if term < 2 {
		t.Fatalf("group term %d after the one-way partition, want ≥ 2 (an election)", term)
	}
	// The deposed primary was alive throughout: nobody restarts it, and
	// the group is three live members again.
	for deadline := time.Now().Add(5 * time.Second); liveStandbys(cl, cl.shards["directory"][0]) != 2; {
		if time.Now().After(deadline) {
			t.Fatalf("group has %d live standbys after the one-way partition, want 2 (the deposed primary re-attaches itself)",
				liveStandbys(cl, cl.shards["directory"][0]))
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestChaosFlappingLink flaps the primary↔standby link faster than the
// detector gap: the peer is repeatedly written off and re-based, but
// with the second standby steady the majority holds, the service stays
// available, and nothing acknowledged is lost.
func TestChaosFlappingLink(t *testing.T) {
	for i := 0; i < killRestartSeeds(t); i++ {
		t.Run(fmt.Sprintf("seed=%d", i), func(t *testing.T) {
			runFlappingLink(t, 0xF1A9_0000+uint64(i))
		})
	}
}

func runFlappingLink(t *testing.T, seed uint64) {
	cl := groupCluster(t, seed)
	dirs := cl.Dirs()

	var root Capability
	untilOK(t, "create root", func(ctx context.Context) error {
		var err error
		root, err = dirs.CreateDir(ctx, cl.DirPort())
		return err
	})

	cl.mu.Lock()
	primary := cl.shards["directory"][0].primary.Machine()
	flappy := cl.shards["directory"][0].standbysLocked()[0].Machine()
	cl.mu.Unlock()
	// Up 40ms, down 25ms: the down windows are well inside the 225ms
	// detector gap, so elections are rare — the exercise is the lost→
	// reprobe→re-base cycle under a live write load, not failover.
	stop := cl.Net().FlapLink(primary, flappy, 40*time.Millisecond, 25*time.Millisecond)
	defer stop()

	const workers, perWorker = 4, 4
	subs := make([]Capability, workers*perWorker)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
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
		}(g)
	}
	wg.Wait()
	stop() // heal for the verification reads

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
		t.Fatalf("root has %d entries after the link flap, want %d", len(listed), workers*perWorker)
	}
	for g := 0; g < workers; g++ {
		for i := 0; i < perWorker; i++ {
			name := fmt.Sprintf("w%d-e%d", g, i)
			if got, ok := listed[name]; !ok || got != subs[g*perWorker+i] {
				t.Fatalf("entry %q lost or changed through the link flap", name)
			}
		}
	}
}

// TestStandbyWedgeDropsFromQuorum wedges one STANDBY's disk: the
// receiver answers every subsequent frame with its death, the shipper
// writes the peer off, and the group keeps serving on primary + the
// healthy standby (majorities count the configured size, so nothing
// loosens). Kill + Restart re-integrates the machine with a fresh disk.
func TestStandbyWedgeDropsFromQuorum(t *testing.T) {
	cl := groupCluster(t, 0x57DB)
	dirs := cl.Dirs()

	var root Capability
	untilOK(t, "create root", func(ctx context.Context) error {
		var err error
		root, err = dirs.CreateDir(ctx, cl.DirPort())
		return err
	})

	cl.mu.Lock()
	primary := cl.shards["directory"][0].primary.Machine()
	stMachine := cl.shards["directory"][0].standbysLocked()[0].Machine()
	cl.mu.Unlock()
	cl.WALFault(stMachine).FailWritesAfter(0)

	// Writes keep landing: the wedged standby errors every frame, the
	// shipper retries, writes it off, and serves on the remaining
	// majority.
	for i := 0; i < 8; i++ {
		name := fmt.Sprintf("through-wedge-%d", i)
		untilOK(t, "enter "+name, func(ctx context.Context) error {
			err := dirs.Enter(ctx, root, name, root)
			if err != nil && strings.Contains(err.Error(), "exists") {
				return nil
			}
			return err
		})
	}
	deadline := time.Now().Add(15 * time.Second)
	for {
		cl.mu.Lock()
		lost := cl.shards["directory"][0].primary.Ship().LostPeers()
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
	if standbys := liveStandbys(cl, cl.shards["directory"][0]); standbys != 2 {
		t.Fatalf("group has %d live standbys after re-integration, want 2", standbys)
	}
	untilOK(t, "write after standby rejoin", func(ctx context.Context) error {
		err := dirs.Enter(ctx, root, "rejoined", root)
		if err != nil && strings.Contains(err.Error(), "exists") {
			return nil
		}
		return err
	})
}

// TestStandbyWedgeThenPrimaryDeath: the primary dies while a wedged
// standby is still up, so the winner of the election cannot hand that
// standby a base. The winner must serve anyway, with the wedged peer
// starting out lost, and Kill + Restart of the wedged machine must give
// it back its quorum. Every acknowledged entry survives.
func TestStandbyWedgeThenPrimaryDeath(t *testing.T) {
	cl := groupCluster(t, 0x57DC)
	dirs := cl.Dirs()
	var root Capability
	untilOK(t, "create root", func(ctx context.Context) error {
		var err error
		root, err = dirs.CreateDir(ctx, cl.DirPort())
		return err
	})
	var acked []string
	enter := func(name string) {
		untilOK(t, "enter "+name, func(ctx context.Context) error {
			err := dirs.Enter(ctx, root, name, root)
			if err != nil && strings.Contains(err.Error(), "exists") {
				return nil
			}
			return err
		})
		acked = append(acked, name)
	}
	for i := 0; i < 4; i++ {
		enter(fmt.Sprintf("before-wedge-%d", i))
	}

	sh := cl.shards["directory"][0]
	cl.mu.Lock()
	wedged := sh.standbysLocked()[0].Machine()
	cl.mu.Unlock()
	lost := func() int {
		cl.mu.Lock()
		defer cl.mu.Unlock()
		return sh.primary.Ship().LostPeers()
	}
	cl.WALFault(wedged).FailWritesAfter(0)
	for i := 0; len(acked) < 8 || lost() < 1; i++ {
		if i > 2000 {
			t.Fatal("wedged standby never written off the ack quorum")
		}
		enter(fmt.Sprintf("through-wedge-%d", i))
	}

	old := killPrimary(t, cl, func(m Machines) amnet.MachineID { return m.Dirs })
	waitForFailover(t, cl, old, func(m Machines) amnet.MachineID { return m.Dirs })
	if err := cl.Kill(wedged); err != nil {
		t.Fatal(err)
	}
	untilOK(t, "restart the wedged standby", func(context.Context) error { return cl.Restart(wedged) })
	untilOK(t, "restart the old primary", func(context.Context) error { return cl.Restart(old) })
	enter("after")
	for _, name := range acked {
		untilOK(t, "lookup "+name, func(ctx context.Context) error {
			_, err := dirs.Lookup(ctx, root, name)
			return err
		})
	}
	if standbys := liveStandbys(cl, sh); standbys != 2 {
		t.Fatalf("group has %d live standbys after both restarts, want 2", standbys)
	}
}
