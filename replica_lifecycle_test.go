// One replica lifecycle: a group is Replicas fixed slots, and a machine
// leaves one and comes back through the same two functions whoever
// decided it. These are the tests of the two things that follow from
// that and did not hold before: an election nobody planned leaves the
// group whole, and a slot rebuilt any number of times holds on to
// nothing of its past occupants.
package amoeba

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"amoeba/internal/amnet"
	"amoeba/internal/obs"
)

// TestUnplannedElectionRestoresGroup: cut the primary off from every
// standby until they elect around it, heal, and — calling no Restart —
// the deposed machine is back as a standby, so that killing the NEW
// primary is survivable too. Before the slots were fixed the deposed
// primary sat outside the group until an operator restarted it, the
// second election was refused for want of a majority, and the service
// never came back.
func TestUnplannedElectionRestoresGroup(t *testing.T) {
	const seed = 0x57A1
	for _, tc := range []struct {
		service string
		subject func(*testing.T, *Cluster, int) lifecycleSubject
		pick    func(Machines) amnet.MachineID
	}{
		{"directory", directorySubject, func(m Machines) amnet.MachineID { return m.Dirs }},
		{"bank", bankSubject, func(m Machines) amnet.MachineID { return m.Bank }},
	} {
		for _, replicas := range []int{3, 5} {
			t.Run(fmt.Sprintf("%s/replicas=%d", tc.service, replicas), func(t *testing.T) {
				t.Parallel() // independent clusters that mostly wait on detectors
				cl, err := NewCluster(ClusterConfig{Seed: seed, Replicas: replicas})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { cl.Close() })
				defer func() {
					if t.Failed() {
						t.Logf("seed %#x", seed)
					}
				}()
				sub := tc.subject(t, cl, 0)
				sh := sub.sh
				write := func(tag string, n int) {
					for i := 0; i < n; i++ {
						if err := sub.write(fmt.Sprintf("%s-%d", tag, i)); err != nil {
							t.Fatal(err)
						}
					}
				}
				group := func() (primary amnet.MachineID, standbys []amnet.MachineID, term uint64) {
					cl.mu.Lock()
					defer cl.mu.Unlock()
					for _, st := range sh.standbysLocked() {
						if !st.down {
							standbys = append(standbys, st.machine)
						}
					}
					return sh.primary.machine, standbys, sh.term
				}
				until := func(what string, ok func() bool) {
					t.Helper()
					for deadline := time.Now().Add(15 * time.Second); !ok(); time.Sleep(2 * time.Millisecond) {
						if time.Now().After(deadline) {
							t.Fatalf("%s (elections refused: %d)", what, cl.reg.Counter("amoeba_elections_refused_total",
								obs.L("service", sh.label), "elections refused (no live quorum, or a sibling still hears the primary)").Value())
						}
					}
				}
				reintegrations := cl.reg.Counter("amoeba_reintegrations_total", obs.L("service", sh.label), reintegrationsHelp)

				write("before", 20)
				deposed, standbys, term0 := group()
				reint0 := reintegrations.Value()
				for _, st := range standbys {
					cl.Net().Partition(deposed, st)
				}
				until("the standbys never elected around the partitioned primary", func() bool {
					_, _, term := group()
					return term > term0
				})
				for _, st := range standbys {
					cl.Net().Heal(deposed, st)
				}
				until("the group never got back to full strength on its own", func() bool {
					_, standbys, _ := group()
					return len(standbys) == replicas-1
				})
				if reintegrations.Value() == reint0 {
					t.Fatal("group is whole but amoeba_reintegrations_total did not move")
				}
				if cl.Restart(deposed) != nil {
					t.Fatal("Restart of the machine that re-attached itself should have nothing left to do")
				}

				write("between", 20)
				second := killPrimary(t, cl, tc.pick)
				until("second election never happened", func() bool { return tc.pick(cl.Machines()) != second })
				write("after", 5)
				sub.verify("two elections, one of them unplanned")
			})
		}
	}
}

// TestLifecycleLeaksNothing: every incarnation a slot ever held is gone
// when the next one takes its place — nothing keeps a closer, a
// disk-fault handle, a 1 MiB log disk or a goroutine of a dead
// machine's. (Each used to leave four closures on a list only Close
// drained: 40 restarts of one standby grew it from 27 to 147 entries
// and the heap by 42 MiB.)
func TestLifecycleLeaksNothing(t *testing.T) {
	cl, err := NewCluster(ClusterConfig{Seed: 0x1EAC, Replicas: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	sub := directorySubject(t, cl, 0)
	pick := func(m Machines) amnet.MachineID { return m.Dirs }
	held := func() (closers, faults int, heap uint64) {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		cl.closersMu.Lock()
		closers = len(cl.closers)
		cl.closersMu.Unlock()
		cl.mu.Lock()
		faults = len(cl.walFaults)
		cl.mu.Unlock()
		return closers, faults, ms.HeapInuse
	}
	write := func(tag string) {
		if err := sub.write(tag); err != nil {
			t.Fatal(err)
		}
	}
	write("boot")
	closers0, faults0, heap0 := held()
	goroutines0 := runtime.NumGoroutine()

	for i := 0; i < 40; i++ {
		cl.mu.Lock()
		st := sub.sh.standbysLocked()[0].machine
		cl.mu.Unlock()
		if err := cl.Kill(st); err != nil {
			t.Fatal(err)
		}
		untilOK(t, "restart standby", func(context.Context) error { return cl.Restart(st) })
		write(fmt.Sprintf("standby-%d", i))
	}
	for i := 0; i < 10; i++ {
		old := killPrimary(t, cl, pick)
		waitForFailover(t, cl, old, pick)
		untilOK(t, "restart primary", func(context.Context) error { return cl.Restart(old) })
		write(fmt.Sprintf("primary-%d", i))
	}
	sub.verify("50 rebuilt slots")

	closers, faults, heap := held()
	t.Logf("closers %d → %d, WAL fault handles %d → %d, heap in use %d → %d KiB", closers0, closers, faults0, faults, heap0>>10, heap>>10)
	if closers != closers0 || faults != faults0 {
		t.Errorf("after 50 kill+restart cycles: %d closers (boot %d), %d WAL fault handles (boot %d)", closers, closers0, faults, faults0)
	}
	if grown := int64(heap) - int64(heap0); grown >= 8<<20 {
		t.Errorf("heap in use grew %d KiB over 50 kill+restart cycles, want < 8 MiB", grown>>10)
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > goroutines0; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after 50 kill+restart cycles, %d at boot", runtime.NumGoroutine(), goroutines0)
		}
	}
}
