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
	for _, service := range []string{"directory", "bank"} {
		for _, replicas := range []int{3, 5} {
			t.Run(fmt.Sprintf("%s/replicas=%d", service, replicas), func(t *testing.T) {
				t.Parallel() // independent clusters that mostly wait on detectors
				cl := testCluster(t, ClusterConfig{Seed: seed, Replicas: replicas})
				w := newWorkload(t, cl, service, 0, 2, seed)
				sh := w.sh
				write := func(tag string, n int) {
					for i := 0; i < n; i++ {
						w.mustWrite(fmt.Sprintf("%s-%d", tag, i))
					}
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
				deposed, standbys, term0 := group(cl, sh)
				reint0 := reintegrations.Value()
				for _, st := range standbys {
					cl.Net().Partition(deposed, st)
				}
				until("the standbys never elected around the partitioned primary", func() bool {
					_, _, term := group(cl, sh)
					return term > term0
				})
				for _, st := range standbys {
					cl.Net().Heal(deposed, st)
				}
				until("the group never got back to full strength on its own", func() bool {
					_, standbys, _ := group(cl, sh)
					return len(standbys) == replicas-1
				})
				if reintegrations.Value() == reint0 {
					t.Fatal("group is whole but amoeba_reintegrations_total did not move")
				}
				if cl.Restart(deposed) != nil {
					t.Fatal("Restart of the machine that re-attached itself should have nothing left to do")
				}

				write("between", 20)
				second := killPrimary(t, cl, w.pick)
				until("second election never happened", func() bool { return w.pick(cl.Machines()) != second })
				write("after", 5)
				w.verify("two elections, one of them unplanned")
			})
		}
	}
}

// TestLifecycleLeaksNothing: every incarnation a slot ever held is gone
// when the next one takes its place — nothing keeps a closer, a 1 MiB
// log disk or a goroutine of a dead machine's. (A disk-fault handle is
// the replica's own and dies with it.) (Each used to leave four closures on a list only Close
// drained: 40 restarts of one standby grew it from 27 to 147 entries
// and the heap by 42 MiB.)
func TestLifecycleLeaksNothing(t *testing.T) {
	cl := testCluster(t, ClusterConfig{Seed: 0x1EAC, Replicas: 3})
	w := newWorkload(t, cl, "directory", 0, 2, 0x1EAC)
	held := func() (closers int, heap uint64) {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		cl.closersMu.Lock()
		closers = len(cl.closers)
		cl.closersMu.Unlock()
		return closers, ms.HeapInuse
	}
	w.mustWrite("boot")
	closers0, heap0 := held()
	goroutines0 := runtime.NumGoroutine()

	for i := 0; i < 40; i++ {
		_, standbys, _ := group(cl, w.sh)
		st := standbys[0]
		if err := cl.Kill(st); err != nil {
			t.Fatal(err)
		}
		untilOK(t, "restart standby", func(context.Context) error { return cl.Restart(st) })
		w.mustWrite(fmt.Sprintf("standby-%d", i))
	}
	for i := 0; i < 10; i++ {
		old := killPrimary(t, cl, w.pick)
		waitForFailover(t, cl, old, w.pick)
		untilOK(t, "restart primary", func(context.Context) error { return cl.Restart(old) })
		w.mustWrite(fmt.Sprintf("primary-%d", i))
	}
	w.verify("50 rebuilt slots")

	closers, heap := held()
	t.Logf("closers %d → %d, heap in use %d → %d KiB", closers0, closers, heap0>>10, heap>>10)
	if closers != closers0 {
		t.Errorf("after 50 kill+restart cycles: %d closers (boot %d)", closers, closers0)
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
