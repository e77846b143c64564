// The repeated-kill schedule: ONE replication group, killed and
// re-attached round after round, so that from the second round on every
// primary is a machine that was itself a standby — and from the third, a
// standby that joined through a re-base. That is the schedule under which
// a stream position compared by sequence alone lost ~100 acknowledged
// operations (bench/README "What the benchmark found"): the siblings of a
// re-attached, later elected standby skipped its base and its first
// records as duplicates of sequence numbers they already held in the
// previous primary's numbering. Every call is recorded, the workload is
// read back every round, and servertest's checker judges the history.
package amoeba

import (
	"fmt"
	"math/rand"
	"testing"

	"amoeba/internal/amnet"
)

func rekillRounds() int {
	if testing.Short() {
		return 8
	}
	return 50
}

func TestRekillReattach(t *testing.T) {
	for _, replicas := range []int{3, 5} {
		for _, tc := range []struct {
			name string
			run  func(*testing.T, *Cluster, *workload, *rand.Rand)
		}{
			{"directory", rekillDirectory},
			{"bank", rekillBank},
		} {
			t.Run(fmt.Sprintf("%s/replicas=%d", tc.name, replicas), func(t *testing.T) {
				// Four independent clusters that mostly wait on failure
				// detectors: in parallel the table costs one row's time.
				t.Parallel()
				const seed = 0xBEEF
				cl := testCluster(t, ClusterConfig{Seed: seed, Replicas: replicas})
				// Kills fall between the rounds' calls, never across one:
				// zero echoes.
				w := newWorkload(t, cl, tc.name, 0, 0, seed)
				tc.run(t, cl, w, rand.New(rand.NewSource(seed)))
				w.verify(fmt.Sprintf("%d rounds", rekillRounds()))
			})
		}
	}
}

// rekillAndReattach is one round's fault: kill the group's primary, wait for
// the standbys to elect, re-attach the corpse as a fresh standby.
func rekillAndReattach(t *testing.T, cl *Cluster, pick func(Machines) amnet.MachineID) {
	t.Helper()
	killed := killPrimary(t, cl, pick)
	waitForFailover(t, cl, killed, pick)
	if err := cl.Restart(killed); err != nil {
		t.Fatalf("re-attaching machine %v: %v", killed, err)
	}
}

// rekillDirectory is the bench/README loop as code, with Enter and
// Remove mixed so that "removed entries come back" is caught as well as
// "entered entries vanish". The resident set stays near 400 names: clear
// of the one-frame List reply and the one-record checkpoint (ROADMAP 5).
func rekillDirectory(t *testing.T, cl *Cluster, w *workload, rng *rand.Rand) {
	const resident = 400
	var names []string // entered and not removed: what to remove next
	ops := func(round, half int) {
		for i := 0; i < 100; i++ {
			var err error
			if len(names) >= resident || (len(names) > 0 && rng.Intn(4) == 0) {
				at := rng.Intn(len(names))
				err = w.remove(w.home, names[at])
				names[at] = names[len(names)-1]
				names = names[:len(names)-1]
			} else {
				name := fmt.Sprintf("r%d-%d-%d", round, half, i)
				err = w.enter(w.home, name, w.home)
				names = append(names, name)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	for round := 0; round < rekillRounds(); round++ {
		ops(round, 0)
		rekillAndReattach(t, cl, w.pick)
		ops(round, 1)
		w.list(w.home)
	}
}

// rekillBank runs the same schedule against bank shard 0: seeded
// transfers among six accounts, every balance read back each round.
func rekillBank(t *testing.T, cl *Cluster, w *workload, rng *rand.Rand) {
	const accounts, grant = 6, 100_000
	caps := make([]Capability, accounts)
	for i := range caps {
		caps[i] = w.mustOpen(grant)
	}
	ops := func() {
		for i := 0; i < 100; i++ {
			from, to, amount := rng.Intn(accounts), rng.Intn(accounts), int64(1+rng.Intn(5))
			if from == to {
				continue
			}
			if err := w.transfer(caps[from], caps[to], amount); err != nil {
				t.Fatal(err)
			}
		}
	}
	for round := 0; round < rekillRounds(); round++ {
		ops()
		rekillAndReattach(t, cl, w.pick)
		ops()
		for _, c := range caps {
			w.balance(c)
		}
	}
}

// TestRekillReattachFatBase: the same fault with a directory whose base
// snapshot no longer fits one ship frame (800 names of 200 bytes, ~170
// KiB), so every join — the election's AttachGroup to the surviving
// standby, Restart's AddPeer of the fresh one — ships its base in
// fragments, to receivers based at the previous term and at none.
func TestRekillReattachFatBase(t *testing.T) {
	cl := testCluster(t, ClusterConfig{Seed: 0xFA7, Replicas: 3})
	w := newWorkload(t, cl, "directory", 0, 2, 0xFA7)
	var names []string
	enter := func(name string) {
		if err := w.enter(w.home, name, w.home); err != nil {
			t.Fatal(err)
		}
		names = append(names, name)
	}
	for i := 0; i < 800; i++ {
		enter(fmt.Sprintf("fat-%0196d", i))
	}
	for round := 0; round < 3; round++ {
		rekillAndReattach(t, cl, w.pick)
		enter(fmt.Sprintf("after-%0194d", round))
		// Looked up one by one: the listing itself is over one reply frame.
		for _, name := range names {
			w.lookup(w.home, name)
		}
		cl.mu.Lock()
		lost := w.sh.primary.Ship().LostPeers()
		cl.mu.Unlock()
		if lost != 0 {
			t.Fatalf("round %d: %d standbys off the stream after re-attachment", round, lost)
		}
	}
	if err := w.h.Check(); err != nil {
		t.Fatalf("seed %#x: %v", 0xFA7, err)
	}
}
