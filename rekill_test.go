// The repeated-kill schedule: ONE replication group, killed and
// re-attached round after round, so that from the second round on every
// primary is a machine that was itself a standby — and from the third, a
// standby that joined through a re-base. That is the schedule under which
// a stream position compared by sequence alone lost ~100 acknowledged
// operations (bench/README "What the benchmark found"): the siblings of a
// re-attached, later elected standby skipped its base and its first
// records as duplicates of sequence numbers they already held in the
// previous primary's numbering. TestRekillReattach is the test that
// enforces "acked ⟹ survives" across re-attachment.
package amoeba

import (
	"context"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"strings"
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
			run  func(*testing.T, *Cluster, uint64)
		}{
			{"directory", rekillDirectory},
			{"bank", rekillBank},
		} {
			t.Run(fmt.Sprintf("%s/replicas=%d", tc.name, replicas), func(t *testing.T) {
				// Four independent clusters that mostly wait on failure
				// detectors: in parallel the table costs one row's time.
				t.Parallel()
				const seed = 0xBEEF
				cl, err := NewCluster(ClusterConfig{Seed: seed, Replicas: replicas})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { cl.Close() })
				tc.run(t, cl, seed)
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
func rekillDirectory(t *testing.T, cl *Cluster, seed uint64) {
	const resident = 400
	dirs := cl.Dirs()
	rng := rand.New(rand.NewSource(int64(seed)))
	var root Capability
	untilOK(t, "create root", func(ctx context.Context) error {
		var err error
		root, err = dirs.CreateDir(ctx, cl.DirPort())
		return err
	})
	var names []string // the model: every name entered and not removed
	ops := func(round, half int) {
		for i := 0; i < 100; i++ {
			if len(names) >= resident || (len(names) > 0 && rng.Intn(4) == 0) {
				at := rng.Intn(len(names))
				name := names[at]
				untilOK(t, "remove "+name, func(ctx context.Context) error {
					err := dirs.Remove(ctx, root, name)
					if err != nil && strings.Contains(err.Error(), "no entry") {
						return nil // a retry of a remove that had landed
					}
					return err
				})
				names[at] = names[len(names)-1]
				names = names[:len(names)-1]
				continue
			}
			name := fmt.Sprintf("r%d-%d-%d", round, half, i)
			untilOK(t, "enter "+name, func(ctx context.Context) error {
				err := dirs.Enter(ctx, root, name, root)
				if err != nil && strings.Contains(err.Error(), "exists") {
					return nil // a retry of an enter that had landed
				}
				return err
			})
			names = append(names, name)
		}
	}
	for round := 0; round < rekillRounds(); round++ {
		ops(round, 0)
		rekillAndReattach(t, cl, func(m Machines) amnet.MachineID { return m.Dirs })
		ops(round, 1)
		model, listed := map[string]bool{}, map[string]bool{}
		for _, name := range names {
			model[name] = true
		}
		untilOK(t, "list", func(ctx context.Context) error {
			entries, err := dirs.List(ctx, root)
			clear(listed)
			for _, e := range entries {
				listed[e.Name] = true
			}
			return err
		})
		if !maps.Equal(listed, model) {
			var lost, back []string
			for name := range model {
				if !listed[name] {
					lost = append(lost, name)
				}
			}
			for name := range listed {
				if !model[name] {
					back = append(back, name)
				}
			}
			slices.Sort(lost)
			slices.Sort(back)
			t.Fatalf("seed %#x round %d: listing has %d of %d acknowledged entries; %d lost (first: %v), %d removed came back (first: %v)",
				seed, round, len(listed)-len(back), len(model), len(lost), lost[:min(len(lost), 5)], len(back), back[:min(len(back), 5)])
		}
	}
}

// rekillBank runs the same schedule against bank shard 0: seeded
// transfers among six accounts, every balance compared with the model
// each round and the total conserved.
func rekillBank(t *testing.T, cl *Cluster, seed uint64) {
	const accounts, grant = 6, 100_000
	bank := cl.Bank()
	rng := rand.New(rand.NewSource(int64(seed)))
	caps := make([]Capability, accounts)
	model := make([]int64, accounts)
	for i := range caps {
		untilOK(t, "create account", func(ctx context.Context) error {
			var err error
			caps[i], err = bank.CreateAccount(ctx, "dollar", grant)
			return err
		})
		model[i] = grant
	}
	balances := func() []int64 {
		got := make([]int64, accounts)
		for i := range caps {
			untilOK(t, "balance", func(ctx context.Context) error {
				bal, err := bank.Balance(ctx, caps[i])
				got[i] = bal["dollar"]
				return err
			})
		}
		return got
	}
	ops := func() {
		for i := 0; i < 100; i++ {
			from, to, amount := rng.Intn(accounts), rng.Intn(accounts), int64(1+rng.Intn(5))
			if from == to {
				continue
			}
			tries := 0
			untilOK(t, "transfer", func(ctx context.Context) error {
				tries++
				return bank.Transfer(ctx, caps[from], caps[to], "dollar", amount)
			})
			model[from] -= amount
			model[to] += amount
			if tries > 1 {
				// A failed try may have landed all the same; a transfer is
				// not idempotent, so take the server's word for this one.
				model = balances()
			}
		}
	}
	for round := 0; round < rekillRounds(); round++ {
		ops()
		rekillAndReattach(t, cl, func(m Machines) amnet.MachineID { return m.Bank })
		ops()
		got := balances()
		total := int64(0)
		for _, b := range got {
			total += b
		}
		if total != accounts*grant {
			t.Fatalf("seed %#x round %d: money not conserved: %d, want %d", seed, round, total, accounts*grant)
		}
		if !slices.Equal(got, model) {
			t.Fatalf("seed %#x round %d: acknowledged transfers lost: balances %v, want %v", seed, round, got, model)
		}
	}
}

// TestRekillReattachFatBase: the same fault with a directory whose base
// snapshot no longer fits one ship frame (800 names of 200 bytes, ~170
// KiB), so every join — the election's AttachGroup to the surviving
// standby, Restart's AddPeer of the fresh one — ships its base in
// fragments, to receivers based at the previous term and at none.
func TestRekillReattachFatBase(t *testing.T) {
	cl, err := NewCluster(ClusterConfig{Seed: 0xFA7, Replicas: 3})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	dirs := cl.Dirs()
	var root Capability
	untilOK(t, "create root", func(ctx context.Context) error {
		var err error
		root, err = dirs.CreateDir(ctx, cl.DirPort())
		return err
	})
	var names []string
	enter := func(name string) {
		untilOK(t, "enter "+name[:12], func(ctx context.Context) error {
			err := dirs.Enter(ctx, root, name, root)
			if err != nil && strings.Contains(err.Error(), "exists") {
				return nil // a retry of an enter that had landed
			}
			return err
		})
		names = append(names, name)
	}
	for i := 0; i < 800; i++ {
		enter(fmt.Sprintf("fat-%0196d", i))
	}
	for round := 0; round < 3; round++ {
		rekillAndReattach(t, cl, func(m Machines) amnet.MachineID { return m.Dirs })
		enter(fmt.Sprintf("after-%0194d", round))
		// Looked up one by one: the listing itself is over one reply frame.
		for _, name := range names {
			untilOK(t, "lookup "+name[:12], func(ctx context.Context) error {
				_, err := dirs.Lookup(ctx, root, name)
				return err
			})
		}
		cl.mu.Lock()
		lost := cl.shards["directory"][0].primary.ship.LostPeers()
		cl.mu.Unlock()
		if lost != 0 {
			t.Fatalf("round %d: %d standbys off the stream after re-attachment", round, lost)
		}
	}
}
