// Crash/restart chaos tests: kill a durable server mid-soak, restart
// it on the same cluster, and require (a) clients converge onto the
// reincarnation via locate failover, and (b) the replayed state obeys
// the service invariants — every acknowledged directory entry present,
// every dollar accounted for. Runs are seeded; CI repeats them under
// -race.
package amoeba

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// killRestartSeeds is how many seeded runs each chaos test performs
// (the acceptance bar is 20 consecutive green runs; -short trims).
func killRestartSeeds(t *testing.T) int {
	if testing.Short() {
		return 4
	}
	return 20
}

// killCluster is a cluster under mild network chaos — the crash itself
// is the main fault — with fast client timeouts so failover retries
// turn around quickly.
func killCluster(t *testing.T, seed uint64) *Cluster {
	t.Helper()
	cl, err := NewCluster(ClusterConfig{
		Seed:     seed,
		LossRate: 0.01,
		Latency:  50 * time.Microsecond,
		Jitter:   100 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

// untilOK retries op (each attempt carrying the client's own internal
// retries) until it succeeds or the generous attempt budget — sized
// for a kill/restart window — runs out.
func untilOK(t *testing.T, what string, op func(ctx context.Context) error) {
	t.Helper()
	if err := retryOK(what, op); err != nil {
		t.Fatal(err)
	}
}

// retryOK is untilOK for goroutines other than the test's own, which
// may not call t.Fatal: it returns the failure instead.
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

func TestChaosKillRestartDirsvr(t *testing.T) {
	for i := 0; i < killRestartSeeds(t); i++ {
		t.Run(fmt.Sprintf("seed=%d", i), func(t *testing.T) {
			runKillRestartDirsvr(t, 0xD00D_0000+uint64(i))
		})
	}
}

func runKillRestartDirsvr(t *testing.T, seed uint64) {
	cl := killCluster(t, seed)
	dirs := cl.Dirs()

	var root Capability
	untilOK(t, "create root", func(ctx context.Context) error {
		var err error
		root, err = dirs.CreateDir(ctx, cl.DirPort())
		return err
	})

	// Phase 1: workers file entries while the server is up; each entry
	// is a freshly created subdirectory, so the test also proves
	// created capabilities survive the crash. An "entry exists" error
	// is a success: the enter landed and the (lost-reply) retry hit
	// at-least-once semantics.
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

	// Crash the directory server, then keep working through the
	// outage: the second half of the entries is filed while workers
	// race the restart, exercising timeout → invalidate → LOCATE
	// failover on a live workload.
	if err := cl.Kill(cl.Machines().Dirs); err != nil {
		t.Fatal(err)
	}
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := perWorker / 2; i < perWorker; i++ {
				enter(g, i)
			}
		}(g)
	}
	time.Sleep(5 * time.Millisecond) // let some attempts hit the corpse
	if err := cl.Restart(cl.Machines().Dirs); err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	// Convergence: every acknowledged entry is present and maps to the
	// exact capability the client was handed before the crash.
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
		t.Fatalf("root has %d entries after replay, want %d", len(listed), workers*perWorker)
	}
	for g := 0; g < workers; g++ {
		for i := 0; i < perWorker; i++ {
			name := fmt.Sprintf("w%d-e%d", g, i)
			got, ok := listed[name]
			if !ok {
				t.Fatalf("acknowledged entry %q lost in the crash", name)
			}
			if got != subs[g*perWorker+i] {
				t.Fatalf("entry %q replayed with a different capability", name)
			}
		}
	}
	// The replayed subdirectory capabilities must still validate (the
	// table secrets were recovered, not re-rolled).
	untilOK(t, "lookup into replayed subdir", func(ctx context.Context) error {
		if err := dirs.Enter(ctx, subs[0], "alive", root); err != nil && !strings.Contains(err.Error(), "exists") {
			return err
		}
		_, err := dirs.Lookup(ctx, subs[0], "alive")
		return err
	})
}

func TestChaosKillRestartBanksvr(t *testing.T) {
	for i := 0; i < killRestartSeeds(t); i++ {
		t.Run(fmt.Sprintf("seed=%d", i), func(t *testing.T) {
			runKillRestartBanksvr(t, 0xBA2C_0000+uint64(i))
		})
	}
}

func runKillRestartBanksvr(t *testing.T, seed uint64) {
	cl := killCluster(t, seed)
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

	// Workers shuffle money around a ring, straight through a crash.
	// Transfers are NOT idempotent — a retry after a lost reply moves
	// the money twice — but every movement stays inside the ring, so
	// the conserved total is immune to both retries and the crash.
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
					return nil // ring got lopsided; the invariant is the total
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

	if err := cl.Kill(cl.Machines().Bank); err != nil {
		t.Fatal(err)
	}
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go work(g, transfers/2)
	}
	time.Sleep(5 * time.Millisecond)
	if err := cl.Restart(cl.Machines().Bank); err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	// Conservation across the crash: every dollar minted into the ring
	// is in exactly one replayed account.
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
		t.Fatalf("money not conserved across crash: %d, want %d", total, accounts*grant)
	}
}
