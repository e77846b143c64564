// The soak workloads: one directory driver and one bank driver, every
// typed-client call recorded in a servertest.Recorder whose checker, not
// the test, decides whether each answer was legal.
package amoeba

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"amoeba/internal/amnet"
	"amoeba/internal/server/banksvr"
	"amoeba/internal/server/dirsvr"
	"amoeba/internal/server/servertest"
)

// soakWorkers is how many concurrent writers a workload runs.
const soakWorkers = 4

// digits is how many transfers a bank worker sends to one account.
const digits = 16

// workload drives one shard of one durable service. A directory worker's
// write creates a subdirectory and enters it under a fresh name in the
// workload's home directory. A bank worker's k-th write moves 4^(k mod
// 16) dollars from the worker's source account to its own destination
// account (a fresh one every 16 writes): the destination's balance, in
// base 4, counts how often each transfer took effect, so a repeated
// transfer can only repeat its own effect — at most 3 times, one digit —
// and a lost one shows as a missing digit.
type workload struct {
	t    *testing.T
	cl   *Cluster
	h    *servertest.Recorder
	seed uint64
	sh   *svcShard
	// pick reads the service's shard-0 primary off Machines.
	pick func(Machines) amnet.MachineID

	dirs *dirsvr.Client
	home Capability // directory: where the names go

	bank *banksvr.Client
	src  [soakWorkers]Capability // bank: each worker's source account

	mu      sync.Mutex
	first   Capability                // directory: the first subdirectory created
	dst     [soakWorkers][]Capability // bank: each worker's destinations
	sent    [soakWorkers]int          // bank: each worker's transfers so far
	slowest time.Duration             // the longest recorded call

	*phases
	units [soakWorkers]int // writes started per worker
}

// phases are a workload's writers, shared with its onShard twins. Only
// the test goroutine starts and waits for them, and it waits by
// channel: a goroutine in WaitGroup.Wait is not durably blocked, so a
// synctest bubble would never advance its clock.
type phases struct {
	done    chan struct{} // one send per worker as it exits
	running int           // workers started and not yet waited for
	halt    atomic.Bool
}

// newWorkload homes a workload on shard idx of service svc ("directory"
// or "bank"), recording under the echo bound echoes.
func newWorkload(t *testing.T, cl *Cluster, svc string, idx, echoes int, seed uint64) *workload {
	t.Helper()
	w := &workload{t: t, cl: cl, h: servertest.NewRecorder(echoes), seed: seed, sh: cl.shards[svc][idx],
		phases: &phases{done: make(chan struct{})}}
	// Writers still running when the test ends (it failed) stop at their
	// next write, and the cluster outlives them. In a synctest bubble
	// the runner has stopped them already: this runs outside it and
	// waits for nothing. A run that failed before its check still shows
	// what the checker makes of its history.
	t.Cleanup(func() {
		w.stop()
		if !t.Failed() {
			return
		}
		if err := w.h.Check(); err != nil {
			t.Logf("%s seed %#x, the history so far: %v", w.sh.label, seed, err)
		}
	})
	if svc == "directory" {
		w.dirs, w.pick = cl.Dirs(), func(m Machines) amnet.MachineID { return m.Dirs }
		for w.home == Nil {
			untilOK(t, "create home", func(ctx context.Context) error {
				d, err := w.dirs.CreateDir(ctx, cl.DirPort())
				if err == nil && cl.ShardOf(cl.DirPort(), d.Object) == idx {
					w.home = d
				}
				return err
			})
		}
		return w
	}
	w.bank, w.pick = cl.Bank(), func(m Machines) amnet.MachineID { return m.Bank }
	for g := range w.src {
		w.src[g], w.dst[g] = w.mustOpen(1<<40), []Capability{w.mustOpen(0)}
	}
	return w
}

// onShard is a second workload of the same service on shard idx that
// records into the same history and runs in the same phases.
func (w *workload) onShard(idx int) *workload {
	w.t.Helper()
	o := newWorkload(w.t, w.cl, w.sh.svc.Label, idx, 0, w.seed)
	o.h, o.phases = w.h, w.phases
	return o
}

// start launches one phase: each worker makes n more writes, in the
// background.
func (w *workload) start(n int) {
	for g := range w.units {
		lo := w.units[g]
		w.units[g] += n
		w.running++
		go func() {
			defer func() { w.done <- struct{}{} }()
			for i := lo; i < lo+n && !w.halt.Load(); i++ {
				if err := w.write(g, fmt.Sprintf("w%d-e%d", g, i)); err != nil {
					w.t.Error(err)
					return
				}
			}
		}()
	}
}

// wait waits for the running phases.
func (w *workload) wait() {
	for ; w.running > 0; w.running-- {
		<-w.done
	}
}

// stop ends the running phases at each worker's next write.
func (w *workload) stop() {
	w.halt.Store(true)
	w.wait()
}

// write is one unit of worker g's work, named tag. Safe from any
// goroutine.
func (w *workload) write(g int, tag string) error {
	if w.dirs != nil {
		var sub Capability
		if err := retryOK("create "+tag, func(ctx context.Context) (err error) {
			sub, err = w.dirs.CreateDir(ctx, w.cl.DirPort())
			return err
		}); err != nil {
			return err
		}
		w.mu.Lock()
		if w.first == Nil {
			w.first = sub
		}
		w.mu.Unlock()
		return w.enter(w.home, tag, sub)
	}
	g %= soakWorkers
	w.mu.Lock()
	k := w.sent[g]
	if k/digits == len(w.dst[g]) {
		// Only a long run on one worker gets here (each starts with a
		// destination), so holding mu across the open costs nothing.
		dst, err := w.open(0)
		if err != nil {
			w.mu.Unlock()
			return err
		}
		w.dst[g] = append(w.dst[g], dst)
	}
	w.sent[g]++
	dst := w.dst[g][k/digits]
	w.mu.Unlock()
	return w.transfer(w.src[g], dst, 1<<(2*(k%digits)))
}

// mustWrite is write from the test goroutine.
func (w *workload) mustWrite(tag string) {
	w.t.Helper()
	if err := w.write(0, tag); err != nil {
		w.t.Fatal(err)
	}
}

// answered is what the retry loops need from a recorded call: nil once
// the service has answered — ok, or a refusal the checker will judge —
// and the error while the call's effect is unknown.
func answered(err error) error {
	if out, _ := servertest.Classify(err); out == servertest.Fail {
		return nil
	}
	return err
}

// do records call, retrying until the service answers.
func (w *workload) do(what string, op servertest.Op, call func(context.Context, *servertest.Op) error) error {
	return retryOK(what, func(ctx context.Context) error {
		start := time.Now()
		err := w.h.Do(op, func(o *servertest.Op) error { return call(ctx, o) })
		w.mu.Lock()
		w.slowest = max(w.slowest, time.Since(start))
		w.mu.Unlock()
		return answered(err)
	})
}

// must is do from the test goroutine.
func (w *workload) must(what string, op servertest.Op, call func(context.Context, *servertest.Op) error) {
	w.t.Helper()
	if err := w.do(what, op, call); err != nil {
		w.t.Fatal(err)
	}
}

func (w *workload) enter(dir Capability, name string, c Capability) error {
	return w.do("enter "+name, servertest.Op{Kind: servertest.Enter, Dir: dir, Name: name, Cap: c}, func(ctx context.Context, _ *servertest.Op) error {
		return w.dirs.Enter(ctx, dir, name, c)
	})
}

// enterOnce is one recorded Enter, not retried.
func (w *workload) enterOnce(ctx context.Context, dir Capability, name string, c Capability) error {
	return w.h.Do(servertest.Op{Kind: servertest.Enter, Dir: dir, Name: name, Cap: c}, func(*servertest.Op) error {
		return w.dirs.Enter(ctx, dir, name, c)
	})
}

func (w *workload) remove(dir Capability, name string) error {
	return w.do("remove "+name, servertest.Op{Kind: servertest.Remove, Dir: dir, Name: name}, func(ctx context.Context, _ *servertest.Op) error {
		return w.dirs.Remove(ctx, dir, name)
	})
}

func (w *workload) lookup(dir Capability, name string) {
	w.t.Helper()
	w.must("lookup "+name, servertest.Op{Kind: servertest.Lookup, Dir: dir, Name: name}, func(ctx context.Context, op *servertest.Op) (err error) {
		op.Cap, err = w.dirs.Lookup(ctx, dir, name)
		return err
	})
}

func (w *workload) list(dir Capability) {
	w.t.Helper()
	w.must("list", servertest.Op{Kind: servertest.List, Dir: dir}, func(ctx context.Context, op *servertest.Op) error {
		entries, err := w.dirs.List(ctx, dir)
		op.Entries = make(map[string]Capability, len(entries))
		for _, e := range entries {
			op.Entries[e.Name] = e.Cap
		}
		return err
	})
}

// open opens an account holding amount on the workload's shard.
func (w *workload) open(amount int64) (Capability, error) {
	for {
		var acct Capability
		if err := retryOK("open account", func(ctx context.Context) error {
			return w.h.Do(servertest.Op{Kind: servertest.Open, Amount: amount}, func(op *servertest.Op) (err error) {
				acct, err = w.bank.CreateAccount(ctx, "dollar", amount)
				op.Acct = acct
				return err
			})
		}); err != nil || w.cl.ShardOf(w.bank.Port(), acct.Object) == w.sh.idx {
			return acct, err
		}
	}
}

// mustOpen is open from the test goroutine.
func (w *workload) mustOpen(amount int64) Capability {
	w.t.Helper()
	acct, err := w.open(amount)
	if err != nil {
		w.t.Fatal(err)
	}
	return acct
}

func (w *workload) transfer(from, to Capability, amount int64) error {
	return w.do("transfer", servertest.Op{Kind: servertest.Transfer, Acct: from, To: to, Amount: amount}, func(ctx context.Context, _ *servertest.Op) error {
		return w.bank.Transfer(ctx, from, to, "dollar", amount)
	})
}

func (w *workload) balance(acct Capability) {
	w.t.Helper()
	w.must("balance", servertest.Op{Kind: servertest.Balance, Acct: acct}, func(ctx context.Context, op *servertest.Op) error {
		bal, err := w.bank.Balance(ctx, acct)
		op.Amount = bal["dollar"]
		return err
	})
}

// readBack reads back everything the workload wrote: the home listing,
// or every account, the destinations before the sources (a source's
// balance is then the only unknown left).
func (w *workload) readBack() {
	w.t.Helper()
	if w.dirs != nil {
		w.list(w.home)
		return
	}
	w.mu.Lock()
	var accts []Capability
	for g := range w.dst {
		accts = append(accts, w.dst[g]...)
	}
	accts = append(accts, w.src[:]...)
	w.mu.Unlock()
	for _, a := range accts {
		w.balance(a)
	}
}

// verify reads the workload back and checks the whole history.
func (w *workload) verify(when string) {
	w.t.Helper()
	w.readBack()
	start := time.Now()
	err := w.h.Check()
	w.t.Logf("%s: checked %d calls in %v", w.sh.label, w.h.Len(), time.Since(start))
	if err != nil {
		w.t.Fatalf("%s seed %#x, %s: %v", w.sh.label, w.seed, when, err)
	}
}
