package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"amoeba"
	"amoeba/internal/cap"
	"amoeba/internal/locate"
	"amoeba/internal/obs"
	"amoeba/internal/rpc"
	"amoeba/internal/server/banksvr"
	"amoeba/internal/server/dirsvr"
)

// clusterSeed maps the benchmark seed to a ClusterConfig seed, where 0
// would mean "draw from crypto/rand".
func clusterSeed(seed uint64) uint64 {
	if seed == 0 {
		return 0x5EED
	}
	return seed
}

func simRig(cl *amoeba.Cluster) *rig {
	return &rig{
		cluster:    cl,
		scrape:     func() (promSnap, error) { return scrapeRegistry(cl.Metrics()) },
		broadcasts: func() uint64 { return cl.RPC().Resolver().Stats().Broadcasts },
		net:        cl.Net(),
		alive:      func() error { return nil },
		close:      func() { cl.Close() },
	}
}

// account is one bank account and the balance the acknowledged
// transfers leave it with.
type account struct {
	owner, deposit cap.Capability
	balance        int64
}

const (
	writeDirsPerClient = 4
	writeNamesPerDir   = 16
	accountsPerShard   = 4
	openingBalance     = 1 << 40
	simShards          = 2
	simReplicas        = 3
	walkLease          = time.Second
	// failoverRate is the scheduled sender's operations per second.
	failoverRate     = 1000
	senderResident   = 256 // entries a sender keeps before it removes its oldest
	failoverDeadline = time.Second
	senderAttempt    = 100 * time.Millisecond // a sender's per-attempt reply timeout
	senderLocate     = 20 * time.Millisecond  // a sender's LOCATE round
)

// openAccount opens an account and derives its deposit-only capability.
func openAccount(ctx context.Context, bank *banksvr.Client) (*account, error) {
	a := &account{balance: openingBalance}
	var err error
	if a.owner, err = bank.CreateAccount(ctx, "dollar", openingBalance); err != nil {
		return nil, failedOp("create account", err)
	}
	if a.deposit, err = bank.Restrict(ctx, a.owner, cap.RightCreate); err != nil {
		return nil, failedOp("restrict account", err)
	}
	return a, nil
}

// setupSimWrite: 50 % directory Enter/Remove on per-client directories,
// 50 % bank Transfer between two accounts of the same shard. Every
// operation is a durable, replicated, sharded commit.
func (e *env) setupSimWrite(seed uint64) (*rig, error) {
	cl, err := amoeba.NewCluster(amoeba.ClusterConfig{Seed: clusterSeed(seed), Replicas: simReplicas, Shards: simShards})
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	dirs, bank := cl.Dirs(), cl.Bank()
	rng := rand.New(rand.NewSource(int64(seed)))
	type state struct {
		togglers []*toggler
		dirs     []cap.Capability
		accounts [simShards][]*account
	}
	states := make([]*state, loadClients)
	populate := func(c int) error {
		s := &state{}
		states[c] = s
		for d := 0; d < writeDirsPerClient; d++ {
			dir, err := dirs.CreateDir(ctx, cl.DirPort())
			if err != nil {
				return failedOp("create directory", err)
			}
			s.dirs = append(s.dirs, dir)
			for n := 0; n < writeNamesPerDir; n++ {
				s.togglers = append(s.togglers, &toggler{dir: dir, name: fmt.Sprintf("%06x%d", rng.Uint32()&0xffffff, n)})
			}
		}
		// Creates are spread round-robin over the shards; keep opening
		// accounts until each shard holds enough for same-shard pairs.
		for full := 0; full < simShards; {
			a, err := openAccount(ctx, bank)
			if err != nil {
				return err
			}
			sh := cl.ShardOf(bank.Port(), a.owner.Object)
			if len(s.accounts[sh]) == accountsPerShard {
				continue
			}
			if s.accounts[sh] = append(s.accounts[sh], a); len(s.accounts[sh]) == accountsPerShard {
				full++
			}
		}
		return nil
	}
	for c := range states {
		if err := populate(c); err != nil {
			cl.Close()
			return nil, err
		}
	}
	r := simRig(cl)
	r.kinds = []opKind{
		kEnter:    {"dirsvr.enter", "dirsvr.enter_us", us},
		kRemove:   {"dirsvr.remove", "", 0},
		kTransfer: {"banksvr.transfer", "banksvr.transfer_us", us},
	}
	r.op = func(c int, rng *rand.Rand) (int, error) {
		s := states[c]
		if rng.Intn(2) == 0 {
			entered, err := s.togglers[rng.Intn(len(s.togglers))].flip(ctx, dirs)
			if entered {
				return kEnter, err
			}
			return kRemove, err
		}
		accts := s.accounts[rng.Intn(simShards)]
		i := rng.Intn(len(accts))
		j := (i + 1 + rng.Intn(len(accts)-1)) % len(accts)
		amount := int64(1 + rng.Intn(5))
		if err := bank.Transfer(ctx, accts[i].owner, accts[j].deposit, "dollar", amount); err != nil {
			return kTransfer, err
		}
		accts[i].balance -= amount
		accts[j].balance += amount
		return kTransfer, nil
	}
	r.check = func() (int, error) {
		lost := 0
		var money, accounts int64
		for _, s := range states {
			want := make(map[cap.Capability]map[string]bool)
			for _, dir := range s.dirs {
				want[dir] = map[string]bool{}
			}
			for _, t := range s.togglers {
				if t.present {
					want[t.dir][t.name] = true
				}
			}
			for _, dir := range s.dirs {
				diff, err := listed(ctx, dirs, dir, want[dir])
				if err != nil {
					return 0, err
				}
				lost += diff
			}
			for _, accts := range s.accounts {
				for _, a := range accts {
					bal, err := bank.Balance(ctx, a.owner)
					if err != nil {
						return 0, failedOp("balance", err)
					}
					if bal["dollar"] != a.balance {
						lost++
					}
					money += bal["dollar"]
					accounts++
				}
			}
		}
		if money != accounts*openingBalance {
			return lost, fmt.Errorf("money not conserved: %d dollars in %d accounts opened with %d each: %w", money, accounts, int64(openingBalance), errWrong)
		}
		return lost, nil
	}
	return r, nil
}

// setupSimWalk: per client 64 depth-8 paths walked through the lookup
// lease cache; 5 % of operations enter or remove a scratch name in the
// depth-4 directory of a walked path, which invalidates the client's
// cached binding below it and forces the next walk through that
// directory back onto the wire, across shards.
func (e *env) setupSimWalk(seed uint64) (*rig, error) {
	cl, err := amoeba.NewCluster(amoeba.ClusterConfig{Seed: clusterSeed(seed), Replicas: simReplicas, Shards: simShards, LookupLease: walkLease})
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	dirs := cl.Dirs()
	rng := rand.New(rand.NewSource(int64(seed)))
	type state struct {
		tree *tree
		// scratch[i] toggles a name in paths[i]'s depth-4 directory; the
		// four paths through one such directory share a toggler. That
		// directory has a single child, so one write invalidates exactly
		// one cached binding and stale marks the first walk that will
		// miss on it.
		scratch []*toggler
		stale   map[*toggler]bool
	}
	states := make([]*state, loadClients)
	for c := range states {
		t, err := buildTree(ctx, dirs, cl.DirPort(), rng, []int{2, 2, 2, 2, 1, 2, 2, 1}, 4)
		if err != nil {
			cl.Close()
			return nil, err
		}
		s := &state{tree: t, stale: map[*toggler]bool{}}
		byDir := map[cap.Capability]*toggler{}
		for i := range t.paths {
			tg := byDir[t.mid[i]]
			if tg == nil {
				tg = &toggler{dir: t.mid[i], name: fmt.Sprintf("scratch%d-%04x", c, rng.Uint32()&0xffff)}
				byDir[t.mid[i]] = tg
			}
			s.scratch = append(s.scratch, tg)
		}
		states[c] = s
	}
	r := simRig(cl)
	for _, s := range states {
		r.trees = append(r.trees, s.tree)
	}
	r.kinds = []opKind{
		kLookup: {"dirsvr.lookup_path", "lease.walk8_hit_ns", ns},
		kEnter:  {"dirsvr.enter", "dirsvr.enter_us", us},
		kRemove: {"dirsvr.remove", "", 0},
		kMiss:   {"dirsvr.lookup_path.miss", "dirsvr.walk8_miss_us", us},
	}
	r.op = func(c int, rng *rand.Rand) (int, error) {
		s := states[c]
		i := rng.Intn(len(s.tree.paths))
		tg := s.scratch[i]
		if rng.Intn(20) == 0 {
			entered, err := tg.flip(ctx, dirs)
			if err == nil {
				s.stale[tg] = true
			}
			if entered {
				return kEnter, err
			}
			return kRemove, err
		}
		kind := kLookup
		if s.stale[tg] {
			kind = kMiss
			delete(s.stale, tg)
		}
		return kind, s.tree.lookup(ctx, dirs, i)
	}
	r.check = func() (int, error) {
		lost := 0
		for _, s := range states {
			seen := map[*toggler]bool{}
			for i, tg := range s.scratch {
				if seen[tg] {
					continue
				}
				seen[tg] = true
				// The depth-4 directory holds its one child plus the
				// scratch name when that was last entered.
				want := map[string]bool{strings.Split(s.tree.paths[i], "/")[4]: true}
				if tg.present {
					want[tg.name] = true
				}
				diff, err := listed(ctx, dirs, tg.dir, want)
				if err != nil {
					return 0, err
				}
				lost += diff
			}
		}
		return lost, nil
	}
	return r, nil
}

// sender is one open-loop client of sim_failover: its own machine, a
// client whose per-attempt timeout is short enough to retry through an
// election inside the per-operation deadline, and a directory it alone
// writes.
type sender struct {
	client *dirsvr.Client
	res    *locate.Resolver
	dir    cap.Capability
	// Names [oldest, next) are resident. unsure holds the names whose
	// operation failed: their effect is unknown.
	oldest, next int
	unsure       map[string]bool
}

func newSender(cl *amoeba.Cluster, seed uint64, i int) (*sender, error) {
	fb, _, err := cl.NewMachine()
	if err != nil {
		return nil, err
	}
	// LOCATE rounds much shorter than the default 250 ms: with the default
	// a sender finds the new primary either one round or two after the
	// kill, depending on which side of 250 ms the election ends, and the
	// gap measures that coin toss rather than the election.
	res := locate.New(fb, locate.Config{Timeout: senderLocate, Attempts: int(failoverDeadline / senderLocate)})
	s := &sender{res: res, unsure: map[string]bool{}}
	s.client = dirsvr.NewClient(rpc.NewClient(fb, s.res, rpc.ClientConfig{
		Timeout: senderAttempt,
		Retries: int(failoverDeadline / senderAttempt),
		Source:  amoeba.NewSeededSource(clusterSeed(seed) + uint64(i) + 1),
	}))
	if s.dir, err = s.client.CreateDir(context.Background(), cl.DirPort()); err != nil {
		return nil, failedOp("create directory", err)
	}
	return s, nil
}

func senderName(i int) string { return fmt.Sprintf("e%07d", i) }

// step enters the sender's next name, or removes its oldest once the
// directory holds senderResident of them: the directory, and with it
// every checkpoint and every base snapshot shipped to a re-attached
// standby, stays the same size however long the run is. (Entering only,
// a 20 s run ends with a snapshot near the log's largest record.) The
// transport is at-least-once: a retry that finds its own first attempt
// applied ("exists" / "no entry", on a name only this sender uses) is
// an ack.
func (s *sender) step(ctx context.Context) (int, error) {
	if s.next-s.oldest < senderResident {
		name := senderName(s.next)
		s.next++
		err := s.client.Enter(ctx, s.dir, name, mark)
		if err != nil && !strings.Contains(err.Error(), "exists") {
			s.unsure[name] = true
			return kEnter, err
		}
		return kEnter, nil
	}
	name := senderName(s.oldest)
	s.oldest++
	err := s.client.Remove(ctx, s.dir, name)
	if err != nil && !strings.Contains(err.Error(), "no entry") {
		s.unsure[name] = true
		return kRemove, err
	}
	return kRemove, nil
}

// readBack lists the sender's directory and counts acknowledged
// entries that are missing, acknowledged removals that are still
// there, and entries nobody asked for.
func (s *sender) readBack(ctx context.Context, dirs *dirsvr.Client) (lost int, err error) {
	entries, err := dirs.List(ctx, s.dir)
	if err != nil {
		return 0, failedOp("list", err)
	}
	got := map[string]bool{}
	for _, e := range entries {
		got[e.Name] = true
	}
	for i := 0; i < s.next; i++ {
		name := senderName(i)
		if resident := i >= s.oldest; resident != got[name] && !s.unsure[name] {
			lost++
		}
		delete(got, name)
	}
	return lost + len(got), nil
}

// setupSimFailover boots a 3-replica group and the senders. The load
// itself is failoverLoop.
func (e *env) setupSimFailover(seed uint64) (*rig, error) {
	cl, err := amoeba.NewCluster(amoeba.ClusterConfig{Seed: clusterSeed(seed), Replicas: simReplicas})
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	senders := make([]*sender, loadClients)
	for i := range senders {
		if senders[i], err = newSender(cl, seed, i); err != nil {
			cl.Close()
			return nil, err
		}
	}
	r := simRig(cl)
	r.primary = cl.Machines().Dirs
	r.broadcasts = func() (n uint64) {
		for _, s := range senders {
			n += s.res.Stats().Broadcasts
		}
		return n
	}
	r.kinds = []opKind{
		kEnter:  {"dirsvr.enter", "dirsvr.enter_us", us},
		kRemove: {"dirsvr.remove", "", 0},
	}
	r.op = func(c int, _ *rand.Rand) (int, error) {
		ctx, cancel := context.WithTimeout(ctx, failoverDeadline)
		defer cancel()
		return senders[c].step(ctx)
	}
	r.check = func() (int, error) {
		lost := 0
		for _, s := range senders {
			n, err := s.readBack(ctx, cl.Dirs())
			if err != nil {
				return 0, err
			}
			lost += n
		}
		return lost, nil
	}
	return r, nil
}

// killed is one kill round of sim_failover; times are since the epoch.
type killed struct {
	at       int64        // the primary's Kill returned
	promoted int64        // amoeba_failovers_total moved (or the service did)
	firstAck atomic.Int64 // earliest ack of an operation sent after at
	restart  time.Duration
}

func (k *killed) gapMs() float64     { return float64(k.firstAck.Load()-k.at) / 1e6 }
func (k *killed) promoteMs() float64 { return float64(k.promoted-k.at) / 1e6 }
func (k *killed) healMs() float64    { return float64(k.firstAck.Load()-k.promoted) / 1e6 }

// killRound kills the directory primary, waits until a standby has
// promoted itself, and re-attaches the killed machine as a standby.
// It publishes the round through current once Kill has returned, so
// that only operations sent to a dead primary can claim its first ack.
//
// known is the machine the caller last saw as primary. If the service
// has moved off it unasked — a stall long enough to look like a dead
// primary triggers a real election — the deposed machine is outside the
// group, and the group one member short of surviving this kill; it is
// re-attached first, as an operator would.
func killRound(cl *amoeba.Cluster, known *amoeba.MachineID, current *atomic.Pointer[killed]) (*killed, error) {
	failovers := cl.Metrics().Counter("amoeba_failovers_total", obs.L("service", "directory"), "automatic failovers (standby self-promotions)")
	primary := cl.Machines().Dirs
	if primary != *known {
		if err := cl.Restart(*known); err != nil {
			return nil, failedOp("re-attaching the machine a false alarm deposed", err)
		}
	}
	before := failovers.Value()
	k := &killed{}
	if err := cl.Kill(primary); err != nil {
		return nil, failedOp("kill", err)
	}
	k.at = now()
	current.Store(k)
	deadline := time.Now().Add(10 * time.Second)
	for failovers.Value() == before && cl.Machines().Dirs == primary {
		if time.Now().After(deadline) {
			why := ""
			if snap, err := scrapeRegistry(cl.Metrics()); err == nil {
				why = fmt.Sprintf(" (elections refused %v, self-demotions %v, logs wedged %v)",
					snap.sum("amoeba_elections_refused_total"), snap.sum("amoeba_self_demotions_total"), snap.sum("amoeba_wal_wedged_total"))
			}
			return nil, errors.New("no standby promoted itself within 10 s of the kill" + why)
		}
		time.Sleep(time.Millisecond)
	}
	k.promoted = now()
	// The counter moves at the end of the election; Restart needs the
	// whole election done, which is when the service has moved.
	for cl.Machines().Dirs == primary {
		time.Sleep(time.Millisecond)
	}
	t0 := time.Now()
	if err := cl.Restart(primary); err != nil {
		return nil, failedOp("restart", err)
	}
	k.restart = time.Since(t0)
	*known = cl.Machines().Dirs
	return k, nil
}

// failoverLoop is sim_failover's load: the scheduled sender beside the
// closed-loop one, with the primary killed once, at a seed-drawn phase
// in the window's first quarter, so the election and the re-attachment
// fit in what is left.
// Each boot is killed once: at the commit this benchmark was written
// against, a fourth kill-and-restart round on one cluster can lose
// acknowledged entries (README.md, "What the benchmark found"), and a
// workload has to be one the program gets right.
func failoverLoop(r *rig, name string, cs []*client, d time.Duration, traced bool) (*window, error) {
	return openLoop(r, name, cs, d, traced, true)
}

// steadyLoop is the same load with nobody killed: the warm-up.
func steadyLoop(r *rig, name string, cs []*client, d time.Duration, traced bool) (*window, error) {
	return openLoop(r, name, cs, d, traced, false)
}

// openLoop runs the last client on a schedule — an operation due each
// 1/failoverRate seconds whether or not the previous one has been
// answered, its latency running from when it was due, so the wait a
// dead primary imposes on the operations queued behind a blocked one is
// counted — and the others back to back. The window's latencies are the
// scheduled sender's alone: they are what a caller who arrives on his
// own clock sees, and a closed loop, which stops sending while the
// primary is dead, would bury the outage under the operations it makes
// when all is well. The closed loop is there to keep the service at
// work, as it is in the other workloads. Alone, the scheduled sender
// leaves the process asleep nine tenths of the time, and its median
// latency and CPU per operation are then mostly the price of arming a
// timer and taking its interrupt, which on a virtual machine is the
// hypervisor's to set: both moved by a third between one quarter of an
// hour and the next with no change to the program.
func openLoop(r *rig, name string, cs []*client, d time.Duration, traced, kill bool) (*window, error) {
	w, tallies := newWindow(r, name, cs, traced)
	var late hist
	var phase time.Duration
	if kill {
		phase = time.Duration(cs[0].rng.Int63n(int64(d / 4)))
	}
	var lag lagSampler
	if traced {
		lag.start(r)
	}
	before, err := r.boundary(traced)
	if err != nil {
		return nil, err
	}
	var (
		current atomic.Pointer[killed]
		wg      sync.WaitGroup
		killErr error
	)
	w.start = now()
	end := w.start + int64(d)
	// do performs one operation for c, timed from from, and lets it
	// claim the kill round's first acknowledgement if it was sent to a
	// dead primary.
	do := func(c *client, t *tally, from int64) (ack int64) {
		c.seq++
		sent := now()
		kind, err := r.op(c.id, c.rng)
		ack = now()
		if err == nil && ack-from > int64(failoverDeadline) {
			err = fmt.Errorf("answered %v after it was due, deadline %v", time.Duration(ack-from), failoverDeadline)
		}
		t.record(kind, err, from, ack, c.seq)
		if k := current.Load(); k != nil && err == nil && sent >= k.at {
			k.firstAck.CompareAndSwap(0, ack)
		}
		return ack
	}
	scheduled := len(cs) - 1
	for i, c := range cs[:scheduled] {
		tallies[i].untimed = true
		wg.Add(1)
		go func(c *client, t *tally) {
			defer wg.Done()
			for t0 := now(); t0 < end; t0 = now() {
				do(c, t, t0)
			}
		}(c, tallies[i])
	}
	wg.Add(1)
	go func(c *client, t *tally) {
		defer wg.Done()
		const interval = int64(time.Second / failoverRate)
		var ack int64
		for due := w.start; due < end; due += interval {
			// An operation the previous one's answer held up is timed
			// from when it was due: that wait is the system's doing.
			// One that was free to go on time but that the generator's
			// own timer sent late is timed from when it was sent, and
			// the lateness reported as the generator's.
			from := due
			if ack <= due {
				if wait := due - now(); wait > 0 {
					time.Sleep(time.Duration(wait))
				}
				from = now()
				late.add(from - due)
			}
			ack = do(c, t, from)
		}
	}(cs[scheduled], tallies[scheduled])
	if kill {
		wg.Add(1)
		go func() {
			defer wg.Done()
			time.Sleep(phase)
			w.kill, killErr = killRound(r.cluster, &r.primary, &current)
		}()
	}
	wg.Wait()
	w.elapsed = time.Duration(now() - w.start)
	w.lagMax = lag.stop()
	if killErr != nil {
		return nil, killErr
	}
	after, err := r.boundary(traced)
	if err != nil {
		return nil, err
	}
	w.between(before, after)
	w.collect(tallies)
	w.lateMs = late.quantile(0.99) / 1e6
	if kill && w.kill.firstAck.Load() == 0 {
		return nil, errors.New("no operation sent after the kill was acknowledged before the window ended")
	}
	return w, nil
}
