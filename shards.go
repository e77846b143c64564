package amoeba

import (
	"context"
	"fmt"
	"slices"

	"amoeba/internal/amnet"
	"amoeba/internal/cap"
	"amoeba/internal/crypto"
	"amoeba/internal/node"
	"amoeba/internal/obs"
	"amoeba/internal/repl"
	"amoeba/internal/shard"
	"amoeba/internal/vdisk"
)

// svcShard is one shard of a service — the unit Kill, Restart, Drain,
// replication and migration act on. An unsharded service is the
// one-shard case; the four volatile services are one-slot, log-less
// cases (which the lifecycle verbs refuse). All shards of a service
// share ONE get-port and so put-port; the shard map, not LOCATE, picks
// the machine (with one shard there is no map, and LOCATE decides).
type svcShard struct {
	svc   *node.Service
	label string   // metrics label: the service's for shard 0, "directory-1", … beyond
	idx   int      // shard index in the map
	g     cap.Port // the service's shared get-port (0: each incarnation draws its own) …
	put   cap.Port // … and the put-port it publishes; fixed once booted

	// The membership (cl.mu; mutations also hold lifeMu): one slot per
	// configured member, never changing length — a dead machine stays in
	// its slot, down, until Restart (or, for a primary deposed while
	// alive, the election) rebuilds it. Majorities count len(slots).
	// Exactly one slot is the primary.
	slots   []*replica
	primary *replica
	term    uint64 // current replication epoch (1 from boot; 0 = unreplicated)
	gen     uint64 // election generation; stale detector callbacks no-op
}

// replica is one slot's current incarnation: a machine's node.Replica of
// the shard, plus what the group knows of it. open makes these; retire
// unmakes every one. down is guarded by cl.mu.
type replica struct {
	*node.Replica
	sh *svcShard
	// was is the machine this incarnation replaced, when that was a
	// primary deposed while alive (its Restart is then a no-op).
	was  amnet.MachineID
	down bool
}

// standbysLocked returns every member of sh that is not the primary,
// down ones included. Caller holds cl.mu.
func (sh *svcShard) standbysLocked() []*replica {
	out := make([]*replica, 0, len(sh.slots))
	for _, r := range sh.slots {
		if r != sh.primary {
			out = append(out, r)
		}
	}
	return out
}

// allShards returns every shard of the durable services. The map is
// fixed after boot, so no lock is needed to range over it (the shards'
// fields still are guarded by cl.mu).
func (cl *Cluster) allShards() []*svcShard {
	var out []*svcShard
	for _, row := range node.Services {
		if row.Durable {
			out = append(out, cl.shards[row.Label]...)
		}
	}
	return out
}

// find returns the durable services' first slot, up or down, that match
// accepts, or nil; the answer holds while the caller holds lifeMu.
func (cl *Cluster) find(match func(*replica) bool) *replica {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	for _, sh := range cl.allShards() {
		if i := slices.IndexFunc(sh.slots, match); i >= 0 {
			return sh.slots[i]
		}
	}
	return nil
}

// member returns the slot machine m occupies (see find).
func (cl *Cluster) member(m amnet.MachineID) *replica {
	return cl.find(func(r *replica) bool { return r.Machine() == m })
}

// syncShardMachine points shard idx of port p at machine at, bumping the
// map generation so stale client routes heal; no-op when p is unsharded.
// Every restart and election funnels through here.
func (cl *Cluster) syncShardMachine(p cap.Port, idx int, at amnet.MachineID) {
	cl.atlas.Update(p, func(m *shard.Map) *shard.Map { return m.WithMachine(idx, at) })
}

// open builds an un-started incarnation of sh on a fresh machine: the
// one door behind boot, Restart and every standby. A durable service's
// runs over wal, the disk its last incarnation left, or a fresh one. The
// metrics label is the shard's, so successors keep accumulating into the
// SAME series. A failed open has ended what it built.
func (cl *Cluster) open(sh *svcShard, wal vdisk.Store) (*replica, error) {
	if sh.svc.Durable && wal == nil {
		disk, err := vdisk.New(walBlocks, walBlockSize)
		if err != nil {
			return nil, err
		}
		wal = disk
	}
	fb, err := cl.attach()
	if err != nil {
		return nil, err
	}
	deps := node.Deps{Label: sh.label, Port: sh.g, Sealer: cl.sealerFor(fb), Store: cl.disk, Group: len(sh.slots), OwnFB: true}
	if sh.svc.NeedsBlocks {
		deps.Blocks = cl.put("blocks")
	}
	if sh.svc.Durable {
		deps.WAL = wal
		deps.OnWedge = func(cause error) { cl.onWALWedge(sh.label, fb.Machine(), cause) }
	}
	nr, err := node.Open(cl.env, sh.svc, fb, deps)
	if err != nil {
		return nil, err
	}
	if cl.cfg.Shards >= 2 && sh.svc.Durable {
		// Wire the kernel into the shard map: dispatch refuses objects
		// other shards own (StatusWrongShard), and the table mints only
		// object numbers that route back to this shard.
		k := nr.Kernel()
		v := shard.NewView(cl.atlas, k.PutPort(), sh.idx)
		k.SetShardView(v)
		k.Table().SetAllocFilter(v.Owns)
	}
	return &replica{Replica: nr, sh: sh}, nil
}

// retire is the one way a replica stops being a live member — Kill, the
// wedged-WAL fail-stop, Drain, an election, Close: its detector first,
// then its place among the primary's peers, then the replica itself, in
// the order how names. The slot keeps the corpse, down, until something
// rebuilds it. Idempotent. Caller holds lifeMu.
func (cl *Cluster) retire(r *replica, how node.Exit) error {
	cl.mu.Lock()
	if r.down {
		cl.mu.Unlock()
		return nil
	}
	r.down = true
	lead := r.sh.primary
	cl.mu.Unlock()
	r.Disarm()
	if lead != nil && lead != r {
		lead.DropPeer(r.Replica)
	}
	return r.Retire(how)
}

// rejoin rebuilds the down member old's slot as a fresh standby — new
// machine, new disk, base snapshot from the primary: the one way back
// into a group, for Restart and for an election that deposed a live
// primary. old's log may hold a tail nobody acknowledged, so it is
// discarded. On failure the slot stays down, to be retried. was names
// the machine whose Restart the newcomer makes a no-op. Caller holds
// lifeMu.
func (cl *Cluster) rejoin(old *replica, was amnet.MachineID) error {
	sh := old.sh
	st, err := cl.open(sh, nil)
	if err != nil {
		return err
	}
	st.was = was
	cl.mu.Lock()
	lead := sh.primary
	cl.mu.Unlock()
	if err = st.Follow(); err == nil {
		err = lead.AddPeer(st.Replica)
	}
	if err != nil {
		st.Retire(node.Crashed)
		return fmt.Errorf("amoeba: re-integrating %s standby: %w", sh.label, err)
	}
	cl.mu.Lock()
	sh.slots[slices.Index(sh.slots, old)] = st
	cl.mu.Unlock()
	cl.reg.Counter("amoeba_reintegrations_total", obs.L("service", sh.label), reintegrationsHelp).Inc()
	cl.startDetectors(sh)
	return nil
}

// startShard boots (or re-boots, after Kill or Drain) sh's one serving
// incarnation over the WAL disk that survived the last; boot and the
// unreplicated Restart share it.
func (cl *Cluster) startShard(sh *svcShard, wal vdisk.Store) error {
	p, err := cl.open(sh, wal)
	if err != nil {
		return err
	}
	if err := p.Lead(nil, 0); err != nil {
		p.Retire(node.Crashed) // abandons the log; a Restart retry reopens it
		return err
	}
	cl.mu.Lock()
	sh.slots[0], sh.primary = p, p
	cl.mu.Unlock()
	cl.syncShardMachine(sh.put, sh.idx, p.Machine())
	return nil
}

// startService boots every shard of one table row — a durable one's
// each on its own machine and WAL disk, all at one freshly drawn
// get-port that pins the put-port across incarnations — and registers
// the shard map when there are several (no client exists before
// NewCluster returns, so a kernel's view briefly owning everything is
// harmless).
func (cl *Cluster) startService(row *node.Service) error {
	n, slots, g := 1, 1, cap.Port(0)
	if row.Durable {
		n, slots, g = max(cl.cfg.Shards, 1), max(cl.cfg.Replicas, 1), cap.Port(crypto.Rand48(cl.src))
	}
	var machines []amnet.MachineID
	for i := 0; i < n; i++ {
		sh := &svcShard{svc: row, label: row.Label, idx: i, g: g, slots: make([]*replica, slots)}
		if i > 0 {
			sh.label = fmt.Sprintf("%s-%d", row.Label, i)
		}
		cl.shards[row.Label] = append(cl.shards[row.Label], sh)
		if err := cl.startShard(sh, nil); err != nil {
			return err
		}
		sh.put = sh.primary.Kernel().PutPort()
		machines = append(machines, sh.primary.Machine())
	}
	if n >= 2 {
		cl.atlas.Register(cl.put(row.Label), shard.NewMap(machines))
	}
	return nil
}

// put returns the put-port of the service labelled label.
func (cl *Cluster) put(label string) cap.Port { return cl.shards[label][0].put }

// shardPrimary resolves (put-port, shard index) to the serving primary.
func (cl *Cluster) shardPrimary(p cap.Port, idx int) (*replica, error) {
	r := cl.find(func(r *replica) bool { return r == r.sh.primary && r.sh.put == p && r.sh.idx == idx })
	if r == nil {
		return nil, fmt.Errorf("amoeba: port %v has no shard %d", p, idx)
	}
	if r.down {
		return nil, fmt.Errorf("amoeba: %s shard %d is down", r.sh.svc.Label, idx)
	}
	return r, nil
}

const migrationsHelp = "objects moved live between shards"

// Migrate moves ONE object of the sharded service at put-port p to
// shard dst, live: the object is gated (requests for it park), cut out
// of the source, shipped over a private channel, installed durably on
// the destination (and its standbys), sealed out of the source's log,
// and re-homed in the shard map — the parked requests then bounce with
// StatusWrongShard and every client re-routes. Other objects are
// untouched.
//
// Crash safety hangs on that order. Until the destination acknowledges
// durable custody nothing is logged: a failure aborts the move, and the
// object serves from the source (a copy the destination may hold stays
// dark). After it the move is decided: the source seals a migrate-out
// record and the map bumps, so no state has the object in two places.
func (cl *Cluster) Migrate(ctx context.Context, p Port, obj uint32, dst int) error {
	obj &= cap.ObjectMask
	// lifeMu: no failover or Kill/Restart swaps the endpoints mid-move.
	cl.lifeMu.Lock()
	defer cl.lifeMu.Unlock()
	m := cl.atlas.Lookup(p)
	if m == nil {
		return fmt.Errorf("amoeba: port %v is not sharded", p)
	}
	if dst < 0 || dst >= m.N {
		return fmt.Errorf("amoeba: destination shard %d out of range (0..%d)", dst, m.N-1)
	}
	src := m.Home(obj)
	if src == dst {
		return nil
	}
	from, err := cl.shardPrimary(p, src)
	if err != nil {
		return err
	}
	to, err := cl.shardPrimary(p, dst)
	if err != nil {
		return err
	}
	srcK, dstK := from.Kernel(), to.Kernel()

	release, err := srcK.GateObject(obj)
	if err != nil {
		return err
	}
	defer release()
	secret, state, err := srcK.ExtractForMigration(obj)
	if err != nil {
		return err
	}
	abort := func(cause error) error {
		if aerr := srcK.AbortMigration(obj, secret, state); aerr != nil {
			return fmt.Errorf("%w (and aborting the migration failed: %v)", cause, aerr)
		}
		return cause
	}
	// A receiver for this one migration: a fresh private port on the
	// destination's machine, gone when the move settles.
	recv := repl.NewMigrateReceiver(to.FBox(), cl.src, dstK)
	if err := recv.Start(); err != nil {
		return abort(err)
	}
	defer recv.Close()
	if err := repl.ShipObject(ctx, from.ShipClient(), recv.Port(), m.Gen+1, obj, secret, state); err != nil {
		return abort(err)
	}
	// Decided: the seal and the map bump both happen even if one errors
	// — a map pointing at a source that logged the departure beats two
	// shards claiming the object.
	commitErr := srcK.CommitMigrateOut(obj)
	cl.atlas.Update(p, func(cur *shard.Map) *shard.Map { return cur.WithOverride(obj, dst) })
	cl.reg.Counter("amoeba_migrations_total", obs.L("service", from.sh.svc.Label), migrationsHelp).Inc()
	return commitErr
}

// ShardMachines returns the machines currently serving each shard of
// the service at put-port p (index = shard), or nil when p is
// unsharded. Re-read after Kill/Restart or a failover — shards move.
func (cl *Cluster) ShardMachines(p Port) []MachineID {
	m := cl.atlas.Lookup(p)
	if m == nil {
		return nil
	}
	out := make([]MachineID, len(m.Machines))
	copy(out, m.Machines)
	return out
}

// ShardMapGen returns the current shard-map generation for put-port p
// (0 when unsharded). Bumped by every migration and failover.
func (cl *Cluster) ShardMapGen(p Port) uint64 {
	m := cl.atlas.Lookup(p)
	if m == nil {
		return 0
	}
	return m.Gen
}

// ShardOf returns the shard index currently owning obj at put-port p
// (0 when unsharded).
func (cl *Cluster) ShardOf(p Port, obj uint32) int {
	m := cl.atlas.Lookup(p)
	if m == nil {
		return 0
	}
	return m.Home(obj)
}
