package amoeba

import (
	"cmp"
	"context"
	"fmt"
	"slices"

	"amoeba/internal/amnet"
	"amoeba/internal/cap"
	"amoeba/internal/crypto"
	"amoeba/internal/fbox"
	"amoeba/internal/node"
	"amoeba/internal/obs"
	"amoeba/internal/repl"
	"amoeba/internal/server/blocksvr"
	"amoeba/internal/shard"
	"amoeba/internal/svc"
	"amoeba/internal/vdisk"
)

// svcShard is one shard of a service — the unit Kill, Restart, Drain,
// replication and migration all act on. An unsharded service is simply
// the one-shard case, and the four volatile services are one-shard,
// one-slot, log-less cases of the same thing (which the lifecycle verbs
// refuse). All shards of a service share ONE get-port, so they answer at
// the same put-port every capability names; which machine a request
// goes to is the shard map's decision, not LOCATE's (with one shard
// there is no map, and LOCATE decides).
type svcShard struct {
	svc   *node.Service
	label string   // metrics label: the service's for shard 0, "directory-1", … beyond
	idx   int      // shard index in the map
	g     cap.Port // the service's shared get-port (0: each incarnation draws its own) …
	put   cap.Port // … and the put-port it publishes; fixed once booted

	// The membership, guarded by cl.mu for reads; mutations also hold
	// cl.lifeMu. slots has one entry per configured member — Replicas of
	// them on a replication group, else one — and never changes length:
	// a machine that dies stays in its slot, down, until Restart (or, for
	// a primary deposed while alive, the election itself) rebuilds the
	// slot on a fresh machine. Majorities count len(slots). Exactly one
	// slot is the primary; its ship is the group's shipper (stopped, but
	// still set, between a primary's death and the election).
	slots   []*replica
	primary *replica
	term    uint64 // current replication epoch (1 from boot; 0 = unreplicated)
	gen     uint64 // election generation; stale detector callbacks no-op
}

// replica is one machine's incarnation of a shard: its own F-box, its
// own WAL disk (nil on a volatile service), a service kernel. The
// primary's kernel serves and, on a group, ships; a group standby's
// stays un-started, fed by recv and watched by det, until an election
// starts it (the service then reappears at the same put-port, on this
// machine). buildReplica and its callers make these; retire unmakes
// every one of them. down, recv, det and ship are guarded by cl.mu.
type replica struct {
	sh      *svcShard
	fb      *fbox.FBox
	disk    *vdisk.Disk
	kern    *svc.Kernel
	machine amnet.MachineID
	// was is the machine this incarnation replaced in its slot, when that
	// one was a primary deposed while alive and so re-attached without a
	// Restart — which is therefore a no-op for it. Fixed once built.
	was  amnet.MachineID
	down bool

	recv *repl.Receiver // standby only; nil once elected
	det  *repl.Detector // standby only
	ship *repl.Shipper  // group primary only
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

// find returns the durable services' first slot — up or down, primary
// or standby — that match accepts, or nil. What it returns stays true
// for as long as the caller holds lifeMu.
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
	return cl.find(func(r *replica) bool { return r.machine == m })
}

// syncShardMachine points shard idx of port p at machine at (bumping
// the map generation); no-op when p is unsharded. Every path that
// changes which machine serves a shard — restart, election — funnels
// through here, so stale client routes always heal against a map whose
// generation moved.
func (cl *Cluster) syncShardMachine(p cap.Port, idx int, at amnet.MachineID) {
	cl.atlas.Update(p, func(m *shard.Map) *shard.Map { return m.WithMachine(idx, at) })
}

// buildReplica constructs an un-started incarnation of sh on a fresh
// machine — the one constructor behind boot, Restart and every standby,
// of all six services. A durable service's runs over disk, the WAL disk
// that survived its last incarnation, or over a fresh one when disk is
// nil. The metrics label is the shard's, whichever machine serves
// it: the registry is idempotent, so a restarted or elected successor
// keeps accumulating into the SAME series — no break at failover.
// Nothing it makes is registered anywhere else: whoever holds the
// replica ends it with retire, as a failed build has done already.
func (cl *Cluster) buildReplica(sh *svcShard, disk *vdisk.Disk) (*replica, node.Replay, error) {
	fb, err := cl.attach()
	if err != nil {
		return nil, nil, err
	}
	r := &replica{sh: sh, fb: fb, disk: disk, machine: fb.Machine()}
	deps := node.Deps{Port: sh.g, Sealer: cl.sealerFor(r.fb), Store: cl.disk}
	if sh.svc.NeedsBlocks {
		// A client of the block server, from this service's own machine.
		deps.Blocks = blocksvr.NewClient(cl.newRPCClient(r.fb), cl.put("blocks"))
	}
	if sh.svc.Durable {
		if r.disk == nil {
			r.disk, err = vdisk.New(walBlocks, walBlockSize)
		}
		if err == nil {
			deps.Log, err = cl.openWAL(sh.label, r.fb, r.disk)
		}
	}
	var replay node.Replay
	if err == nil {
		r.kern, replay, err = sh.svc.Open(cl.env, r.fb, sh.label, deps)
	}
	if err != nil {
		cl.retire(r, crashed)
		return nil, nil, err
	}
	if cl.cfg.Shards >= 2 && sh.svc.Durable {
		// Wire the kernel into the shard map: dispatch refuses objects
		// other shards own (StatusWrongShard), and the capability table
		// only mints object numbers that hash (or are overridden) back to
		// this shard — so a create handled by shard k yields a capability
		// that routes to shard k forever. An unsharded kernel pays one nil
		// atomic load per request and nothing else.
		v := shard.NewView(cl.atlas, r.kern.PutPort(), sh.idx)
		r.kern.SetShardView(v)
		r.kern.Table().SetAllocFilter(v.Owns)
	}
	return r, replay, nil
}

// exit is how a replica leaves service: the one argument of retire.
type exit int

const (
	// crashed: the NIC goes FIRST — a crash cuts the machine off
	// mid-conversation; in-flight replies vanish and clients retry. The
	// order against the shipper matters: were the stream stopped while
	// the NIC still carried replies, an in-flight handler could commit
	// locally, skip the (stopped) ship, and still acknowledge its client —
	// an acked op no standby ever saw, lost at the election. With the NIC
	// down, any op whose ship was cut off can no longer reach its client
	// either, so "acknowledged" still implies "on the standbys". Then the
	// shipper dies with its machine (aborting any in-flight ship attempt
	// unwedges handlers blocked on replication acks, so the crash drains)
	// and the kernel without a checkpoint: only what its log already
	// committed survives.
	crashed exit = iota
	// drained: the reverse, for Drain — the kernel first, while the NIC
	// still carries replies and the shipper still carries commits, so
	// in-flight work ends acknowledged on every disk, not severed.
	drained
)

// retire is the one way a replica stops being a live member, whoever
// decided it — Kill, the wedged-WAL fail-stop, Drain, an election that
// deposed it while it was up, Close, a constructor that failed half-way
// — and it ends everything the constructors made: the detector (a
// standby must not answer its own death by electing anyone), its place
// among the primary's peers (majorities still count the configured
// group, so losing standbys never loosens the quorum), the receiver,
// shipper, kernel and F-box, and its disk-fault handle. The slot keeps
// the corpse, down, until something rebuilds it. Idempotent. Caller
// holds lifeMu.
func (cl *Cluster) retire(r *replica, how exit) error {
	cl.mu.Lock()
	if r.down {
		cl.mu.Unlock()
		return nil
	}
	r.down = true
	det, lead := r.det, r.sh.primary
	r.det = nil
	delete(cl.walFaults, r.machine)
	cl.mu.Unlock()
	if det != nil {
		det.Stop()
	}
	if r.recv != nil && lead != nil && lead.ship != nil {
		lead.ship.DropPeer(r.recv.Port())
	}
	var err error
	if how == drained {
		err = r.kern.Drain()
	} else {
		err = r.fb.Close()
	}
	if r.recv != nil {
		err = cmp.Or(err, r.recv.Close())
	}
	if r.ship != nil {
		r.ship.Stop()
	}
	if r.kern != nil {
		err = cmp.Or(err, r.kern.Crash()) // no-op once drained
	}
	return cmp.Or(err, r.fb.Close())
}

// rejoin rebuilds the slot the down member old occupies as a fresh
// standby — new machine, new disk, base snapshot from the current
// primary — the one way back into a group, for Restart and for an
// election that deposed a live primary alike. old's own log may hold a
// tail the successor never acknowledged, so it is discarded: split
// brain is prevented by lease plus quorum, not by exiling the machine.
// On failure the slot stays down, to be retried. was names the machine
// (old's, or none) whose Restart the newcomer has made unnecessary.
// Caller holds lifeMu.
func (cl *Cluster) rejoin(old *replica, was amnet.MachineID) error {
	sh := old.sh
	st, err := cl.buildStandby(sh)
	if err != nil {
		return err
	}
	st.was = was
	cl.mu.Lock()
	ship := sh.primary.ship
	cl.mu.Unlock()
	// AddPeer quiesces the primary, ships the base snapshot, and adds
	// the peer inside the quiesced window — the stream has no gap.
	if err := ship.AddPeer(st.recv.Port()); err != nil {
		cl.retire(st, crashed)
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
func (cl *Cluster) startShard(sh *svcShard, disk *vdisk.Disk) error {
	p, _, err := cl.buildReplica(sh, disk)
	if err != nil {
		return err
	}
	if err := p.kern.Start(); err != nil {
		cl.retire(p, crashed) // abandons the log; a Restart retry reopens it
		return err
	}
	cl.mu.Lock()
	sh.slots[0], sh.primary = p, p
	cl.mu.Unlock()
	cl.syncShardMachine(sh.put, sh.idx, p.machine)
	return nil
}

// startService boots every shard of one table row — a durable service's
// each with its own machine and WAL disk (which models the machine's
// disk and so survives Kill/Restart), all at one freshly drawn get-port
// (which pins the put-port across incarnations) — and, when there is
// more than one, registers the service's shard map. Before registration
// every kernel's view answers "I own everything" (no map yet), which is
// harmless: no client exists until NewCluster returns.
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
		sh.put = sh.primary.kern.PutPort()
		machines = append(machines, sh.primary.machine)
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
// of the source under its own lock, shipped over a private migration
// channel, installed durably on the destination (and its standbys),
// sealed out of the source's log, and finally re-homed in the shard
// map — at which point the parked requests wake, bounce with
// StatusWrongShard and the new generation, and every client re-routes.
// The object stalls for the few milliseconds this takes; every other
// object on every shard is untouched.
//
// Crash safety hangs on the order above. Until the destination has
// acknowledged durable custody, nothing is logged anywhere: a failure
// aborts the move and the object serves from the source again (a crash
// recovers it there — the copy the destination may hold is dark, since
// the map never re-homed it, and is overwritten by any later retry).
// After the acknowledgement the move is decided: the source seals a
// migrate-out record and the map bumps, so no later state has the
// object in two places.
func (cl *Cluster) Migrate(ctx context.Context, p Port, obj uint32, dst int) error {
	obj &= cap.ObjectMask
	// lifeMu: a migration must not interleave with failovers or
	// Kill/Restart swapping the endpoints out from under it. Migrations
	// are millisecond-scale, so parking lifecycle verbs behind one is
	// cheap.
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
	srcK, srcFB, dstK, dstFB := from.kern, from.fb, to.kern, to.fb

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
	// The receiver lives for this one migration: a fresh private port
	// on the destination's machine, gone when the move settles. Nothing
	// to keep consistent across failovers that way — the next migration
	// builds its own against whatever machine is primary then.
	recv := repl.NewMigrateReceiver(dstFB, cl.src, dstK)
	if err := recv.Start(); err != nil {
		return abort(err)
	}
	defer recv.Close()
	if err := repl.ShipObject(ctx, cl.newShipClient(srcFB), recv.Port(), m.Gen+1, obj, secret, state); err != nil {
		return abort(err)
	}
	// The destination holds the object durably: the move is decided.
	// The migrate-out seal and the map bump both happen even if one of
	// them errors — leaving the map pointing at a source that logged
	// the departure (or a wedged source that will fail-stop) beats
	// leaving two shards claiming the object.
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
