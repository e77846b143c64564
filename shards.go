package amoeba

import (
	"context"
	"fmt"

	"amoeba/internal/amnet"
	"amoeba/internal/cap"
	"amoeba/internal/crypto"
	"amoeba/internal/fbox"
	"amoeba/internal/obs"
	"amoeba/internal/repl"
	"amoeba/internal/server/banksvr"
	"amoeba/internal/server/dirsvr"
	"amoeba/internal/shard"
	"amoeba/internal/svc"
	"amoeba/internal/vdisk"
	"amoeba/internal/wal"
)

// durableService is one row of the durable-service table — everything
// that differs between the directory and the bank server as far as
// boot, Kill/Restart, replication and sharding are concerned: a metrics
// label and a constructor. open builds an un-started incarnation
// recovered from log at get-port g, applies the service's own knobs,
// and returns its kernel with the replay function a standby's receiver
// applies shipped records through.
type durableService struct {
	name string
	open func(cl *Cluster, fb *fbox.FBox, log *wal.Log, g cap.Port) (*svc.Kernel, func(rec []byte) error, error)
}

var (
	directoryService = durableService{"directory", func(cl *Cluster, fb *fbox.FBox, log *wal.Log, g cap.Port) (*svc.Kernel, func(rec []byte) error, error) {
		s, err := dirsvr.NewDurable(fb, cl.scheme, cl.src, log, g)
		if err != nil {
			return nil, nil, err
		}
		s.SetLookupLease(cl.cfg.LookupLease)
		return s.Kernel, s.ReplayFn(), nil
	}}
	bankService = durableService{"bank", func(cl *Cluster, fb *fbox.FBox, log *wal.Log, g cap.Port) (*svc.Kernel, func(rec []byte) error, error) {
		s, err := banksvr.NewDurable(fb, cl.scheme, cl.src, cl.bankConfig(), log, g)
		if err != nil {
			return nil, nil, err
		}
		return s.Kernel, s.ReplayFn(), nil
	}}
)

// svcShard is one shard of a durable service — the unit Kill, Restart,
// Drain, replication and migration all act on. An unsharded service is
// simply the one-shard case. All shards of a service share ONE
// get-port, so they answer at the same put-port every capability
// names; which machine a request goes to is the shard map's decision,
// not LOCATE's (with one shard there is no map, and LOCATE decides).
type svcShard struct {
	svc   *durableService
	label string   // metrics label: the service name for shard 0, "directory-1", … beyond
	idx   int      // shard index in the map
	g     cap.Port // the service's shared get-port …
	put   cap.Port // … and the put-port it publishes, F(g)

	// Guarded by cl.mu: Restart and elections swap the primary; group is
	// set once at boot (nil unless ClusterConfig.Replicas ≥ 2).
	primary *replica
	group   *replGroup
}

// replica is one machine's incarnation of a shard: its own F-box, its
// own WAL disk, a service kernel. The primary's kernel serves; a group
// standby's stays un-started, fed by recv and watched by det, until an
// election starts it (the service then reappears at the same put-port,
// on this machine). down, recv and det are guarded by cl.mu.
type replica struct {
	fb      *fbox.FBox
	disk    *vdisk.Disk
	kern    *svc.Kernel
	machine amnet.MachineID
	down    bool

	recv *repl.Receiver
	det  *repl.Detector
}

// shipLocked returns the shard's current shipper, nil when it is
// unreplicated. Caller holds cl.mu.
func (sh *svcShard) shipLocked() *repl.Shipper {
	if sh.group == nil {
		return nil
	}
	return sh.group.ship
}

// allShards returns every shard of both durable services. The slices
// are fixed after boot, so no lock is needed to range over them (the
// shards' fields still are guarded by cl.mu).
func (cl *Cluster) allShards() []*svcShard {
	return append(append([]*svcShard(nil), cl.dirShards...), cl.bankShards...)
}

// memberLocked resolves machine m to the shard it belongs to and its
// replica there — the shard's primary or one of its group's standbys —
// or (nil, nil). Caller holds cl.mu.
func (cl *Cluster) memberLocked(m amnet.MachineID) (*svcShard, *replica) {
	for _, sh := range cl.allShards() {
		if sh.primary.machine == m {
			return sh, sh.primary
		}
		if sh.group == nil {
			continue
		}
		for _, st := range sh.group.standbys {
			if st.machine == m {
				return sh, st
			}
		}
	}
	return nil, nil
}

// installShardView wires a freshly built service kernel into the shard
// map: dispatch refuses objects other shards own (StatusWrongShard),
// and the capability table only mints object numbers that hash (or are
// overridden) back to this shard — so a create handled by shard k
// yields a capability that routes to shard k forever. No-op when the
// cluster is unsharded: the kernel then pays one nil atomic load per
// request and nothing else.
func (cl *Cluster) installShardView(k *svc.Kernel, idx int) {
	if cl.cfg.Shards < 2 {
		return
	}
	v := shard.NewView(cl.atlas, k.PutPort(), idx)
	k.SetShardView(v)
	k.Table().SetAllocFilter(v.Owns)
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
// machine over disk — the one builder behind boot, Restart and every
// standby. The metrics label is the shard's, whichever machine serves
// it: the registry is idempotent, so a restarted or elected successor
// keeps accumulating into the SAME series — no break at failover.
func (cl *Cluster) buildReplica(sh *svcShard, disk *vdisk.Disk) (*replica, func(rec []byte) error, error) {
	fb, err := cl.newFBox()
	if err != nil {
		return nil, nil, err
	}
	log, err := cl.openWAL(sh.label, fb, disk)
	if err != nil {
		return nil, nil, err
	}
	k, replay, err := sh.svc.open(cl, fb, log, sh.g)
	if err != nil {
		log.Close() // the kernel never took ownership
		return nil, nil, err
	}
	k.SetMaxInflight(cl.cfg.MaxInflight)
	k.SetObserver(cl.newStats(sh.label))
	cl.sealServer(fb, k.SetSealer)
	cl.installShardView(k, sh.idx)
	return &replica{fb: fb, disk: disk, kern: k, machine: fb.Machine()}, replay, nil
}

// startShard boots (or re-boots, after Kill or Drain) sh's primary over
// the WAL disk that survived it; boot and Restart share it.
func (cl *Cluster) startShard(sh *svcShard, disk *vdisk.Disk) error {
	p, _, err := cl.buildReplica(sh, disk)
	if err != nil {
		return err
	}
	if err := cl.start(p.kern.Start, p.kern.Close); err != nil {
		p.kern.Close() // closes the log; a Restart retry reopens it
		return err
	}
	cl.mu.Lock()
	sh.primary = p
	cl.mu.Unlock()
	cl.syncShardMachine(sh.put, sh.idx, p.machine)
	return nil
}

// startService boots every shard of one durable service into *shards —
// each with its own machine and WAL disk (which models the machine's
// disk and so survives Kill/Restart), all at one freshly drawn get-port
// (which pins the put-port across incarnations) — and, when there is
// more than one, registers the service's shard map. Before
// registration every kernel's view answers "I own everything" (no map
// yet), which is harmless: no client exists until NewCluster returns.
func (cl *Cluster) startService(d *durableService, shards *[]*svcShard) error {
	g := cap.Port(crypto.Rand48(cl.src))
	put := cl.clientFB.F(g)
	var machines []amnet.MachineID
	for i := 0; i < max(cl.cfg.Shards, 1); i++ {
		sh := &svcShard{svc: d, label: d.name, idx: i, g: g, put: put}
		if i > 0 {
			sh.label = fmt.Sprintf("%s-%d", d.name, i)
		}
		disk, err := vdisk.New(walBlocks, walBlockSize)
		if err != nil {
			return err
		}
		if err := cl.startShard(sh, disk); err != nil {
			return err
		}
		cl.mu.Lock()
		*shards = append(*shards, sh)
		cl.mu.Unlock()
		machines = append(machines, sh.primary.machine)
	}
	if len(machines) >= 2 {
		cl.atlas.Register(put, shard.NewMap(machines))
	}
	return nil
}

// shardEndpointLocked resolves (put-port, shard index) to the serving
// primary, plus shard 0's label (the service's name in the sharding
// series). Caller holds cl.mu.
func (cl *Cluster) shardEndpointLocked(p cap.Port, idx int) (*replica, string, error) {
	for _, shards := range [][]*svcShard{cl.dirShards, cl.bankShards} {
		if shards[0].put != p {
			continue
		}
		if idx >= len(shards) {
			return nil, "", fmt.Errorf("amoeba: %s has no shard %d", shards[0].label, idx)
		}
		if r := shards[idx].primary; !r.down {
			return r, shards[0].label, nil
		}
		return nil, "", fmt.Errorf("amoeba: %s shard %d is down", shards[0].label, idx)
	}
	return nil, "", fmt.Errorf("amoeba: port %v hosts no sharded service", p)
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
	cl.mu.Lock()
	from, base, err := cl.shardEndpointLocked(p, src)
	if err != nil {
		cl.mu.Unlock()
		return err
	}
	to, _, err := cl.shardEndpointLocked(p, dst)
	if err != nil {
		cl.mu.Unlock()
		return err
	}
	cl.mu.Unlock()
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
	cl.reg.Counter("amoeba_migrations_total", obs.L("service", base), migrationsHelp).Inc()
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
