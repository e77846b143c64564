package amoeba

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	stdlog "log"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"amoeba/internal/amnet"
	"amoeba/internal/cap"
	"amoeba/internal/crypto"
	"amoeba/internal/fbox"
	"amoeba/internal/keymatrix"
	"amoeba/internal/lease"
	"amoeba/internal/locate"
	"amoeba/internal/node"
	"amoeba/internal/obs"
	"amoeba/internal/repl"
	"amoeba/internal/rpc"
	"amoeba/internal/server/banksvr"
	"amoeba/internal/server/blocksvr"
	"amoeba/internal/server/dirsvr"
	"amoeba/internal/server/flatfs"
	"amoeba/internal/server/memsvr"
	"amoeba/internal/server/mvfs"
	"amoeba/internal/server/unixfs"
	"amoeba/internal/shard"
	"amoeba/internal/vdisk"
)

// ClusterConfig configures a simulated Amoeba cluster. The zero value
// starts every service with scheme 2 (one-way functions, the scheme
// production Amoeba used) on a perfect network.
type ClusterConfig struct {
	// Scheme selects the rights-protection algorithm for all services
	// (default SchemeOneWay).
	Scheme SchemeID
	// Seed makes the cluster deterministic; 0 draws from crypto/rand.
	Seed uint64
	// Latency, Jitter, LossRate, Duplicate and Reorder shape the
	// simulated network (see amnet.SimConfig); the fault knobs drive
	// the chaos tests.
	Latency   time.Duration
	Jitter    time.Duration
	LossRate  float64
	Duplicate float64
	Reorder   float64
	// Bank sets the bank server's policy (default: minting allowed,
	// dollar/franc convertible at 5 francs per dollar).
	Bank *banksvr.Config
	// SealCapabilities additionally protects every capability in
	// flight with the §2.4 key matrix: request and reply capability
	// fields are encrypted under per-(source, destination) keys. This
	// composes with the F-box protection; a wiretap then sees only
	// ciphertext capabilities. See EXPERIMENTS.md E8.
	SealCapabilities bool
	// Replicas ≥ 2 boots every shard of the durable services (directory
	// and bank) as a replication GROUP of that total size (a primary plus
	// Replicas-1 standbys, each on its own machine and write-ahead log)
	// with leased leadership and automatic failover: commits ship
	// synchronously to every live standby before the client is answered,
	// the primary's serving lease is renewed by acks on the ship stream
	// (bare heartbeats when idle), a lapsed lease fences
	// acknowledgements, each standby runs a failure detector, and on
	// primary silence the highest-acked standby takes the put-port over —
	// no operator verb is involved. The group keeps its size: a killed or
	// drained machine's place waits for Restart to fill it with a fresh
	// standby, and a primary deposed while alive refills its own at once.
	// Replication is this or nothing: 0 or 1 leaves the services
	// unreplicated. See EXPERIMENTS E19 (election floor) and E21.
	Replicas int
	// Shards ≥ 2 partitions each durable service's object space across
	// that many machines: every shard serves the SAME put-port (one
	// get-port, M machines), a versioned shard map routes each object
	// number to its shard, and capability tables mint only numbers that
	// route back to the minting shard. Each shard may itself be a
	// replication group (compose with Replicas); Cluster.Migrate moves
	// single objects between shards live. 0 or 1 is the one-shard case of
	// the same machinery, with no shard map on the wire: clients route by
	// LOCATE alone. See EXPERIMENTS.md E23.
	Shards int
	// LeaseTerm is the group serving-lease duration (default 150ms).
	// Standby failure detectors fire after 1.5 terms of silence, so
	// the guarantee tolerates clock skew up to LeaseTerm/2. Shorter
	// terms fail over faster but heartbeat more.
	LeaseTerm time.Duration
	// DebugAddr starts an HTTP debug listener serving /metrics
	// (Prometheus text format), /debug/vars (expvar + JSON metrics),
	// /debug/requests (the access-log ring) and /debug/pprof. Use
	// "127.0.0.1:0" for an ephemeral port (see Cluster.DebugURL).
	// Empty leaves the listener off; metrics are collected either way.
	DebugAddr string
	// LookupLease > 0 turns on lease-based client caching of directory
	// lookups: the directory servers grant a lease of this duration on
	// every lookup reply, and Dirs() returns a caching client that
	// answers reads under an unexpired lease locally — zero RPCs.
	// Mutations bump a per-directory generation carried on the
	// mutator's reply, so a client's own writes invalidate its cache
	// instantly; everyone else's staleness is bounded by this duration.
	// Zero (the default) leaves leases off and the wire byte-identical.
	LookupLease time.Duration
}

// Cluster is a complete single-process Amoeba system on a simulated
// network: one machine per service plus one client machine. It exists
// so examples, tests and experiments can stand a whole system up in a
// few milliseconds; the services themselves are the same code a TCP
// deployment runs.
//
// The directory and bank servers — the two services whose loss would
// strand capabilities or bend the money supply — run durable: their
// mutations are written ahead to per-service logs on simulated stable
// storage, so Kill and Restart model a machine crash the cluster
// actually recovers from.
type Cluster struct {
	net *amnet.SimNet
	src crypto.Source
	cfg ClusterConfig

	client   *rpc.Client
	clientFB *fbox.FBox

	// env is what every service on every machine is built from (the
	// internal/node table does the building); disk is the block server's.
	env  *node.Env
	disk *vdisk.Disk

	// matrix is non-nil when SealCapabilities is on.
	matrix *keymatrix.Matrix

	// Observability: one registry and one access-log ring for the whole
	// cluster, shared by every service's ServerStats. Both are always
	// on (pure atomics when nobody scrapes); debugURL is set only when
	// ClusterConfig.DebugAddr started a listener.
	reg      *obs.Registry
	ring     *obs.Ring
	debugURL string

	// lookupCache holds lease-cached directory bindings for every
	// Dirs() client; non-nil only when ClusterConfig.LookupLease > 0.
	lookupCache *lease.Cache

	// closers end what no replica owns (the client's and NewMachine's
	// F-boxes, the debug listener); replicas end in retire.
	closersMu sync.Mutex
	closers   []func() error
	closing   atomic.Bool // set by Close; late detector fires become no-ops

	// lifeMu serializes the lifecycle verbs — Kill, Restart, Drain,
	// Migrate, elections, and so every node.Replica verb — end to end:
	// none may observe another's intermediate states. mu guards what they
	// swap: each shard's slots, primary and group state, and down flags.
	lifeMu sync.Mutex
	mu     sync.Mutex

	// shards holds every service's shards under its metrics label (index
	// = shard number): one single-slot shard for each volatile service, ≥ 1
	// for the durable ones, each optionally a replication group. The map
	// is filled during boot and fixed afterwards (the shards themselves
	// swap machines in place). atlas is the process-wide shard-map
	// directory every resolver and kernel view reads; it stays empty on a
	// one-shard cluster.
	shards map[string][]*svcShard
	atlas  *shard.Atlas
}

// Machines identifies the cluster's machines on the simulated
// network, for partitioning experiments (SimNet.Partition/Heal).
type Machines struct {
	Client   amnet.MachineID
	Memory   amnet.MachineID
	Blocks   amnet.MachineID
	Files    amnet.MachineID
	Dirs     amnet.MachineID
	Versions amnet.MachineID
	Bank     amnet.MachineID
}

// Machines returns the machine IDs of the cluster's client and
// service hosts; Dirs and Bank are shard 0's current primary. A
// restarted or failed-over service reappears on a NEW machine —
// re-read after Restart or an election.
func (cl *Cluster) Machines() Machines {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	at := func(label string) amnet.MachineID { return cl.shards[label][0].primary.Machine() }
	return Machines{
		Client: cl.clientFB.Machine(),
		Memory: at("memory"), Blocks: at("blocks"), Files: at("files"),
		Dirs: at("directory"), Versions: at("versions"), Bank: at("bank"),
	}
}

// NewCluster boots a cluster with every §3 service running.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	if cfg.Scheme == 0 {
		cfg.Scheme = SchemeOneWay
	}
	scheme, err := cap.NewScheme(cfg.Scheme)
	if err != nil {
		return nil, err
	}
	var src crypto.Source
	if cfg.Seed != 0 {
		src = crypto.NewSeededSource(cfg.Seed)
	} else {
		src = crypto.SystemSource()
	}

	cl := &Cluster{
		net: amnet.NewSimNet(amnet.SimConfig{
			Latency:   cfg.Latency,
			Jitter:    cfg.Jitter,
			LossRate:  cfg.LossRate,
			Duplicate: cfg.Duplicate,
			Reorder:   cfg.Reorder,
			Seed:      cfg.Seed,
		}),
		src:    src,
		cfg:    cfg,
		shards: make(map[string][]*svcShard),
		atlas:  shard.NewAtlas(),
		reg:    obs.NewRegistry(),
		ring:   obs.NewRing(accessLogSize),
	}
	if cfg.SealCapabilities {
		cl.matrix = keymatrix.NewMatrix(src)
	}
	cl.env = &node.Env{
		Scheme:      scheme,
		Source:      src,
		Metrics:     cl.reg,
		Ring:        cl.ring,
		Bank:        cfg.Bank,
		LookupLease: cfg.LookupLease,
		LeaseTerm:   cfg.LeaseTerm,
		Seed:        cfg.Seed,
	}
	// Lookup-cache counters are registered even with leases off, so
	// dashboards see the series at zero instead of a gap; the cache
	// itself exists only when the knob is on.
	lookupCtr := lease.Counters{
		Hits:        cl.reg.Counter("amoeba_lookup_cache_hits_total", obs.L("service", "directory"), "directory lookups served from the client lease cache"),
		Misses:      cl.reg.Counter("amoeba_lookup_cache_misses_total", obs.L("service", "directory"), "directory lookups with no cached binding"),
		Expired:     cl.reg.Counter("amoeba_lookup_cache_expired_total", obs.L("service", "directory"), "cached bindings refused because their lease lapsed"),
		Invalidated: cl.reg.Counter("amoeba_lookup_cache_invalidated_total", obs.L("service", "directory"), "cached bindings dropped because the client's own write superseded them"),
	}
	ok := false
	defer func() {
		if !ok {
			cl.Close()
		}
	}()

	// Client machine.
	cl.clientFB, err = cl.newFBox()
	if err != nil {
		return nil, err
	}
	cl.client = cl.newRPCClient(cl.clientFB)
	if cfg.LookupLease > 0 {
		cl.lookupCache = lease.New(0, lookupCtr, cl.clientFB.Clock())
	}

	// Every service's serving incarnation first, one machine each, in
	// table order; then (Replicas ≥ 2) each durable shard's replication
	// group. Per-shard leases, detectors and elections — one shard's
	// failover never touches another's.
	if cl.disk, err = vdisk.New(diskBlocks, diskBlockSize); err != nil {
		return nil, err
	}
	for _, row := range node.Services {
		if err := cl.startService(row); err != nil {
			return nil, err
		}
	}
	if cfg.Replicas >= 2 {
		for _, sh := range cl.allShards() {
			if err := cl.startGroup(sh); err != nil {
				return nil, err
			}
		}
	}

	cl.registerGauges()
	if cfg.DebugAddr != "" {
		url, stop, err := node.ListenDebug(cfg.DebugAddr, cl.reg, cl.ring)
		if err != nil {
			return nil, fmt.Errorf("amoeba: %w", err)
		}
		cl.debugURL = url
		cl.addCloser(stop)
	}

	ok = true
	return cl, nil
}

// WAL geometry for the durable services' simulated disks: 2048 × 512 B
// (1 MiB) per machine, checkpoint-compacted at half full.
const (
	walBlocks    = 2048
	walBlockSize = 512
)

// Fixed sizes nobody ever configured: the block server's disk and its
// block, and the access-log ring of recent request records.
const (
	diskBlocks    = 4096
	diskBlockSize = 1024
	accessLogSize = 1024
)

// Help strings for counters registered from more than one place (boot,
// increment sites, tests): the registry is idempotent on (name, labels),
// and the help text must agree.
const (
	wedgedHelp         = "write-ahead logs wedged by an I/O failure (log turned read-only)"
	demotedHelp        = "primaries that fail-stopped themselves over a wedged WAL (gray disk failure converted to a crash)"
	failoversHelp      = "automatic failovers (standby self-promotions)"
	reintegrationsHelp = "machines re-attached to a replication group as fresh standbys"
)

// WALFault returns the disk-fault injector around the WAL of the live
// durable replica on machine m (primary or standby), or nil. Injected
// faults die with the replica: Restart reopens the disk under a NEW
// machine and a fresh injector — re-read Machines after a restart.
func (cl *Cluster) WALFault(m amnet.MachineID) *vdisk.FaultStore {
	if r := cl.find(func(r *replica) bool { return r.Machine() == m && !r.down }); r != nil {
		return r.Faults()
	}
	return nil
}

// onWALWedge is every WAL's wedge callback (on the log's own goroutine,
// so it may take lifeMu): it turns a gray failure into a fail-stop
// crash. A wedged PRIMARY's disk takes nothing while its NIC keeps
// answering, so no detector would fire; its shipper has already
// renounced leadership (repl.Shipper.SelfDemote), and tearing the
// machine down here lets the standbys elect as if it had crashed. A
// wedged STANDBY's receiver answers every frame with its death, which
// drops it from the ack quorum; it waits for Kill+Restart.
func (cl *Cluster) onWALWedge(service string, m amnet.MachineID, cause error) {
	cl.reg.Counter("amoeba_wal_wedged_total", obs.L("service", service), wedgedHelp).Inc()
	cl.lifeMu.Lock()
	defer cl.lifeMu.Unlock()
	if cl.closing.Load() {
		return
	}
	stdlog.Printf("amoeba: %s WAL on machine %v wedged: %v", service, m, cause)
	r := cl.member(m)
	if r == nil || r != r.sh.primary || r.down {
		return // a standby, or already killed, or already failed over
	}
	cl.reg.Counter("amoeba_self_demotions_total", obs.L("service", r.sh.label), demotedHelp).Inc()
	_ = cl.retire(r, node.Crashed) // the machine is being written off; its close errors interest nobody
	stdlog.Printf("amoeba: %s machine %v fail-stopped (wedged WAL); dead disk, dead machine", r.sh.label, m)
}

// registerGauges wires the scrape-time series: each shard's serving
// replica's (node.Gauges), the gray-failure counters of the durable
// ones, and each durable service's shard-map generation and migration
// counter. Gauge functions run only when someone exports the registry,
// so they may take cl.mu to read through Kill/Restart/election swaps.
func (cl *Cluster) registerGauges() {
	for _, row := range node.Services {
		for _, sh := range cl.shards[row.Label] {
			node.Gauges(cl.reg, sh.label, row.Durable, func() *node.Replica {
				cl.mu.Lock()
				defer cl.mu.Unlock()
				return sh.primary.Replica
			})
		}
	}
	for _, sh := range cl.allShards() {
		labels := obs.L("service", sh.label)
		// Gray-failure counters exist from boot (not lazily at first
		// wedge): a dashboard alerting on rate(amoeba_wal_wedged_total)
		// needs the series present while it is still zero.
		cl.reg.Counter("amoeba_wal_wedged_total", labels, wedgedHelp)
		cl.reg.Counter("amoeba_self_demotions_total", labels, demotedHelp)
		// Sharding series, per service under shard 0's label, present from
		// boot so dashboards see the zero. Per-shard request counters need
		// no new series — every shard reports through the standard request
		// metrics under its own label ("directory-1", …).
		if sh.idx == 0 {
			cl.reg.GaugeFunc("amoeba_shard_map_generation", labels, "current shard-map generation (0 = unsharded)",
				func() float64 { return float64(cl.ShardMapGen(sh.put)) })
			cl.reg.Counter("amoeba_migrations_total", labels, migrationsHelp)
		}
	}
}

// Metrics returns the cluster-wide metric registry (counters, gauges
// and latency histograms for every service). Always live, even with no
// debug listener.
func (cl *Cluster) Metrics() *obs.Registry { return cl.reg }

// AccessLog returns the cluster-wide ring of recent request records.
func (cl *Cluster) AccessLog() *obs.Ring { return cl.ring }

// DebugURL returns the debug HTTP server's base URL ("http://host:port"),
// or "" when ClusterConfig.DebugAddr was empty.
func (cl *Cluster) DebugURL() string { return cl.debugURL }

// startGroup makes sh a replication group: a standby in every slot but
// the primary's, the primary's shipper at term 1, and a failure
// detector armed on every standby.
func (cl *Cluster) startGroup(sh *svcShard) error {
	var peers []*node.Replica
	for i := 1; i < len(sh.slots); i++ {
		st, err := cl.open(sh, nil)
		if err != nil {
			return err
		}
		if err := st.Follow(); err != nil {
			st.Retire(node.Crashed)
			return err
		}
		cl.mu.Lock()
		sh.slots[i] = st
		cl.mu.Unlock()
		peers = append(peers, st.Replica)
	}
	if err := sh.primary.Lead(peers, 1); err != nil {
		return fmt.Errorf("amoeba: %s: %w", sh.label, err)
	}
	cl.mu.Lock()
	sh.term = 1
	cl.mu.Unlock()
	cl.startDetectors(sh)
	return nil
}

// startDetectors arms a failure detector on every live standby that
// lacks one, bound to the CURRENT election generation: one that fires
// after a later election is a no-op. Caller holds lifeMu (or boots).
func (cl *Cluster) startDetectors(sh *svcShard) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	gen := sh.gen
	for _, st := range sh.standbysLocked() {
		if st.down {
			continue
		}
		// On its own goroutine: the election stops every detector,
		// possibly this one mid-fire, which would deadlock its loop.
		st.Arm(func() { go cl.autoFailover(sh, gen) })
	}
}

// refuseElection counts a refused election and replaces any detector
// that has fired with a fresh one: the alarm stays armed without the
// refusal being final. Caller holds lifeMu.
func (cl *Cluster) refuseElection(sh *svcShard) {
	cl.reg.Counter("amoeba_elections_refused_total", obs.L("service", sh.label),
		"elections refused (no live quorum, or a sibling still hears the primary)").Inc()
	cl.mu.Lock()
	sts := sh.standbysLocked()
	cl.mu.Unlock()
	for _, st := range sts {
		if st.Fired() {
			st.Disarm()
		}
	}
	cl.startDetectors(sh)
}

// autoFailover is what a standby's failure detector fires after 1.5
// lease terms of primary silence: confirm the silence, then elect. The
// old primary's lease (1.0 terms, its own clock) has lapsed by then, so
// the successor serves without overlap.
func (cl *Cluster) autoFailover(sh *svcShard, gen uint64) {
	cl.lifeMu.Lock()
	defer cl.lifeMu.Unlock()
	if cl.closing.Load() {
		return // teardown, not an outage
	}
	// Confirm the silence with the group before deposing anyone: the
	// primary heartbeats EVERY live standby, so a sibling that heard it
	// lately means the alarm is a local stall (a GC pause). This is the
	// in-process analogue of a pre-vote round.
	cl.mu.Lock()
	stale := sh.gen != gen
	heard := slices.ContainsFunc(sh.standbysLocked(), func(st *replica) bool {
		return !st.down && st.Hears()
	})
	cl.mu.Unlock()
	switch {
	case stale:
		// A concurrent detector already ran this election (or a later
		// one); this silence is old news.
	case heard:
		cl.refuseElection(sh)
	default:
		cl.elect(sh)
	}
}

// elect moves sh's put-port to the live standby with the newest Pos, at
// the next term; the others become its peers. autoFailover and Drain
// decide the primary is gone. A primary deposed while still up is
// taken down and its slot rebuilt as a fresh standby at once: an election
// never shrinks the group. It reports whether a successor now serves.
// Caller holds lifeMu.
func (cl *Cluster) elect(sh *svcShard) bool {
	cl.mu.Lock()
	sh.gen++
	old, deposedAlive, term := sh.primary, !sh.primary.down, sh.term+1
	sts := sh.standbysLocked()
	cl.mu.Unlock()
	sts = slices.DeleteFunc(sts, func(st *replica) bool { return st.down })
	if len(sts) == 0 {
		return false // nobody left to promote; the group is down until Restart
	}
	if len(sts) < len(sh.slots)/2+1 {
		// Too few live members to grant the winner a serving lease
		// (majorities count the CONFIGURED group): refuse and re-arm. A
		// live primary's next heartbeat quiets the alarm; a dead one
		// leaves the group fenced until Restart restores a quorum.
		cl.refuseElection(sh)
		return false
	}
	// Depose the old primary BEFORE choosing a winner: a half-alive old
	// shipper could otherwise ack a batch, on {itself, one standby},
	// after the positions are read, and that standby would then re-base
	// onto a lower successor. Once Depose returns the fence refuses every
	// later acknowledgement, so the newest Pos read below bounds every
	// acknowledged op.
	old.Depose()
	// Quiet the group (fresh detectors come below) and end the old
	// primary the way a crashed one ends: deposed while alive, its log
	// beyond the winner's position is a dead branch of history.
	for _, st := range sts {
		st.Disarm()
	}
	cl.retire(old, node.Crashed)
	// Newest by (term, seq): a standby left on an older term's base holds
	// a numerically larger sequence in a dead numbering and must not win.
	var win *replica
	var at repl.Pos
	for _, st := range sts {
		if p := st.Pos(); win == nil || at.Less(p) {
			win, at = st, p
		}
	}
	var peers []*node.Replica
	for _, st := range sts {
		if st != win {
			peers = append(peers, st.Replica)
		}
	}
	if err := win.Lead(peers, term); err != nil {
		stdlog.Printf("amoeba: %s election: installing successor: %v", sh.label, err)
		cl.retire(win, node.Crashed) // neither standby nor primary now: a down slot Restart can rebuild
		cl.startDetectors(sh)        // the survivors' alarms stay armed
		return false
	}
	cl.mu.Lock()
	sh.primary, sh.term = win, term
	cl.mu.Unlock()
	cl.syncShardMachine(sh.put, sh.idx, win.Machine())
	cl.reg.Counter("amoeba_failovers_total", obs.L("service", sh.label), failoversHelp).Inc()
	stdlog.Printf("amoeba: %s failover: machine %v promoted at (term %d, seq %d) to term %d",
		sh.label, win.Machine(), at.Term, at.Seq, term)
	cl.startDetectors(sh)
	if deposedAlive {
		// Nobody will Restart a machine nobody killed: its slot comes
		// back at once, through the same door Restart uses.
		if err := cl.rejoin(old, old.Machine()); err != nil {
			stdlog.Printf("amoeba: %s election: %v (machine %v waits for Restart)", sh.label, err, old.Machine())
		}
	}
	return true
}

// Drain gracefully retires the durable primary hosted on machine m —
// the planned-maintenance counterpart of Kill (node.Drained: new
// requests are refused with rpc.StatusOverload, in-flight ones finish,
// ship and REPLY, the final checkpoint runs, then the shipper and NIC
// go). On a replication group the election runs at once — the standbys
// hold every acknowledged op — and the machine rejoins as a standby via
// Restart; if it is refused (no live quorum) the detectors retry once
// Restart has restored one. Unreplicated, the service stays down until
// Restart recovers it from the drained WAL.
func (cl *Cluster) Drain(m amnet.MachineID) error {
	cl.lifeMu.Lock()
	defer cl.lifeMu.Unlock()
	p := cl.member(m)
	if p == nil {
		return fmt.Errorf("amoeba: machine %v does not host a drainable (durable) service", m)
	}
	sh := p.sh
	if p != sh.primary {
		return fmt.Errorf("amoeba: machine %v is a %s standby with nothing in flight to drain; Kill it instead", m, sh.label)
	}
	if p.down {
		return fmt.Errorf("amoeba: %s server already down", sh.label)
	}
	err := cl.retire(p, node.Drained)
	if len(sh.slots) > 1 {
		cl.elect(sh)
	}
	return err
}

// Kill crashes the durable-service machine m, primary or standby
// (node.Crashed): only what its write-ahead log committed survives. A
// dead primary's standbys elect from their detectors; a dead standby is
// shipped around. Either waits for Restart.
func (cl *Cluster) Kill(m amnet.MachineID) error {
	cl.lifeMu.Lock()
	defer cl.lifeMu.Unlock()
	r := cl.member(m)
	if r == nil {
		return fmt.Errorf("amoeba: machine %v does not host a killable (durable) service", m)
	}
	if r.down {
		return fmt.Errorf("amoeba: %s machine %v already down", r.sh.label, m)
	}
	return cl.retire(r, node.Crashed)
}

// Restart brings a killed or drained machine's service back on a FRESH
// machine, in its old slot. An unreplicated shard recovers from its
// write-ahead log (same disk and get-port): clients' cached locations
// go stale, and their re-broadcast LOCATE — §2.2's path to a moved
// server — finds the new incarnation. A group member rejoins as a fresh
// standby. A failed Restart leaves the slot down, to be retried.
func (cl *Cluster) Restart(m amnet.MachineID) error {
	cl.lifeMu.Lock()
	defer cl.lifeMu.Unlock()
	r := cl.member(m)
	switch {
	case r == nil && cl.find(func(r *replica) bool { return r.was == m }) != nil:
		return nil // m was deposed while alive: the election already rebuilt its slot
	case r == nil:
		return fmt.Errorf("amoeba: machine %v does not host a restartable (durable) service", m)
	case !r.down:
		return fmt.Errorf("amoeba: %s machine %v is not down", r.sh.label, m)
	case len(r.sh.slots) == 1:
		return cl.startShard(r.sh, r.WAL())
	case r == r.sh.primary:
		// A dead group primary must wait for the survivors' election
		// before it can rejoin as their standby.
		return fmt.Errorf("amoeba: machine %v is the %s group primary; wait for the election, then Restart re-attaches it", m, r.sh.label)
	}
	return cl.rejoin(r, 0)
}

// attach puts a fresh machine on the simulated network.
func (cl *Cluster) attach() (*fbox.FBox, error) {
	nic, err := cl.net.Attach()
	if err != nil {
		return nil, fmt.Errorf("amoeba: attaching machine: %w", err)
	}
	return fbox.New(nic, nil), nil
}

// newFBox attaches a machine no replica owns (the client's,
// NewMachine's); Close shuts it.
func (cl *Cluster) newFBox() (*fbox.FBox, error) {
	fb, err := cl.attach()
	if err == nil {
		cl.addCloser(fb.Close)
	}
	return fb, err
}

func (cl *Cluster) addCloser(f func() error) {
	cl.closersMu.Lock()
	cl.closers = append(cl.closers, f)
	cl.closersMu.Unlock()
}

func (cl *Cluster) newRPCClient(fb *fbox.FBox) *rpc.Client {
	res := locate.New(fb, locate.Config{Atlas: cl.atlas})
	return rpc.NewClient(fb, res, rpc.ClientConfig{
		Source: cl.src,
		Sealer: cl.sealerFor(fb),
	})
}

// sealerFor returns the machine's key-matrix guard, or nil when
// sealing is off.
func (cl *Cluster) sealerFor(fb *fbox.FBox) rpc.CapSealer {
	if cl.matrix == nil {
		return nil
	}
	return cl.matrix.DynamicGuard(fb.Machine(), nil)
}

// Close shuts every server and machine down.
func (cl *Cluster) Close() error {
	// The flag first: a detector that fires mid-teardown (queued on
	// lifeMu) must not elect over closed resources. Then every slot
	// retires, in reverse boot order (the file server before its block
	// server), as a crash: nobody will read these disks again.
	cl.closing.Store(true)
	cl.lifeMu.Lock()
	var firstErr error
	for i := len(node.Services) - 1; i >= 0; i-- {
		for _, sh := range cl.shards[node.Services[i].Label] {
			for _, r := range sh.slots {
				if r != nil {
					firstErr = cmp.Or(firstErr, cl.retire(r, node.Crashed))
				}
			}
		}
	}
	cl.lifeMu.Unlock()
	cl.closersMu.Lock()
	closers := cl.closers
	cl.closers = nil
	cl.closersMu.Unlock()
	for i := len(closers) - 1; i >= 0; i-- {
		firstErr = cmp.Or(firstErr, closers[i]())
	}
	return cmp.Or(firstErr, cl.net.Close())
}

// Memory returns a typed client for the memory server (§3.1).
func (cl *Cluster) Memory() *memsvr.Client {
	return memsvr.NewClient(cl.client, cl.put("memory"))
}

// Blocks returns a typed client for the block server (§3.2).
func (cl *Cluster) Blocks() *blocksvr.Client {
	return blocksvr.NewClient(cl.client, cl.put("blocks"))
}

// Files returns a typed client for the flat file server (§3.3).
func (cl *Cluster) Files() *flatfs.Client {
	return flatfs.NewClient(cl.client, cl.put("files"))
}

// FilesFor binds a flat-file client to a different RPC client (one
// obtained from NewMachine) — a second user process with its own
// machine, reply ports and locate cache.
func (cl *Cluster) FilesFor(c *rpc.Client) *flatfs.Client {
	return flatfs.NewClient(c, cl.put("files"))
}

// Dirs returns a typed client for directory services (§3.4). With
// ClusterConfig.LookupLease set, the client serves lookups from the
// cluster-wide lease cache — reads under an unexpired lease cost zero
// RPCs (see package lease for the staleness contract).
func (cl *Cluster) Dirs() *dirsvr.Client {
	if cl.lookupCache != nil {
		return dirsvr.NewCachingClient(cl.client, cl.lookupCache)
	}
	return dirsvr.NewClient(cl.client)
}

// DirPort returns the directory server's put-port (CreateDir needs a
// server to create the directory on).
// The put-port is pinned across Kill/Restart (the get-port is
// persisted with the log), so a cached DirPort stays valid over a
// crash.
func (cl *Cluster) DirPort() Port { return cl.put("directory") }

// Versions returns a typed client for the multiversion file server
// (§3.5).
func (cl *Cluster) Versions() *mvfs.Client {
	return mvfs.NewClient(cl.client, cl.put("versions"))
}

// Bank returns a typed client for the bank server (§3.6).
func (cl *Cluster) Bank() *banksvr.Client {
	return banksvr.NewClient(cl.client, cl.put("bank"))
}

// NewUnixFS creates a fresh root directory and returns a UNIX-like
// view over it (the paper's third file system). The context bounds
// the root-directory creation transaction only.
func (cl *Cluster) NewUnixFS(ctx context.Context) (*unixfs.FS, error) {
	dirs := cl.Dirs()
	root, err := dirs.CreateDir(ctx, cl.DirPort())
	if err != nil {
		return nil, err
	}
	return unixfs.New(dirs, cl.Files(), root), nil
}

// RPC returns the cluster's default client for raw transactions.
func (cl *Cluster) RPC() *rpc.Client { return cl.client }

// NewMachine attaches a fresh machine (its own F-box and RPC client) —
// a second user workstation, an intruder host, a server host for
// custom services.
func (cl *Cluster) NewMachine() (*fbox.FBox, *rpc.Client, error) {
	fb, err := cl.newFBox()
	if err != nil {
		return nil, nil, err
	}
	return fb, cl.newRPCClient(fb), nil
}

// Tap attaches a passive wiretap to the cluster network (the §2.4
// intruder's capture capability).
func (cl *Cluster) Tap() (*amnet.Tap, error) { return cl.net.Tap() }

// Net exposes the simulated network (partitions, stats).
func (cl *Cluster) Net() *amnet.SimNet { return cl.net }

// ErrNoCluster is returned by helpers that need a running cluster.
var ErrNoCluster = errors.New("amoeba: cluster not running")
