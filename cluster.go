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
	"amoeba/internal/svc"
	"amoeba/internal/vdisk"
	"amoeba/internal/wal"
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
	// DiskBlocks is the block server's size in 1 KiB blocks (default
	// 4096).
	DiskBlocks uint32
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

	// closers end what no replica owns: the client's and NewMachine's
	// F-boxes and the debug listener. Replicas end in retire.
	closersMu sync.Mutex
	closers   []func() error
	closing   atomic.Bool // set by Close; late detector fires become no-ops

	// lifeMu serializes the lifecycle verbs — Kill, Restart, Drain,
	// Migrate, elections — end to end: each publishes intermediate
	// states (down flags, half-built standbys, a NIC that is closing)
	// that the others must never observe mid-flight. These are rare
	// operator actions; coarse serialization is the correctness tool,
	// while mu below stays the fine-grained field guard.
	lifeMu sync.Mutex

	// mu guards everything Kill/Restart/elections swap: each shard's
	// slots, primary and group state, and walFaults below.
	mu sync.Mutex

	// shards holds every service's shards under its metrics label (index
	// = shard number): one single-slot shard for each volatile service, ≥ 1
	// for the durable ones, each optionally a replication group. The map
	// is filled during boot and fixed afterwards (the shards themselves
	// swap machines in place). atlas is the process-wide shard-map
	// directory every resolver and kernel view reads; it stays empty on a
	// one-shard cluster.
	shards map[string][]*svcShard
	atlas  *shard.Atlas

	// walFaults maps each durable incarnation's machine to the fault
	// injector wrapped around its WAL store — the chaos tests' handle
	// for killing any machine's disk mid-soak. Keyed by machine because
	// a machine IS an incarnation here: Restart reopens the same disk
	// under a new machine and a fresh injector (a replaced disk is a
	// healthy disk). An entry lives as long as its replica is up.
	walFaults map[amnet.MachineID]*vdisk.FaultStore
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
	at := func(label string) amnet.MachineID { return cl.shards[label][0].primary.machine }
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
	if cfg.DiskBlocks == 0 {
		cfg.DiskBlocks = 4096
	}
	if cfg.LeaseTerm <= 0 {
		cfg.LeaseTerm = repl.DefaultLeaseTerm
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
		src:       src,
		cfg:       cfg,
		shards:    make(map[string][]*svcShard),
		walFaults: make(map[amnet.MachineID]*vdisk.FaultStore),
		atlas:     shard.NewAtlas(),
		reg:       obs.NewRegistry(),
		ring:      obs.NewRing(accessLogSize),
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
	}
	// Lookup-cache counters are registered even with leases off, so
	// dashboards see the series at zero instead of a gap; the cache
	// itself exists only when the knob is on.
	lookupCtr := lease.Counters{
		Hits:        cl.reg.Counter("amoeba_lookup_cache_hits_total", obs.L("service", "directory"), "directory lookups served from the client lease cache"),
		Misses:      cl.reg.Counter("amoeba_lookup_cache_misses_total", obs.L("service", "directory"), "directory lookups with no cached binding"),
		Expired:     cl.reg.Counter("amoeba_lookup_cache_expired_total", obs.L("service", "directory"), "cached bindings refused because their lease lapsed"),
		Invalidated: cl.reg.Counter("amoeba_lookup_cache_invalidated_total", obs.L("service", "directory"), "cached bindings refused because the client's own write superseded them"),
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
	if cl.disk, err = vdisk.New(cfg.DiskBlocks, diskBlockSize); err != nil {
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

// Fixed sizes nobody ever configured: the block server's block, and the
// access-log ring of recent request records.
const (
	diskBlockSize = 1024
	accessLogSize = 1024
)

// Help strings for counters registered from more than one place (the
// registry is idempotent on (name, labels), and the help text must
// agree): the gray-failure pair at boot and at the increment sites, the
// election pair here and in the tests that read them.
const (
	wedgedHelp         = "write-ahead logs wedged by an I/O failure (log turned read-only)"
	demotedHelp        = "primaries that fail-stopped themselves over a wedged WAL (gray disk failure converted to a crash)"
	failoversHelp      = "automatic failovers (standby self-promotions)"
	reintegrationsHelp = "machines re-attached to a replication group as fresh standbys"
)

// openWAL opens a durable service's write-ahead log over disk, wrapped
// in a deterministic fault injector keyed by the serving machine —
// every WAL in the cluster (primaries and standbys alike) can have its
// disk killed mid-soak via WALFault. The log's wedge callback is wired
// here too: a wedged WAL bumps amoeba_wal_wedged_total and fail-stops
// the machine, because a disk that takes nothing makes the machine a
// liability the moment it keeps answering the network.
func (cl *Cluster) openWAL(service string, fb *fbox.FBox, disk *vdisk.Disk) (*wal.Log, error) {
	m := fb.Machine()
	fs := vdisk.NewFaultStore(disk, cl.cfg.Seed^uint64(m)*0x9E3779B97F4A7C15, fb.Clock())
	// The registry is idempotent on (name, labels): every incarnation's
	// commit-path histograms land on the same series.
	log, err := wal.Open(fs, wal.Options{Metrics: &wal.Metrics{
		SyncLatency:  cl.reg.Histogram("amoeba_wal_sync_ns", obs.L("service", service), "write-ahead log group-commit latency (arena write + sync), nanoseconds"),
		BatchRecords: cl.reg.Histogram("amoeba_wal_batch_records", obs.L("service", service), "records per write-ahead log group commit"),
	}})
	if err != nil {
		return nil, err
	}
	log.OnWedge(func(cause error) { cl.onWALWedge(service, m, cause) })
	cl.mu.Lock()
	cl.walFaults[m] = fs
	cl.mu.Unlock()
	return log, nil
}

// WALFault returns the disk-fault injector wrapped around the WAL of
// the durable incarnation on machine m (primary or standby), or nil if
// m hosts no WAL. Restart reopens the service's disk under a NEW
// machine with a fresh injector, so injected faults die with the
// incarnation — re-read Machines after a restart.
func (cl *Cluster) WALFault(m amnet.MachineID) *vdisk.FaultStore {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	return cl.walFaults[m]
}

// onWALWedge is every WAL's wedge callback (it runs on the log's own
// callback goroutine, so it may block on the lifecycle lock). It
// converts a gray failure into the fail-stop crash the rest of the
// cluster already understands. A wedged PRIMARY is the nightmare case:
// its disk takes nothing, yet its NIC keeps answering LOCATE and
// heartbeats, so no failure detector anywhere would fire. The shipper
// has already renounced leadership (repl.Shipper.SelfDemote fences
// acknowledgements and silences heartbeats); tearing the machine down
// here finishes the job — the NIC goes away, LOCATE stops answering for
// it, and the standbys elect exactly as if the machine had crashed. A
// wedged group STANDBY needs none of this: its receiver already answers
// every frame with its death, which drops it from the ack quorum; the
// corpse waits for Kill+Restart to re-integrate with a fresh disk.
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
	_ = cl.retire(r, crashed) // the machine is being written off; its close errors interest nobody
	stdlog.Printf("amoeba: %s machine %v fail-stopped (wedged WAL); dead disk, dead machine", r.sh.label, m)
}

// registerGauges wires the scrape-time series: queue depth and queue
// wait for every service; WAL occupancy, the gray-failure counters and
// the replication gauges for every shard of the durable ones; the
// shard-map generation and migration counter per durable service.
// Gauge functions run only when someone exports the registry, so they
// may take cl.mu to read through Kill/Restart/election swaps.
func (cl *Cluster) registerGauges() {
	flag := func(b bool) float64 {
		if b {
			return 1
		}
		return 0
	}
	for _, row := range node.Services {
		for _, sh := range cl.shards[row.Label] {
			// A gauge over a shard's serving kernel reads 0 while it is down.
			node.Gauges(cl.reg, sh.label, row.Durable, func() *svc.Kernel {
				cl.mu.Lock()
				defer cl.mu.Unlock()
				if sh.primary.down {
					return nil
				}
				return sh.primary.kern
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

		// Replication gauges follow the shard's current shipper and read
		// 0 on an unreplicated shard.
		shipGauge := func(name, help string, read func(*repl.Shipper) float64) {
			cl.reg.GaugeFunc(name, labels, help, func() float64 {
				cl.mu.Lock()
				ship := sh.primary.ship
				cl.mu.Unlock()
				if ship == nil {
					return 0
				}
				return read(ship)
			})
		}
		shipGauge("amoeba_ship_lag_records", "records committed locally but not yet acknowledged by the slowest live standby",
			func(s *repl.Shipper) float64 { return float64(s.Lag()) })
		shipGauge("amoeba_ship_lost", "1 when every standby's replication stream is currently written off",
			func(s *repl.Shipper) float64 { return flag(s.Lost()) })
		shipGauge("amoeba_lease_valid", "1 while the primary's serving lease holds a majority of fresh grants",
			func(s *repl.Shipper) float64 { return flag(s.LeaseValid()) })
		shipGauge("amoeba_repl_term", "current replication epoch (0 = unreplicated)",
			func(s *repl.Shipper) float64 { return float64(s.Term()) })
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

// newShipClient builds the replication channel's RPC client on the
// primary's machine. It skips the key-matrix sealer even when
// SealCapabilities is on: the stream carries WAL records, never
// capability fields, so there is nothing to seal.
func (cl *Cluster) newShipClient(fb *fbox.FBox) *rpc.Client {
	// TTL -1: the receiver's machine never moves within a shipper's
	// lifetime, so the route needs no periodic reconfirmation (the RPC
	// layer still evicts it on a delivery failure).
	res := locate.New(fb, locate.Config{TTL: -1})
	return rpc.NewClient(fb, res, rpc.ClientConfig{Source: cl.src})
}

// detectorGap is how long a standby tolerates primary silence before
// electing: 1.5 lease terms. The old primary's lease lapses (measured
// from its own send clock) after 1.0 terms, so even with the two clocks
// skewed by up to half a term the fence closes before a successor
// serves.
func (cl *Cluster) detectorGap() time.Duration {
	return cl.cfg.LeaseTerm + cl.cfg.LeaseTerm/2
}

// buildStandby stands one standby of sh up on a fresh machine and WAL
// disk: an un-started service kernel fed by a started receiver.
func (cl *Cluster) buildStandby(sh *svcShard) (*replica, error) {
	st, err := cl.buildReplica(sh, nil)
	if err != nil {
		return nil, err
	}
	st.recv = repl.NewReceiver(st.fb, cl.src, st.kern)
	if err := st.recv.Start(); err != nil {
		cl.retire(st, crashed)
		return nil, err
	}
	return st, nil
}

// attachShipper makes p a group primary at epoch term: the fan-out
// shipper to dests, its serving lease installed as both replica fence
// and admission gate. An election calls it BEFORE starting the
// successor's kernel, so the fence is in place from the first request —
// there is no unfenced window.
func (cl *Cluster) attachShipper(p *replica, dests []cap.Port, term uint64) error {
	// The attempt budget is kept small: a dead standby should be declared
	// lost (and shipped around) well before the client-visible RPC deadline.
	lt := cl.cfg.LeaseTerm
	ship, err := repl.AttachGroup(p.kern, cl.newShipClient(p.fb), dests, repl.Options{
		Timeout:   lt,
		Attempts:  4,
		Backoff:   2 * time.Millisecond,
		Reprobe:   lt,
		LeaseTerm: lt,
		GroupSize: len(p.sh.slots),
		Term:      term,
	})
	if err != nil {
		return fmt.Errorf("amoeba: attaching %s group: %w", p.sh.label, err)
	}
	cl.mu.Lock()
	p.ship = ship
	cl.mu.Unlock()
	p.kern.SetReplicaFence(ship.Fence)
	p.kern.SetAdmitGate(ship.Fence)
	return nil
}

// startGroup makes sh a replication group: a standby in every slot but
// the primary's, the primary's shipper at term 1, and a failure
// detector armed on every standby.
func (cl *Cluster) startGroup(sh *svcShard) error {
	var dests []cap.Port
	for i := 1; i < len(sh.slots); i++ {
		st, err := cl.buildStandby(sh)
		if err != nil {
			return err
		}
		cl.mu.Lock()
		sh.slots[i] = st
		cl.mu.Unlock()
		dests = append(dests, st.recv.Port())
	}
	if err := cl.attachShipper(sh.primary, dests, 1); err != nil {
		return err
	}
	cl.mu.Lock()
	sh.term = 1
	cl.mu.Unlock()
	cl.startDetectors(sh)
	return nil
}

// startDetectors arms a failure detector on every live standby that
// lacks one, bound to the CURRENT election generation — a detector
// that fires after a later election resolves to a no-op. Callers hold
// lifeMu (boot runs before any lifecycle verb can race).
func (cl *Cluster) startDetectors(sh *svcShard) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	gen, gap := sh.gen, cl.detectorGap()
	for _, st := range sh.standbysLocked() {
		if st.down || st.det != nil {
			continue
		}
		// The election runs on its own goroutine: onExpire is called
		// from the detector's poll loop, and the election stops every
		// detector in the group — including, possibly, a second one
		// mid-fire, which would deadlock if the first held its loop.
		st.det = repl.NewDetector(st.recv, gap, func() {
			go cl.autoFailover(sh, gen)
		})
		st.det.Start()
	}
}

// refuseElection counts a refused election and replaces any detector
// that has fired with a fresh one: the alarm stays armed without the
// refusal being final. Caller holds lifeMu.
func (cl *Cluster) refuseElection(sh *svcShard) {
	cl.reg.Counter("amoeba_elections_refused_total", obs.L("service", sh.label),
		"elections refused (no live quorum, or a sibling still hears the primary)").Inc()
	cl.mu.Lock()
	for _, st := range sh.standbysLocked() {
		if st.det != nil && st.det.Fired() {
			st.det.Stop()
			st.det = nil
		}
	}
	cl.mu.Unlock()
	cl.startDetectors(sh)
}

// autoFailover is what a standby's failure detector fires when the
// primary has been silent for 1.5 lease terms: confirm the silence,
// then elect. By the time this runs the old primary's lease (1.0
// terms, on its own clock) has lapsed, so it is already refusing
// acknowledgements — the successor can serve without overlap even
// before any StatusStale bounce reaches the old one.
func (cl *Cluster) autoFailover(sh *svcShard, gen uint64) {
	cl.lifeMu.Lock()
	defer cl.lifeMu.Unlock()
	if cl.closing.Load() {
		return // teardown, not an outage
	}
	// Confirm the silence with the rest of the group before deposing
	// anyone: the primary heartbeats EVERY live standby, so if any
	// sibling heard it within half a detector gap the alarm is a local
	// stall — a GC pause counterfeits a silent primary on the stalled
	// side only. This is the in-process analogue of a pre-vote round;
	// electing on one member's say-so under load is how live primaries
	// get exiled. Each sibling measures the silence on its own clock.
	cl.mu.Lock()
	stale := sh.gen != gen
	heard := slices.ContainsFunc(sh.standbysLocked(), func(st *replica) bool {
		return !st.down && st.recv.Silence() < cl.detectorGap()/2
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

// elect moves sh's put-port to the live standby with the newest durable
// position (repl.Pos: term first, then sequence), at the next term; the
// others become its peers. It asks nobody whether the primary is really
// gone — autoFailover (silence confirmed) and Drain (the primary has
// just left) decide that. A primary it deposes while still up goes
// through retire and its slot is rebuilt as a fresh standby at once: an
// election never shrinks the group. It reports whether a successor now
// serves. Caller holds lifeMu.
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
		// Not enough live members to grant the winner a serving lease:
		// majorities count the CONFIGURED group, dead members included,
		// so promoting here would depose a primary that may merely be
		// slow and install one that can never serve. Refuse the election
		// and re-arm the fired detector — a live primary's next
		// heartbeat quiets the alarm, and a truly dead one leaves the
		// group fenced until Restart restores a quorum, which is exactly
		// what CP demands.
		cl.refuseElection(sh)
		return false
	}
	// Depose the old primary BEFORE choosing a winner. The old shipper
	// — possibly still half-alive on a machine that merely stalled or
	// sits behind a flapping link — could otherwise complete an
	// in-flight batch after the high waters are read: an op acked by
	// {old primary, one standby} in that window would be invisible to
	// the winner pick and destroyed when that standby re-bases onto a
	// lower-High successor. Once Depose returns the fence refuses every
	// later acknowledgement (StatusStale — clients re-locate at once
	// instead of waiting out overload backoffs), so the highest high
	// water read below bounds every acknowledged op.
	old.ship.Depose()
	// Quiet the group: the election IS the response to this silence, so
	// every detector stops (winners and peers get fresh ones below), and
	// the old primary, if Kill or Drain has not ended it already, ends
	// here, the way a crashed one does — deposed while alive (a stall, a
	// partition, a false alarm), its log beyond the winner's position is
	// a dead branch of history. From here on every member that is up is
	// a standby.
	cl.mu.Lock()
	for _, st := range sts {
		if st.det != nil {
			st.det.Stop()
			st.det = nil
		}
	}
	cl.mu.Unlock()
	cl.retire(old, crashed)
	// Newest by (term, seq): a standby left on an older term's base holds
	// a numerically larger sequence in a dead numbering and must not win.
	var win *replica
	var at repl.Pos
	for _, st := range sts {
		if p := st.recv.Pos(); win == nil || at.Less(p) {
			win, at = st, p
		}
	}
	var dests []cap.Port
	for _, st := range sts {
		if st != win {
			dests = append(dests, st.recv.Port())
		}
	}
	// The winner's receiver dies before its kernel serves: a stale
	// primary's ships must bounce off a dead port, not mutate a live
	// service.
	win.recv.Close()
	err := cl.attachShipper(win, dests, term)
	if err == nil {
		err = win.kern.Start()
	}
	if err != nil {
		stdlog.Printf("amoeba: %s election: installing successor: %v", sh.label, err)
		cl.retire(win, crashed) // neither standby nor primary now: a down slot Restart can rebuild
		return false
	}
	cl.mu.Lock()
	sh.primary, sh.term, win.recv = win, term, nil
	cl.mu.Unlock()
	cl.syncShardMachine(sh.put, sh.idx, win.machine)
	cl.reg.Counter("amoeba_failovers_total", obs.L("service", sh.label), failoversHelp).Inc()
	stdlog.Printf("amoeba: %s failover: machine %v promoted at (term %d, seq %d) to term %d",
		sh.label, win.machine, at.Term, at.Seq, term)
	cl.startDetectors(sh)
	if deposedAlive {
		// Nobody will Restart a machine nobody killed: its slot comes
		// back at once, through the same door Restart uses.
		if err := cl.rejoin(old, old.machine); err != nil {
			stdlog.Printf("amoeba: %s election: %v (machine %v waits for Restart)", sh.label, err, old.machine)
		}
	}
	return true
}

// Drain gracefully retires the durable primary hosted on machine m —
// the planned-maintenance counterpart of Kill. The transport stops
// admitting (new requests are refused with rpc.StatusOverload, which
// clients retry with backoff), every in-flight handler finishes,
// commits, ships to the standbys and REPLIES over a NIC that is still
// up; then the final checkpoint runs and the log closes. Only after
// the state is cold do the shipper and the NIC go away.
//
// On a replication group the drain is a zero-downtime handoff: the
// standbys hold every acknowledged operation (shipping is synchronous),
// so the election runs at once instead of waiting out a detector, and
// the drained machine rejoins as a fresh standby via Restart. Should
// the election be refused (no live quorum) the machine simply looks
// dead from here on, and the standbys' detectors retry once Restart has
// restored one. Unreplicated, the service stays down until Restart —
// which recovers from the drained WAL, whose final checkpoint makes
// that restart cheap.
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
	err := cl.retire(p, drained)
	if len(sh.slots) > 1 {
		cl.elect(sh)
	}
	return err
}

// Kill crashes the durable-service machine m: the NIC drops off the
// network mid-conversation and the server dies without flushing or
// checkpointing — only what its write-ahead log already committed
// survives. Supported for every machine of the durable services
// (directory and bank): primaries and group standbys alike. A dead
// primary's surviving standbys run the election, from their detectors;
// a dead standby is simply shipped around. Either waits for Restart.
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
	return cl.retire(r, crashed)
}

// Restart brings a killed or drained machine's service back on a FRESH
// machine, in the slot the old one occupied. An unreplicated shard
// recovers its state from the write-ahead log (same disk, same
// get-port, new machine ID): clients' cached locations go stale; their
// next transaction times out, invalidates the cache entry and
// re-broadcasts LOCATE — §2.2's discovery path for a moved server —
// which the new incarnation answers. A replication-group member rejoins
// as a fresh standby (see rejoin). A failed Restart leaves the slot
// down and may be retried.
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
		return cl.startShard(r.sh, r.disk)
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
	// The flag first: retiring the members below looks exactly like a
	// dead primary, and a detector that fires mid-teardown must not run
	// an election over closed resources — fires already in flight (queued
	// on lifeMu) see it and return. Taking lifeMu lets any election
	// already running finish on live resources. Then every slot of every
	// shard retires, in reverse boot order (the file server before its
	// block server) — as a crash: nobody will read these disks again.
	cl.closing.Store(true)
	cl.lifeMu.Lock()
	var firstErr error
	for i := len(node.Services) - 1; i >= 0; i-- {
		for _, sh := range cl.shards[node.Services[i].Label] {
			for _, r := range sh.slots {
				if r != nil {
					firstErr = cmp.Or(firstErr, cl.retire(r, crashed))
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
