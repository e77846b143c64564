// Package node is the one place a machine's incarnation of a service is
// put together and taken apart: a table with a row per §3 service, and
// Replica, one machine's incarnation of one row. Open builds a Replica;
// Follow, Lead and Retire change its role and touch only its own state.
// What the election (still Cluster's, in shared memory) reads or calls
// on another machine is five named methods: Pos, Hears, Depose, AddPeer,
// DropPeer. Cluster boots its machines from here on the simulated
// network; cmd/amoebad boots one on TCP.
package node

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"time"

	"amoeba/internal/cap"
	"amoeba/internal/crypto"
	"amoeba/internal/fbox"
	"amoeba/internal/obs"
	"amoeba/internal/repl"
	"amoeba/internal/rpc"
	"amoeba/internal/server/banksvr"
	"amoeba/internal/server/blocksvr"
	"amoeba/internal/server/dirsvr"
	"amoeba/internal/server/flatfs"
	"amoeba/internal/server/memsvr"
	"amoeba/internal/server/mvfs"
	"amoeba/internal/svc"
	"amoeba/internal/vdisk"
	"amoeba/internal/wal"
)

// Env is what every service a host boots shares.
type Env struct {
	Scheme      cap.Scheme
	Source      crypto.Source
	Metrics     *obs.Registry
	Ring        *obs.Ring
	Bank        *banksvr.Config // bank policy; nil = minting allowed, 5 francs to the dollar
	LookupLease time.Duration   // directory lookup lease; 0 = none granted
	LeaseTerm   time.Duration   // a group primary's serving lease; 0 = repl.DefaultLeaseTerm
	Seed        uint64          // seeds each WAL disk's fault injector, with the machine ID
}

// Deps is what ONE incarnation of one service is built over. Each row
// reads the fields it needs and ignores the rest.
type Deps struct {
	Label string // the metrics label its requests and log report under
	// WAL is a Durable row's log disk, written ahead to and recovered
	// from; nil means volatile. OnWedge runs (on its own goroutine) if
	// the log wedges after an I/O failure.
	WAL     vdisk.Store
	OnWedge func(cause error)
	// Port pins a Durable service's get-port, so a later incarnation
	// reappears at the same put-port; 0 draws a fresh one.
	Port   cap.Port
	Sealer rpc.CapSealer // key-matrix guard for this machine; nil = unsealed
	// Store is the block service's disk. State, when set, is a
	// checkpoint envelope (svc.Kernel.Envelope) an earlier incarnation
	// wrote, restored into any row's kernel before it starts.
	Store  vdisk.Store
	State  []byte
	Blocks cap.Port // a NeedsBlocks row's block server put-port
	Group  int      // replication group size, dead members included
	// OwnFB says the machine dies with the replica: Retire closes the
	// F-box. A host whose machine outlives each service leaves it false.
	OwnFB bool

	log    *wal.Log         // what Open builds over WAL …
	blocks *blocksvr.Client // … and over Blocks
}

// Service is one row of the table.
type Service struct {
	Name        string // as amoebad's -services and stdout spell it
	Label       string // Cluster's metrics label
	Durable     bool   // honours Deps.WAL and Deps.Port
	NeedsBlocks bool   // needs Deps.Blocks
	open        func(env *Env, fb *fbox.FBox, d Deps) (*svc.Kernel, error)
}

// Services is the table, in Cluster's boot order (blocks before the
// file service that is its client).
var Services = []*Service{
	{Name: "mem", Label: "memory", open: func(env *Env, fb *fbox.FBox, _ Deps) (*svc.Kernel, error) {
		return memsvr.New(fb, env.Scheme, env.Source).Kernel, nil
	}},
	{Name: "block", Label: "blocks", open: func(env *Env, fb *fbox.FBox, d Deps) (*svc.Kernel, error) {
		s, err := blocksvr.New(fb, env.Scheme, env.Source, d.Store)
		if err != nil {
			return nil, err
		}
		return s.Kernel, nil
	}},
	{Name: "file", Label: "files", NeedsBlocks: true, open: func(env *Env, fb *fbox.FBox, d Deps) (*svc.Kernel, error) {
		s, err := flatfs.New(context.Background(), fb, env.Scheme, env.Source, d.blocks)
		if err != nil {
			return nil, err
		}
		return s.Kernel, nil
	}},
	{Name: "mv", Label: "versions", open: func(env *Env, fb *fbox.FBox, _ Deps) (*svc.Kernel, error) {
		return mvfs.New(fb, env.Scheme, env.Source).Kernel, nil
	}},
	{Name: "dir", Label: "directory", Durable: true, open: func(env *Env, fb *fbox.FBox, d Deps) (*svc.Kernel, error) {
		s, err := dirsvr.NewDurable(fb, env.Scheme, env.Source, d.log, d.Port)
		if err != nil {
			return nil, err
		}
		s.SetLookupLease(env.LookupLease)
		return s.Kernel, nil
	}},
	{Name: "bank", Label: "bank", Durable: true, open: func(env *Env, fb *fbox.FBox, d Deps) (*svc.Kernel, error) {
		cfg := banksvr.Config{
			MintingAllowed: true,
			Rates: map[[2]string]banksvr.Rate{
				{"dollar", "franc"}: {Num: 5, Den: 1},
				{"franc", "dollar"}: {Num: 1, Den: 5},
			},
		}
		if env.Bank != nil {
			cfg = *env.Bank
		}
		s, err := banksvr.NewDurable(fb, env.Scheme, env.Source, cfg, d.log, d.Port)
		if err != nil {
			return nil, err
		}
		return s.Kernel, nil
	}},
}

// Lookup returns the row amoebad's -services calls name, or nil.
func Lookup(name string) *Service {
	for _, s := range Services {
		if s.Name == name {
			return s
		}
	}
	return nil
}

// Gauges registers the scrape-time series of the service reporting
// under label: queue depth and queue wait, and, when it runs durable,
// write-ahead log occupancy and the replication series (0 while
// unreplicated). serving returns the replica serving it now; a retired
// one reads 0 but for its stopped shipper's series. It runs only when
// someone exports the registry, so it may take locks.
func Gauges(reg *obs.Registry, label string, durable bool, serving func() *Replica) {
	gauge := func(name, help string, read func(*Replica) float64) {
		reg.GaugeFunc(name, obs.L("service", label), help, func() float64 { return read(serving()) })
	}
	kernel := func(name, help string, read func(*svc.Kernel) float64) {
		gauge(name, help, func(r *Replica) float64 {
			if r.retired.Load() {
				return 0
			}
			return read(r.kern)
		})
	}
	ship := func(name, help string, read func(*repl.Shipper) float64) {
		gauge(name, help, func(r *Replica) float64 {
			if s := r.Ship(); s != nil {
				return read(s)
			}
			return 0
		})
	}
	flag := func(b bool) float64 {
		if b {
			return 1
		}
		return 0
	}
	kernel("amoeba_queue_depth", "requests queued for or occupying pool workers",
		func(k *svc.Kernel) float64 { return float64(k.Inflight()) })
	kernel("amoeba_queue_wait_ewma_ns", "smoothed recent queue wait, nanoseconds",
		func(k *svc.Kernel) float64 { return float64(k.QueueWaitEWMA()) })
	if !durable {
		return
	}
	kernel("amoeba_wal_used_bytes", "live write-ahead log bytes (head - start)",
		func(k *svc.Kernel) float64 { return float64(k.LogStats().Used) })
	kernel("amoeba_wal_capacity_bytes", "write-ahead log arena bytes usable before ErrFull",
		func(k *svc.Kernel) float64 { return float64(k.LogStats().Capacity) })
	ship("amoeba_ship_lag_records", "records committed locally but not yet acknowledged by the slowest live standby",
		func(s *repl.Shipper) float64 { return float64(s.Lag()) })
	ship("amoeba_ship_lost", "1 when every standby's replication stream is currently written off",
		func(s *repl.Shipper) float64 { return flag(s.Lost()) })
	ship("amoeba_lease_valid", "1 while the primary's serving lease holds a majority of fresh grants",
		func(s *repl.Shipper) float64 { return flag(s.LeaseValid()) })
	ship("amoeba_repl_term", "current replication epoch (0 = unreplicated)",
		func(s *repl.Shipper) float64 { return float64(s.Term()) })
}

// ListenDebug serves /metrics (Prometheus text), /debug/vars,
// /debug/requests (the access-log ring) and /debug/pprof on addr. It
// returns the listener's base URL and what shuts it down.
func ListenDebug(addr string, reg *obs.Registry, ring *obs.Ring) (url string, close func() error, err error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, fmt.Errorf("debug listener: %w", err)
	}
	srv := &http.Server{Handler: obs.Mux(reg, ring, rpc.StatusName)}
	go srv.Serve(ln) // returns when close runs
	return "http://" + ln.Addr().String(), srv.Close, nil
}
