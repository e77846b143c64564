// Package node is the one place a machine's services are constructed:
// a table with a row per §3 service, the per-kernel wiring every host
// repeats (request metrics, sealer, scrape-time gauges) and
// the debug listener. Cluster boots its machines from it on the
// simulated network; cmd/amoebad boots one on TCP.
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
}

// Deps is what ONE incarnation of one service is built over. Each row
// reads the fields it needs and ignores the rest.
type Deps struct {
	// Log makes a Durable service write ahead to it and recover from it;
	// nil means volatile. Open takes ownership: the kernel closes it, and
	// a failed Open has closed it already.
	Log *wal.Log
	// Port pins a Durable service's get-port, so a later incarnation
	// reappears at the same put-port; 0 draws a fresh one.
	Port   cap.Port
	Sealer rpc.CapSealer // key-matrix guard for this machine; nil = unsealed
	// Store is the block service's disk; State, when set, a capability-
	// table snapshot (Kernel.Table().Snapshot()) restored over it.
	Store vdisk.Store
	State []byte
	// Blocks is the file service's block server (NeedsBlocks).
	Blocks *blocksvr.Client
}

// Service is one row of the table.
type Service struct {
	Name        string // as amoebad's -services and stdout spell it
	Label       string // Cluster's metrics label
	Durable     bool   // honours Deps.Log and Deps.Port
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
		if err == nil && d.State != nil {
			err = s.RestoreState(d.State)
		}
		if err != nil {
			return nil, err
		}
		return s.Kernel, nil
	}},
	{Name: "file", Label: "files", NeedsBlocks: true, open: func(env *Env, fb *fbox.FBox, d Deps) (*svc.Kernel, error) {
		s, err := flatfs.New(context.Background(), fb, env.Scheme, env.Source, d.Blocks)
		if err != nil {
			return nil, err
		}
		return s.Kernel, nil
	}},
	{Name: "mv", Label: "versions", open: func(env *Env, fb *fbox.FBox, _ Deps) (*svc.Kernel, error) {
		return mvfs.New(fb, env.Scheme, env.Source).Kernel, nil
	}},
	{Name: "dir", Label: "directory", Durable: true, open: func(env *Env, fb *fbox.FBox, d Deps) (*svc.Kernel, error) {
		s, err := dirsvr.NewDurable(fb, env.Scheme, env.Source, d.Log, d.Port)
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
		s, err := banksvr.NewDurable(fb, env.Scheme, env.Source, cfg, d.Log, d.Port)
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

// Open builds an un-started incarnation of s on fb, reporting its
// requests under label. The caller starts the kernel and, later, closes
// or crashes it.
func (s *Service) Open(env *Env, fb *fbox.FBox, label string, d Deps) (*svc.Kernel, error) {
	k, err := s.open(env, fb, d)
	if err != nil {
		if d.Log != nil {
			d.Log.Close() // the kernel never took ownership
		}
		return nil, fmt.Errorf("opening %s: %w", s.Name, err)
	}
	k.SetObserver(obs.NewServerStats(env.Metrics, env.Ring, label, rpc.StatusName))
	if d.Sealer != nil {
		k.SetSealer(d.Sealer)
	}
	return k, nil
}

// Gauges registers the scrape-time series of the service reporting
// under label: queue depth and queue wait, and write-ahead log
// occupancy when it runs durable. kernel returns whichever kernel
// serves it now, nil while none does (the gauges then read 0); it runs
// only when someone exports the registry, so it may take locks.
func Gauges(reg *obs.Registry, label string, durable bool, kernel func() *svc.Kernel) {
	gauge := func(name, help string, read func(*svc.Kernel) float64) {
		reg.GaugeFunc(name, obs.L("service", label), help, func() float64 {
			if k := kernel(); k != nil {
				return read(k)
			}
			return 0
		})
	}
	gauge("amoeba_queue_depth", "requests queued for or occupying pool workers",
		func(k *svc.Kernel) float64 { return float64(k.Inflight()) })
	gauge("amoeba_queue_wait_ewma_ns", "smoothed recent queue wait, nanoseconds",
		func(k *svc.Kernel) float64 { return float64(k.QueueWaitEWMA()) })
	if !durable {
		return
	}
	gauge("amoeba_wal_used_bytes", "live write-ahead log bytes (head - start)",
		func(k *svc.Kernel) float64 { return float64(k.LogStats().Used) })
	gauge("amoeba_wal_capacity_bytes", "write-ahead log arena bytes usable before ErrFull",
		func(k *svc.Kernel) float64 { return float64(k.LogStats().Capacity) })
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
