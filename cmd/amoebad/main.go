// Command amoebad hosts Amoeba services on a real TCP cluster. Every
// daemon is one "machine": it joins the cluster described by the
// registry, starts the requested services, and prints their public
// put-ports. Clients (cmd/amoeba) locate services by broadcasting
// LOCATE to the cluster, exactly as on the simulated network.
//
// Example two-machine cluster on one host:
//
//	amoebad -machine 1 -registry '1=127.0.0.1:7001,2=127.0.0.1:7002' -services block,file,dir
//	amoebad -machine 2 -registry '1=127.0.0.1:7001,2=127.0.0.1:7002' -services bank,mem,mv
//
// With -seed the service get-ports are deterministic, so put-ports
// stay stable across restarts (a development convenience; production
// persists the secrets instead).
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"amoeba/internal/amnet"
	"amoeba/internal/cap"
	"amoeba/internal/crypto"
	"amoeba/internal/fbox"
	"amoeba/internal/locate"
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
)

var (
	machine    = flag.Uint("machine", 1, "this machine's ID in the registry")
	registry   = flag.String("registry", "1=127.0.0.1:7001", "cluster map: id=host:port,id=host:port,...")
	services   = flag.String("services", "mem,block,file,dir,mv,bank", "comma-separated services to run")
	schemeFlag = flag.Int("scheme", int(cap.SchemeOneWay), "rights-protection scheme 1..4 (§2.3 order)")
	seed       = flag.Uint64("seed", 0, "deterministic port/secret seed (0 = crypto/rand)")
	diskBlocks = flag.Uint("disk-blocks", 4096, "block server: number of blocks")
	blockSize  = flag.Int("block-size", 1024, "block server: block size in bytes")
	diskPath   = flag.String("disk-path", "", "block server: file-backed persistent disk (default in-memory)")
	statePath  = flag.String("state-path", "", "block server: capability-table snapshot file; with -disk-path and -seed, previously issued block capabilities survive restarts")
	debugAddr  = flag.String("debug-addr", "", "HTTP debug listener serving /metrics, /debug/vars, /debug/requests and /debug/pprof (empty = off)")
)

func main() {
	flag.Parse()
	reg, err := parseRegistry(*registry)
	if err != nil {
		log.Fatalf("amoebad: %v", err)
	}
	scheme, err := cap.NewScheme(cap.SchemeID(*schemeFlag))
	if err != nil {
		log.Fatalf("amoebad: %v", err)
	}
	var src crypto.Source
	if *seed != 0 {
		src = crypto.NewSeededSource(*seed ^ uint64(*machine)<<32)
	} else {
		src = crypto.SystemSource()
	}

	nic, err := amnet.NewTCPNet(amnet.MachineID(*machine), reg)
	if err != nil {
		log.Fatalf("amoebad: %v", err)
	}
	fb := fbox.New(nic, nil)
	defer fb.Close()
	log.Printf("machine %d listening on %s (scheme %v)", *machine, nic.Addr(), cap.SchemeID(*schemeFlag))

	metrics := obs.NewRegistry()
	ring := obs.NewRing(1024)
	registerTCPStats(metrics, nic)

	var closers []func() error
	startSvc := func(name string, put cap.Port, start func() error, close func() error) {
		if err := start(); err != nil {
			log.Fatalf("amoebad: starting %s: %v", name, err)
		}
		closers = append(closers, close)
		fmt.Printf("%s\t%s\n", name, put)
	}
	// observe wires a service's request metrics, access-log records and
	// queue gauges into this daemon's registry (call before startSvc —
	// the observer must be set before the server starts).
	observe := func(name string, k *svc.Kernel) {
		k.SetObserver(obs.NewServerStats(metrics, ring, name, rpc.StatusName))
		labels := obs.L("service", name)
		metrics.GaugeFunc("amoeba_queue_depth", labels, "requests queued for or occupying pool workers", func() float64 {
			return float64(k.Inflight())
		})
		metrics.GaugeFunc("amoeba_queue_wait_ewma_ns", labels, "smoothed recent queue wait, nanoseconds", func() float64 {
			return float64(k.QueueWaitEWMA())
		})
	}

	var blockPort cap.Port
	for _, svc := range strings.Split(*services, ",") {
		switch strings.TrimSpace(svc) {
		case "mem":
			s := memsvr.New(fb, scheme, src)
			observe("mem", s.Kernel)
			startSvc("mem", s.PutPort(), s.Start, s.Close)
		case "block":
			var disk vdisk.Store
			if *diskPath != "" {
				fd, err := vdisk.OpenFile(*diskPath, uint32(*diskBlocks), *blockSize)
				if err != nil {
					log.Fatalf("amoebad: %v", err)
				}
				defer fd.Close()
				disk = fd
			} else {
				md, err := vdisk.New(uint32(*diskBlocks), *blockSize)
				if err != nil {
					log.Fatalf("amoebad: %v", err)
				}
				disk = md
			}
			s, err := blocksvr.New(fb, scheme, src, disk)
			if err != nil {
				log.Fatalf("amoebad: %v", err)
			}
			if *statePath != "" {
				if snap, err := os.ReadFile(*statePath); err == nil {
					if err := s.RestoreState(snap); err != nil {
						log.Fatalf("amoebad: restoring block state: %v", err)
					}
					log.Printf("block: restored %d-byte state snapshot", len(snap))
				} else if !os.IsNotExist(err) {
					log.Fatalf("amoebad: reading %s: %v", *statePath, err)
				}
				closers = append(closers, func() error {
					return os.WriteFile(*statePath, s.SnapshotState(), 0o600)
				})
			}
			blockPort = s.PutPort()
			observe("block", s.Kernel)
			startSvc("block", s.PutPort(), s.Start, s.Close)
		case "file":
			// The file server needs a block server; find one via
			// LOCATE if this daemon does not run its own.
			client := rpc.NewClient(fb, locate.New(fb, locate.Config{}), rpc.ClientConfig{Source: src})
			port := blockPort
			if port == 0 {
				log.Printf("file: no local block server; relying on -block-port or cluster LOCATE")
				log.Fatalf("amoebad: 'file' requires 'block' in the same daemon (run them together or extend the registry)")
			}
			s, err := flatfs.New(context.Background(), fb, scheme, src, blocksvr.NewClient(client, port))
			if err != nil {
				log.Fatalf("amoebad: %v", err)
			}
			observe("file", s.Kernel)
			startSvc("file", s.PutPort(), s.Start, s.Close)
		case "dir":
			s := dirsvr.New(fb, scheme, src)
			observe("dir", s.Kernel)
			startSvc("dir", s.PutPort(), s.Start, s.Close)
		case "mv":
			s := mvfs.New(fb, scheme, src)
			observe("mv", s.Kernel)
			startSvc("mv", s.PutPort(), s.Start, s.Close)
		case "bank":
			s := banksvr.New(fb, scheme, src, banksvr.Config{
				MintingAllowed: true,
				Rates: map[[2]string]banksvr.Rate{
					{"dollar", "franc"}: {Num: 5, Den: 1},
					{"franc", "dollar"}: {Num: 1, Den: 5},
				},
			})
			observe("bank", s.Kernel)
			startSvc("bank", s.PutPort(), s.Start, s.Close)
		case "":
		default:
			log.Fatalf("amoebad: unknown service %q", svc)
		}
	}

	if *debugAddr != "" {
		ln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			log.Fatalf("amoebad: debug listener: %v", err)
		}
		srv := &http.Server{Handler: obs.Mux(metrics, ring, rpc.StatusName)}
		go srv.Serve(ln)
		closers = append(closers, srv.Close)
		log.Printf("debug http on http://%s", ln.Addr())
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	log.Print("shutting down")
	for i := len(closers) - 1; i >= 0; i-- {
		_ = closers[i]()
	}
}

// registerTCPStats exports the transport's counters. Frames per call
// is what to watch: it falls to 1 when the lanes and readers stop
// coalescing.
func registerTCPStats(metrics *obs.Registry, nic *amnet.TCPNet) {
	for _, c := range []struct {
		name, help string
		read       func(amnet.TCPStats) uint64
	}{
		{"amoeba_tcp_frames_out_total", "frames written to peers' sockets", func(s amnet.TCPStats) uint64 { return s.FramesOut }},
		{"amoeba_tcp_write_calls_total", "write and writev calls that carried them", func(s amnet.TCPStats) uint64 { return s.WriteCalls }},
		{"amoeba_tcp_frames_in_total", "frames read from peers' sockets, forgeries excluded", func(s amnet.TCPStats) uint64 { return s.FramesIn }},
		{"amoeba_tcp_read_calls_total", "read calls that returned them", func(s amnet.TCPStats) uint64 { return s.ReadCalls }},
		{"amoeba_tcp_lane_dropped_total", "outbound frames dropped at a full write lane", func(s amnet.TCPStats) uint64 { return s.LaneDropped }},
		{"amoeba_tcp_in_dropped_total", "frames, from a socket or looped back, dropped at a full receive queue", func(s amnet.TCPStats) uint64 { return s.InDropped }},
	} {
		read := c.read
		metrics.CounterFunc(c.name, "", c.help, func() uint64 { return read(nic.Stats()) })
	}
}

func parseRegistry(s string) (map[amnet.MachineID]string, error) {
	out := make(map[amnet.MachineID]string)
	for _, pair := range strings.Split(s, ",") {
		pair = strings.TrimSpace(pair)
		if pair == "" {
			continue
		}
		id, addr, ok := strings.Cut(pair, "=")
		if !ok {
			return nil, fmt.Errorf("bad registry entry %q (want id=host:port)", pair)
		}
		n, err := strconv.ParseUint(id, 10, 32)
		if err != nil {
			return nil, fmt.Errorf("bad machine id %q: %w", id, err)
		}
		out[amnet.MachineID(n)] = addr
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty registry")
	}
	return out, nil
}
