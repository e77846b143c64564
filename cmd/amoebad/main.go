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
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"amoeba/internal/amnet"
	"amoeba/internal/cap"
	"amoeba/internal/crypto"
	"amoeba/internal/fbox"
	"amoeba/internal/node"
	"amoeba/internal/obs"
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
	statePath  = flag.String("state-path", "", "block server: checkpoint file, written at shutdown and restored at start (a file in any other format is refused); with -disk-path and -seed, previously issued block capabilities survive restarts")
	debugAddr  = flag.String("debug-addr", "", "HTTP debug listener serving /metrics, /debug/vars, /debug/requests and /debug/pprof (empty = off)")
)

func main() {
	flag.Parse()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	if err := run(os.Stdout, sig); err != nil {
		log.Fatalf("amoebad: %v", err)
	}
}

// run joins the cluster the flags describe, starts the requested
// services from the internal/node table — announcing each on out as
// "name<TAB>put-port" once it serves — and serves until stop delivers.
// Whatever it opened is closed on the way out, newest first, whether it
// ends by signal or by a service that would not start; a service leaves
// through a drain, refusing new requests with StatusOverload while what
// it admitted finishes.
func run(out io.Writer, stop <-chan os.Signal) error {
	reg, err := amnet.ParseRegistry(*registry)
	if err != nil {
		return err
	}
	scheme, err := cap.NewScheme(cap.SchemeID(*schemeFlag))
	if err != nil {
		return err
	}
	src := crypto.SystemSource()
	if *seed != 0 {
		src = crypto.NewSeededSource(*seed ^ uint64(*machine)<<32)
	}
	nic, err := amnet.NewTCPNet(amnet.MachineID(*machine), reg)
	if err != nil {
		return err
	}
	fb := fbox.New(nic, nil)
	defer fb.Close()
	log.Printf("machine %d listening on %s (scheme %v)", *machine, nic.Addr(), cap.SchemeID(*schemeFlag))

	env := &node.Env{Scheme: scheme, Source: src, Metrics: obs.NewRegistry(), Ring: obs.NewRing(1024)}
	registerTCPStats(env.Metrics, nic)
	var blockPort cap.Port
	for _, name := range strings.Split(*services, ",") {
		if name = strings.TrimSpace(name); name == "" {
			continue
		}
		row := node.Lookup(name)
		if row == nil {
			return fmt.Errorf("unknown service %q", name)
		}
		deps := node.Deps{Label: name, Blocks: blockPort}
		switch {
		case name == "block" && *diskPath != "":
			fd, err := vdisk.OpenFile(*diskPath, uint32(*diskBlocks), *blockSize)
			if err != nil {
				return err
			}
			defer fd.Close()
			deps.Store = fd
		case name == "block":
			if deps.Store, err = vdisk.New(uint32(*diskBlocks), *blockSize); err != nil {
				return err
			}
		case row.NeedsBlocks && blockPort == 0:
			return fmt.Errorf("%q needs a block server, and finds one only in its own daemon: list \"block\" before it in -services", name)
		}
		if name == "block" && *statePath != "" {
			if deps.State, err = os.ReadFile(*statePath); err == nil {
				log.Printf("block: restoring %d-byte checkpoint", len(deps.State))
			} else if !os.IsNotExist(err) {
				return err
			}
		}
		r, err := node.Open(env, row, fb, deps)
		if err != nil {
			return err
		}
		k := r.Kernel()
		node.Gauges(env.Metrics, name, false, func() *node.Replica { return r })
		if name == "block" {
			blockPort = k.PutPort()
			if *statePath != "" { // saved once the server below has retired
				defer func() {
					env, err := k.Envelope()
					if err == nil {
						err = os.WriteFile(*statePath, env, 0o600)
					}
					if err != nil {
						log.Printf("block: saving checkpoint: %v", err)
					}
				}()
			}
		}
		defer r.Retire(node.Drained)
		if err := r.Lead(nil, 0); err != nil {
			return fmt.Errorf("starting %s: %w", name, err)
		}
		fmt.Fprintf(out, "%s\t%s\n", name, k.PutPort())
	}

	if *debugAddr != "" {
		url, closeDebug, err := node.ListenDebug(*debugAddr, env.Metrics, env.Ring)
		if err != nil {
			return err
		}
		defer closeDebug()
		log.Printf("debug http on %s", url)
	}
	<-stop
	log.Print("shutting down")
	return nil
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
		{"amoeba_tcp_in_dropped_total", "frames, from a socket or looped back, dropped at a full F-box listener queue", func(s amnet.TCPStats) uint64 { return s.InDropped }},
	} {
		read := c.read
		metrics.CounterFunc(c.name, "", c.help, func() uint64 { return read(nic.Stats()) })
	}
}
