package main

import (
	"context"
	"errors"
	"io"
	"math/rand"
	"net"
	"sync/atomic"
	"time"

	"amoeba"
	"amoeba/internal/amnet"
	"amoeba/internal/cap"
	"amoeba/internal/crypto"
	"amoeba/internal/fbox"
	"amoeba/internal/locate"
	"amoeba/internal/obs"
	"amoeba/internal/rpc"
	"amoeba/internal/server/blocksvr"
	"amoeba/internal/server/dirsvr"
	"amoeba/internal/server/flatfs"
	"amoeba/internal/vdisk"
	"amoeba/internal/wal"
)

// The ladder measures the layers from outside. The same 64-byte echo
// is issued at successively higher public entry points — NIC, F-box,
// RPC — and the same directory Enter against successively more
// machinery — volatile, write-ahead logged, replicated, sharded. A
// rung's self time is its round trip minus the rung below, so the self
// times add up to the top rung. Everything runs on an otherwise idle
// process, one caller, before the traced window.
type ladder struct {
	vals  map[string]float64
	spans *spanBuf
	// thin divides every probe's sample count: 1 for a measurement, more
	// for a smoke run that only wants to see every rung climbed.
	thin int
	err  error // the first probe failure
	// closers release the rigs a probe group built, in reverse order.
	closers []func()
}

func newLadder(thin int) *ladder {
	return &ladder{vals: map[string]float64{}, spans: newSpanBuf(0, "ladder", nil), thin: thin}
}

func (l *ladder) deferClose(f func()) { l.closers = append(l.closers, f) }

func (l *ladder) closeAll() {
	for i := len(l.closers) - 1; i >= 0; i-- {
		l.closers[i]()
	}
	l.closers = nil
}

// probe times samples batches of batch calls to f and stores the
// median per-call time under metric, in units of perUnit nanoseconds.
// Each batch is one child span of the ladder span. Calls that take
// well under a microsecond are batched so the clock reads do not
// dominate them. The first probe to fail is remembered in l.err and
// every later one skipped, so a group of probes checks once, at its end.
func (l *ladder) probe(metric string, perUnit float64, samples, batch int, f func() error) {
	if l.err != nil {
		return
	}
	samples = max(samples/l.thin, 5)
	for i := 0; i < samples/10+1; i++ {
		for b := 0; b < batch; b++ {
			if l.err = failedOp("probe "+metric, f()); l.err != nil {
				return
			}
		}
	}
	name := len(l.spans.names)
	l.spans.names = append(l.spans.names, metric)
	took := make([]float64, samples)
	for i := range took {
		t0 := now()
		for b := 0; b < batch; b++ {
			if l.err = failedOp("probe "+metric, f()); l.err != nil {
				return
			}
		}
		t1 := now()
		l.spans.add(name, uint32(len(l.spans.spans)), t0, t1)
		took[i] = float64(t1-t0) / float64(batch)
	}
	l.vals[metric] = median(took) / perUnit
}

const (
	us = 1e3 // nanoseconds per microsecond
	ns = 1
	ms = 1e6
)

var payload64 = make([]byte, 64)

// run climbs every rung. live is the workload's TCP cluster, or nil.
func (l *ladder) run(seed uint64, live *tcpCluster) error {
	defer l.closeAll()
	for _, group := range []func(uint64, *tcpCluster) error{
		l.pureProbes, l.simnetRungs, l.tcpRungs, l.durableRungs, l.replicatedRungs, l.shardedRungs,
	} {
		err := group(seed, live)
		l.closeAll()
		if err = errors.Join(err, l.err); err != nil {
			return err
		}
	}
	v := l.vals
	v["amnet.tcp.rtt_ratio"] = v["amnet.tcp.rtt64_us"] / v["amnet.rawconn.rtt64_us"]
	v["fbox.self_us"] = v["fbox.echo_us"] - v["amnet.sim.rtt64_us"]
	v["rpc.self_us"] = v["rpc.echo_us"] - v["fbox.echo_us"]
	v["wal.self_us"] = v["dirsvr.enter_durable_us"] - v["dirsvr.enter_volatile_us"]
	v["repl.self_us"] = v["dirsvr.enter_replicated_us"] - v["dirsvr.enter_durable_us"]
	v["shard.self_us"] = v["dirsvr.enter_sharded_us"] - v["dirsvr.enter_replicated_us"]
	// A workload that issues Enter overrides this with its own spans.
	v["dirsvr.enter_us"] = v["dirsvr.enter_durable_us"]
	return nil
}

// pureProbes time the layers that need no network: the capability
// check-field arithmetic, the port one-way function, the log.
func (l *ladder) pureProbes(seed uint64, _ *tcpCluster) error {
	src := crypto.NewSeededSource(clusterSeed(seed))
	scheme, err := cap.NewScheme(cap.SchemeOneWay)
	if err != nil {
		return err
	}
	secret := scheme.PrepareSecret(crypto.Rand48(src))
	owner := scheme.Mint(cap.Port(0xABC), 1, secret)
	l.probe("cap.validate_ns", ns, 200, 1000, func() error {
		_, err := scheme.Validate(owner, secret)
		return err
	})
	var sink uint64
	l.probe("cap.mint_ns", ns, 200, 1000, func() error {
		sink += scheme.Mint(cap.Port(0xABC), 1, secret).Check
		return nil
	})
	n := amnet.NewSimNet(amnet.SimConfig{})
	l.deferClose(func() { n.Close() })
	nic, err := n.Attach()
	if err != nil {
		return err
	}
	fb := fbox.New(nic, nil)
	l.deferClose(func() { fb.Close() })
	port := cap.Port(0x7777)
	l.probe("fbox.f_ns", ns, 200, 1000, func() error {
		port = fb.F(port)
		return nil
	})
	if sink == 0 && port == 0 {
		return errors.New("one-way functions returned zero") // keeps sink and port live
	}

	disk, err := vdisk.New(8192, 1024)
	if err != nil {
		return err
	}
	syncs := &obs.Histogram{}
	log, err := wal.Open(disk, wal.Options{Metrics: &wal.Metrics{SyncLatency: syncs}})
	if err != nil {
		return err
	}
	l.deferClose(func() { log.Close() })
	if err := log.Recover(nil, nil); err != nil {
		return err
	}
	l.probe("wal.append_us", us, 2000, 1, func() error {
		t, err := log.Append(payload64)
		if errors.Is(err, wal.ErrFull) {
			if err = log.Checkpoint([]byte{1}); err == nil {
				t, err = log.Append(payload64)
			}
		}
		if err != nil {
			return err
		}
		return t.Wait()
	})
	// Overridden from the services' own histogram on workloads that log.
	l.vals["wal.sync_p50_us"] = float64(syncs.Quantile(0.5)) / us
	return nil
}

// echoServer serves rpc OpEcho on nic and returns a client on peer.
// Servers sharing a network must draw their ports from one src.
func (l *ladder) echoServer(src crypto.Source, nic, peer amnet.NIC) (*rpc.Client, cap.Port, error) {
	srvFB, cliFB := fbox.New(nic, nil), fbox.New(peer, nil)
	l.deferClose(func() { srvFB.Close(); cliFB.Close() })
	server := rpc.NewServer(srvFB, src)
	server.Handle(rpc.OpEcho, func(_ context.Context, _ rpc.Meta, req rpc.Request) rpc.Reply {
		return rpc.OkReply(req.Data)
	})
	if err := server.Start(); err != nil {
		return nil, 0, err
	}
	l.deferClose(func() { server.Close() })
	return rpc.NewClient(cliFB, locate.New(cliFB, locate.Config{}), rpc.ClientConfig{Source: src}), server.PutPort(), nil
}

func echoProbe(client *rpc.Client, port cap.Port) func() error {
	ctx := context.Background()
	return func() error {
		rep, err := client.Trans(ctx, port, rpc.Request{Op: rpc.OpEcho, Data: payload64})
		if err == nil && rep.Status != rpc.StatusOK {
			err = rep.Status.Err()
		}
		return err
	}
}

// pingPong echoes every frame arriving on nic until it is closed, and
// returns a probe that sends payload from peer and awaits the echo.
func pingPong(nic, peer amnet.NIC, payload []byte) func() error {
	go func() {
		for f := range nic.Recv() {
			_ = nic.Send(f.Src, f.Payload)
			f.Release()
		}
	}()
	return func() error {
		if err := peer.Send(nic.ID(), payload); err != nil {
			return err
		}
		f, ok := <-peer.Recv()
		if !ok {
			return amnet.ErrClosed
		}
		f.Release()
		return nil
	}
}

// simnetRungs: NIC, F-box and RPC echo, and a volatile directory
// server, each on its own pair of machines of one simulated network.
func (l *ladder) simnetRungs(seed uint64, _ *tcpCluster) error {
	n := amnet.NewSimNet(amnet.SimConfig{})
	l.deferClose(func() { n.Close() })
	var attachErr error
	attach := func() amnet.NIC {
		nic, err := n.Attach()
		if err != nil {
			attachErr = err
		}
		return nic
	}
	nics := []amnet.NIC{attach(), attach(), attach(), attach(), attach(), attach(), attach(), attach()}
	if attachErr != nil {
		return attachErr
	}
	l.probe("amnet.sim.rtt64_us", us, 2000, 1, pingPong(nics[0], nics[1], payload64))

	// F-box echo: PUT to the echoer's put-port carrying a secret reply
	// get-port; the echoer PUTs the payload back to its one-way image.
	fbA, fbB := fbox.New(nics[2], nil), fbox.New(nics[3], nil)
	l.deferClose(func() { fbA.Close(); fbB.Close() })
	const getA, getB = cap.Port(0xA11CE), cap.Port(0xB0B)
	lA, err := fbA.Get(getA, false)
	if err != nil {
		return err
	}
	lB, err := fbB.Get(getB, false)
	if err != nil {
		return err
	}
	go func() {
		for m := range lB.Recv() {
			_ = fbB.Put(m.From, fbox.Message{Dest: m.Reply, Payload: m.Payload})
			m.Release()
		}
	}()
	l.probe("fbox.echo_us", us, 2000, 1, func() error {
		if err := fbA.Put(fbB.Machine(), fbox.Message{Dest: lB.Port(), Reply: getA, Payload: payload64}); err != nil {
			return err
		}
		m, ok := <-lA.Recv()
		if !ok {
			return fbox.ErrClosed
		}
		m.Release()
		return nil
	})

	src := crypto.NewSeededSource(clusterSeed(seed))
	client, port, err := l.echoServer(src, nics[4], nics[5])
	if err != nil {
		return err
	}
	l.probe("rpc.echo_us", us, 2000, 1, echoProbe(client, port))

	scheme, err := cap.NewScheme(cap.SchemeOneWay)
	if err != nil {
		return err
	}
	dirFB, cliFB := fbox.New(nics[6], nil), fbox.New(nics[7], nil)
	l.deferClose(func() { dirFB.Close(); cliFB.Close() })
	server := dirsvr.New(dirFB, scheme, src)
	if err := server.Start(); err != nil {
		return err
	}
	l.deferClose(func() { server.Close() })
	dirs := dirsvr.NewClient(rpc.NewClient(cliFB, locate.New(cliFB, locate.Config{}), rpc.ClientConfig{Source: src}))
	return l.enterProbe("dirsvr.enter_volatile_us", dirs, server.PutPort())
}

// enterProbe times alternating Enter and Remove of one name in a fresh
// directory: the mutation round trip with the directory staying tiny.
func (l *ladder) enterProbe(metric string, dirs *dirsvr.Client, port cap.Port) error {
	ctx := context.Background()
	dir, err := dirs.CreateDir(ctx, port)
	if err != nil {
		return failedOp("probe "+metric, err)
	}
	flip := &toggler{dir: dir, name: "flip"}
	l.probe(metric, us, 2000, 1, func() error {
		_, err := flip.flip(ctx, dirs)
		return err
	})
	return nil
}

// tcpRungs: the TCP transport against a bare socket doing the same
// ping-pong in the same run, and RPC echo over TCP — against the live
// amoebad when the workload has one.
func (l *ladder) tcpRungs(seed uint64, live *tcpCluster) error {
	pair := func() (*amnet.TCPNet, *amnet.TCPNet, error) {
		a, err := amnet.NewTCPNet(1, map[amnet.MachineID]string{1: "127.0.0.1:0", 2: "127.0.0.1:0"})
		if err != nil {
			return nil, nil, err
		}
		l.deferClose(func() { a.Close() })
		b, err := amnet.NewTCPNet(2, map[amnet.MachineID]string{1: a.Addr(), 2: "127.0.0.1:0"})
		if err != nil {
			return nil, nil, err
		}
		l.deferClose(func() { b.Close() })
		a.SetPeer(2, b.Addr())
		return a, b, nil
	}
	a, b, err := pair()
	if err != nil {
		return err
	}
	l.probe("amnet.tcp.rtt64_us", us, 2000, 1, pingPong(a, b, payload64))
	l.probe("amnet.tcp.rtt16k_us", us, 1000, 1, pingPong(a, b, make([]byte, fileChunk)))

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	l.deferClose(func() { ln.Close() })
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		buf := make([]byte, len(payload64))
		for {
			if _, err := io.ReadFull(conn, buf); err != nil {
				return
			}
			if _, err := conn.Write(buf); err != nil {
				return
			}
		}
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return err
	}
	l.deferClose(func() { conn.Close() })
	back := make([]byte, len(payload64))
	l.probe("amnet.rawconn.rtt64_us", us, 2000, 1, func() error {
		if _, err := conn.Write(payload64); err != nil {
			return err
		}
		_, err := io.ReadFull(conn, back)
		return err
	})

	if live != nil {
		l.probe("rpc.tcp_echo_us", us, 2000, 1, echoProbe(live.client, live.ports["dir"]))
		return nil
	}
	c, d, err := pair()
	if err != nil {
		return err
	}
	client, port, err := l.echoServer(crypto.NewSeededSource(clusterSeed(seed)), c, d)
	if err != nil {
		return err
	}
	l.probe("rpc.tcp_echo_us", us, 2000, 1, echoProbe(client, port))
	return nil
}

// durableRungs: one unreplicated cluster — the write-ahead-logged
// Enter, LOCATE, an uncached depth-4 walk, and 16 KiB through the file
// and block servers (the live daemons' when the workload has them).
func (l *ladder) durableRungs(seed uint64, live *tcpCluster) error {
	ctx := context.Background()
	cl, err := amoeba.NewCluster(amoeba.ClusterConfig{Seed: clusterSeed(seed)})
	if err != nil {
		return err
	}
	l.deferClose(func() { cl.Close() })
	dirs := cl.Dirs()
	if err := l.enterProbe("dirsvr.enter_durable_us", dirs, cl.DirPort()); err != nil {
		return err
	}

	fb, _, err := cl.NewMachine()
	if err != nil {
		return err
	}
	cached := locate.New(fb, locate.Config{TTL: -1})
	l.probe("locate.hit_ns", ns, 200, 1000, func() error {
		_, err := cached.Lookup(ctx, cl.DirPort())
		return err
	})
	res := locate.New(fb, locate.Config{})
	l.probe("locate.broadcast_us", us, 1000, 1, func() error {
		res.Invalidate(cl.DirPort())
		_, err := res.Lookup(ctx, cl.DirPort())
		return err
	})

	rng := rand.New(rand.NewSource(int64(seed)))
	t, err := buildTree(ctx, dirs, cl.DirPort(), rng, []int{1, 1, 1, 1}, -1)
	if err != nil {
		return err
	}
	l.probe("dirsvr.walk4_us", us, 2000, 1, func() error { return t.lookup(ctx, dirs, 0) })

	files, blocks := cl.Files(), cl.Blocks()
	if live != nil {
		files = flatfs.NewClient(live.client, live.ports["file"])
		blocks = blocksvr.NewClient(live.client, live.ports["block"])
	}
	f := &fileState{pool: make([]byte, 4*fileChunk), buf: make([]byte, fileChunk)}
	rng.Read(f.pool)
	if f.file, err = files.Create(ctx); err != nil {
		return failedOp("probe file", err)
	}
	l.probe("flatfs.write16k_us", us, 500, 1, func() error { return f.writeSlot(ctx, files, rng) })
	l.probe("flatfs.read16k_us", us, 500, 1, func() error { return f.readSlot(ctx, files, rng.Intn(fileSlots)) })
	if err := files.Destroy(ctx, f.file); err != nil {
		return failedOp("probe file", err)
	}
	// 16 one-KiB blocks in one batch frame: what the file server sends
	// the block server for one 16 KiB write or read.
	blks, err := blocks.AllocBatch(ctx, fileChunk/1024)
	if err != nil {
		return failedOp("probe blocks", err)
	}
	data := make([][]byte, len(blks))
	for i := range data {
		data[i] = f.pool[i*1024 : (i+1)*1024]
	}
	l.probe("blocksvr.writebatch16_us", us, 500, 1, func() error { return blocks.WriteBatch(ctx, blks, data) })
	l.probe("blocksvr.readbatch16_us", us, 500, 1, func() error {
		_, err := blocks.ReadBatch(ctx, blks)
		return err
	})
	return failedOp("probe blocks", blocks.FreeBatch(ctx, blks))
}

// replicatedRungs: a 3-replica group — the replicated Enter, then one
// kill of the primary with a sender running, for the failover timings
// of workloads that do not kill anything themselves.
func (l *ladder) replicatedRungs(seed uint64, _ *tcpCluster) error {
	cl, err := amoeba.NewCluster(amoeba.ClusterConfig{Seed: clusterSeed(seed), Replicas: simReplicas})
	if err != nil {
		return err
	}
	l.deferClose(func() { cl.Close() })
	primary := cl.Machines().Dirs
	if err := l.enterProbe("dirsvr.enter_replicated_us", cl.Dirs(), cl.DirPort()); err != nil {
		return err
	}
	s, err := newSender(cl, seed, 0)
	if err != nil {
		return err
	}
	var (
		current atomic.Pointer[killed]
		stop    atomic.Bool
		done    = make(chan error, 1)
	)
	go func() {
		for !stop.Load() {
			ctx, cancel := context.WithTimeout(context.Background(), failoverDeadline)
			sent := now()
			_, err := s.step(ctx)
			cancel()
			if err != nil {
				done <- err
				return
			}
			if k := current.Load(); k != nil && sent >= k.at {
				k.firstAck.CompareAndSwap(0, now())
			}
			time.Sleep(time.Second / failoverRate)
		}
		done <- nil
	}()
	k, killErr := killRound(cl, &primary, &current)
	for killErr == nil && k.firstAck.Load() == 0 && len(done) == 0 {
		time.Sleep(time.Millisecond)
	}
	stop.Store(true)
	if err := <-done; err != nil {
		return failedOp("failover probe sender", err)
	}
	if killErr != nil {
		return killErr
	}
	l.vals["failover_gap_ms"] = k.gapMs()
	l.vals["repl.promote_ms"] = k.promoteMs()
	l.vals["locate.heal_ms"] = k.healMs()
	l.vals["repl.reintegrate_ms"] = float64(k.restart) / ms
	return nil
}

// shardedRungs: replicated and sharded, as sim_write and sim_walk run —
// the sharded Enter, a same-shard Transfer, and a depth-8 walk both
// ways: every step on the wire across shards, and entirely from the
// lookup lease cache.
func (l *ladder) shardedRungs(seed uint64, _ *tcpCluster) error {
	ctx := context.Background()
	cl, err := amoeba.NewCluster(amoeba.ClusterConfig{Seed: clusterSeed(seed), Replicas: simReplicas, Shards: simShards, LookupLease: time.Minute})
	if err != nil {
		return err
	}
	l.deferClose(func() { cl.Close() })
	dirs := cl.Dirs()
	if err := l.enterProbe("dirsvr.enter_sharded_us", dirs, cl.DirPort()); err != nil {
		return err
	}
	bank := cl.Bank()
	var pair []*account
	for byShard := map[int][]*account{}; pair == nil; {
		a, err := openAccount(ctx, bank)
		if err != nil {
			return err
		}
		sh := cl.ShardOf(bank.Port(), a.owner.Object)
		if byShard[sh] = append(byShard[sh], a); len(byShard[sh]) == 2 {
			pair = byShard[sh]
		}
	}
	l.probe("banksvr.transfer_us", us, 2000, 1, func() error {
		pair[0], pair[1] = pair[1], pair[0]
		return bank.Transfer(ctx, pair[0].owner, pair[1].deposit, "dollar", 1)
	})
	rng := rand.New(rand.NewSource(int64(seed)))
	t, err := buildTree(ctx, dirs, cl.DirPort(), rng, []int{1, 1, 1, 1, 1, 1, 1, 1}, -1)
	if err != nil {
		return err
	}
	uncached := dirsvr.NewClient(cl.RPC())
	l.probe("dirsvr.walk8_miss_us", us, 1000, 1, func() error { return t.lookup(ctx, uncached, 0) })
	l.probe("lease.walk8_hit_ns", ns, 200, 1000, func() error { return t.lookup(ctx, dirs, 0) })
	return nil
}

// A ladderTop is the sum of the ladder's self times under a workload's
// median operation, in microseconds: the rung that operation stands
// on. The share of the end-to-end p50 it does not explain is the
// ladder residual — contention between the two clients, the operation
// mix, and whatever the probes do not reach.
type ladderTop func(v map[string]float64) float64

func topTCP(v map[string]float64) float64 {
	return v["rpc.tcp_echo_us"] + v["rpc.server_handle_p50_us"]
}
func topSharded(v map[string]float64) float64    { return v["dirsvr.enter_sharded_us"] }
func topCachedWalk(v map[string]float64) float64 { return v["lease.walk8_hit_ns"] / us }
func topReplicated(v map[string]float64) float64 { return v["dirsvr.enter_replicated_us"] }
