package node

import (
	"cmp"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"amoeba/internal/amnet"
	"amoeba/internal/cap"
	"amoeba/internal/fbox"
	"amoeba/internal/locate"
	"amoeba/internal/obs"
	"amoeba/internal/repl"
	"amoeba/internal/rpc"
	"amoeba/internal/server/blocksvr"
	"amoeba/internal/svc"
	"amoeba/internal/vdisk"
	"amoeba/internal/wal"
)

// Replica is one machine's incarnation of one service: its F-box, WAL
// disk and the fault injector around it, kernel, and — in a group — its
// receiver and failure detector (a standby, whose kernel the receiver
// feeds un-started) or its shipper (the primary). The host serializes
// the verbs; Ship and the gauges may be read at any time.
type Replica struct {
	env     *Env
	fb      *fbox.FBox
	wal     vdisk.Store
	faults  *vdisk.FaultStore
	kern    *svc.Kernel
	group   int
	ownFB   bool
	serving bool
	retired atomic.Bool

	recv *repl.Receiver // standby only; nil once leading
	det  *repl.Detector // standby only, while armed
	ship atomic.Pointer[repl.Shipper]
}

// Open builds an un-started incarnation of row on fb. A Durable row
// given a WAL disk writes ahead to it, through a fault injector, and
// recovers what an earlier incarnation committed there. A failed Open
// has undone everything it built.
func Open(env *Env, row *Service, fb *fbox.FBox, d Deps) (*Replica, error) {
	r := &Replica{env: env, fb: fb, wal: d.WAL, group: d.Group, ownFB: d.OwnFB}
	if row.NeedsBlocks {
		c := rpc.NewClient(fb, locate.New(fb, locate.Config{}), rpc.ClientConfig{Source: env.Source, Sealer: d.Sealer})
		d.blocks = blocksvr.NewClient(c, d.Blocks)
	}
	var err error
	if row.Durable && d.WAL != nil {
		r.faults = vdisk.NewFaultStore(d.WAL, env.Seed^uint64(fb.Machine())*0x9E3779B97F4A7C15, fb.Clock())
		d.log, err = wal.Open(r.faults, wal.Options{Metrics: &wal.Metrics{
			SyncLatency:  env.Metrics.Histogram("amoeba_wal_sync_ns", obs.L("service", d.Label), "write-ahead log group-commit latency (arena write + sync), nanoseconds"),
			BatchRecords: env.Metrics.Histogram("amoeba_wal_batch_records", obs.L("service", d.Label), "records per write-ahead log group commit"),
		}})
		if err == nil && d.OnWedge != nil {
			d.log.OnWedge(d.OnWedge)
		}
	}
	if err == nil {
		r.kern, err = row.open(env, fb, d)
	}
	if err != nil {
		if r.kern == nil && d.log != nil {
			d.log.Close() // the kernel never took ownership
		}
		r.Retire(Crashed)
		return nil, fmt.Errorf("opening %s: %w", row.Name, err)
	}
	r.kern.SetObserver(obs.NewServerStats(env.Metrics, env.Ring, d.Label, rpc.StatusName))
	if d.Sealer != nil {
		r.kern.SetSealer(d.Sealer)
	}
	return r, nil
}

// Follow makes the replica a standby: a started receiver feeds its
// un-started kernel.
func (r *Replica) Follow() error {
	r.recv = repl.NewReceiver(r.fb, r.env.Source, r.kern)
	return r.recv.Start()
}

// Lead makes the replica serve. A standby's receiver closes first: a
// stale primary's ships must bounce off a dead port. At term ≥ 1 it
// becomes the primary of a group of Deps.Group: the shipper to dests,
// its serving lease installed as replica fence and admission gate
// BEFORE the kernel starts, so there is no unfenced window. A kernel
// already serving (a group's first primary served alone while its
// standbys were built) keeps serving; term 0 only starts the kernel.
func (r *Replica) Lead(dests []*Replica, term uint64) error {
	if r.recv != nil {
		r.recv.Close()
		r.recv = nil
	}
	if term > 0 {
		ports := make([]cap.Port, len(dests))
		for i, st := range dests {
			ports[i] = st.recv.Port()
		}
		// A small attempt budget: a dead standby is declared lost (and
		// shipped around) well before the client-visible RPC deadline.
		lt := r.env.leaseTerm()
		ship, err := repl.AttachGroup(r.kern, r.ShipClient(), ports, repl.Options{
			Timeout: lt, Attempts: 4, Backoff: 2 * time.Millisecond, Reprobe: lt,
			LeaseTerm: lt, GroupSize: r.group, Term: term,
		})
		if err != nil {
			return fmt.Errorf("attaching group: %w", err)
		}
		r.ship.Store(ship)
		r.kern.SetReplicaFence(ship.Fence)
		r.kern.SetAdmitGate(ship.Fence)
	}
	if !r.serving {
		if err := r.kern.Start(); err != nil {
			return err
		}
		r.serving = true
	}
	return nil
}

// Exit is how a replica leaves service: the one argument of Retire.
type Exit int

const (
	// Crashed: the NIC goes FIRST (when owned), so no handler can skip
	// a stopped ship and still acknowledge its client; then the shipper
	// (aborting in-flight ships unwedges handlers waiting on acks) and
	// the kernel, without a checkpoint: only what its log committed
	// survives.
	Crashed Exit = iota
	// Drained: the kernel first, while NIC and shipper still carry its
	// work: new requests are refused with rpc.StatusOverload, in-flight
	// ones end acknowledged on every disk, the final checkpoint runs.
	Drained
)

// Retire ends everything Open, Follow and Lead made: the detector (a
// standby must not answer its own death by electing anyone), then the
// NIC, receiver, shipper and kernel in the order how names. The fault
// injector dies with it. Idempotent.
func (r *Replica) Retire(how Exit) error {
	r.retired.Store(true)
	r.Disarm()
	var err error
	switch {
	case how == Drained && r.kern != nil:
		err = r.kern.Drain()
	case r.ownFB:
		err = r.fb.Close()
	}
	if r.recv != nil {
		err = cmp.Or(err, r.recv.Close())
	}
	if ship := r.Ship(); ship != nil {
		ship.Stop()
	}
	if r.kern != nil {
		err = cmp.Or(err, r.kern.Crash()) // no-op once drained
	}
	if r.ownFB {
		err = cmp.Or(err, r.fb.Close())
	}
	return err
}

// Arm starts this standby's failure detector unless one is armed: fire
// runs once, on the detector's goroutine, after 1.5 lease terms of
// primary silence — the old primary's lease (1.0 terms, its own clock)
// lapses first even with the clocks half a term apart.
func (r *Replica) Arm(fire func()) {
	if r.det == nil && r.recv != nil {
		r.det = repl.NewDetector(r.recv, r.env.gap(), fire)
		r.det.Start()
	}
}

// Disarm stops the failure detector, if one is armed.
func (r *Replica) Disarm() {
	if r.det != nil {
		r.det.Stop()
		r.det = nil
	}
}

// Fired reports whether the armed detector has fired.
func (r *Replica) Fired() bool { return r.det != nil && r.det.Fired() }

// The five methods below are how an election reaches another machine's
// replica; each becomes a message once elections leave shared memory.

// Hears reports whether this standby heard its primary within half a
// detector gap, on its own clock.
func (r *Replica) Hears() bool { return r.recv.Silence() < r.env.gap()/2 }

// Pos is this standby's durable position, what an election picks by.
func (r *Replica) Pos() repl.Pos { return r.recv.Pos() }

// Depose fences this primary for good (repl.Shipper.Depose): an
// election calls it before it reads any standby's Pos.
func (r *Replica) Depose() {
	if ship := r.Ship(); ship != nil {
		ship.Depose()
	}
}

// AddPeer joins standby st to this primary's stream through a base
// snapshot taken in a quiesced window, so the stream has no gap.
func (r *Replica) AddPeer(st *Replica) error {
	ship := r.Ship()
	if ship == nil {
		return errors.New("not a group primary")
	}
	return ship.AddPeer(st.recv.Port())
}

// DropPeer takes standby st off this primary's stream, if it is on it.
func (r *Replica) DropPeer(st *Replica) {
	if ship := r.Ship(); ship != nil && st.recv != nil {
		ship.DropPeer(st.recv.Port())
	}
}

// Machine is the machine the replica runs on.
func (r *Replica) Machine() amnet.MachineID { return r.fb.Machine() }

// FBox is the replica's F-box.
func (r *Replica) FBox() *fbox.FBox { return r.fb }

// Kernel is the replica's service kernel.
func (r *Replica) Kernel() *svc.Kernel { return r.kern }

// WAL is the log disk (nil when volatile); it outlives the replica.
func (r *Replica) WAL() vdisk.Store { return r.wal }

// Faults is the fault injector around the WAL disk (nil when volatile).
func (r *Replica) Faults() *vdisk.FaultStore { return r.faults }

// Ship is a group primary's shipper (stopped once retired), else nil.
func (r *Replica) Ship() *repl.Shipper { return r.ship.Load() }

// ShipClient is a replication channel's RPC client on this machine. It
// skips the key-matrix sealer (the stream carries WAL records, never
// capability fields) and, with TTL -1, route reconfirmation (the
// receiver never moves; a delivery failure still evicts the route).
func (r *Replica) ShipClient() *rpc.Client {
	return rpc.NewClient(r.fb, locate.New(r.fb, locate.Config{TTL: -1}), rpc.ClientConfig{Source: r.env.Source})
}

func (env *Env) leaseTerm() time.Duration {
	if env.LeaseTerm <= 0 {
		return repl.DefaultLeaseTerm
	}
	return env.LeaseTerm
}

// gap is how long a standby tolerates primary silence before electing.
func (env *Env) gap() time.Duration { return env.leaseTerm() + env.leaseTerm()/2 }
