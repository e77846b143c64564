// Package svc is the service kernel: the scaffolding every Amoeba
// service otherwise duplicates — an rpc.Server, a cap.Table wired to
// the standard capability-maintenance opcodes, and the start/close
// lifecycle — plus, optionally, write-ahead durability.
//
// A service embeds *Kernel and inherits Start, Close, PutPort, Table,
// SetSealer and SetMaxInflight; it registers its operation handlers
// with Handle and keeps only its own object state.
//
// Durability: a kernel built with Config.Log writes redo records ahead
// of replies. A handler stages its record with Append while it holds
// the object lock that ordered the mutation (stage order is commit
// order), releases the lock, and calls Ticket.Wait before replying —
// group commit batches the concurrent waits into one disk sync. On a
// restart, Recover restores the newest checkpoint and re-applies the
// records after it, so every capability a client ever received still
// names live state: the paper's LOCATE re-broadcast (§2.2) finds the
// re-incarnated server, and this package is why the reincarnation
// remembers.
package svc

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"amoeba/internal/cap"
	"amoeba/internal/crypto"
	"amoeba/internal/fbox"
	"amoeba/internal/obs"
	"amoeba/internal/rpc"
	"amoeba/internal/shard"
	"amoeba/internal/wal"
)

// RecKernel tags the kernel's own log records (currently: revocation
// re-keys). Service-defined record tags must stay below RecMigIn.
const RecKernel = 0xFF

// RecMigOut is the kernel record sealing a migrate-out: obj (4 bytes)
// left this shard. Staged only after the destination holds the object
// durably, so a crash between extract and commit replays the object
// HERE (and the destination's dark copy never serves — the shard map
// was not yet bumped).
const RecMigOut = 0xFE

// RecMigIn is the kernel record sealing a migrate-in: obj (4 bytes) ∥
// secret (8 bytes) ∥ service state. The same secret re-installs, so
// every capability clients hold for the object stays valid across the
// move.
const RecMigIn = 0xFD

// Config tunes a kernel. The zero value is a volatile service with a
// fresh random get-port.
type Config struct {
	// Source supplies port and secret randomness (nil: crypto/rand).
	Source crypto.Source
	// Port pins the secret get-port G. A durable service persists G
	// and passes it on restart so it reappears at the same put-port
	// P = F(G) — the address every outstanding capability names.
	Port cap.Port
	// MaxInflight bounds the worker pool (0 = rpc default).
	MaxInflight int
	// Log makes the service durable. The kernel takes ownership: Close
	// checkpoints into it and closes it. Size the log for the service:
	// a checkpoint must fit one record (wal.Options.MaxRecord, by
	// default a quarter of the arena), so the arena needs to hold a
	// full state snapshot with room to spare — a service that outgrows
	// it sees ErrFull on appends until state shrinks.
	Log *wal.Log
	// Snapshot serializes the service's object state for a checkpoint.
	// It is called quiesced (no handler in flight). Required with Log.
	Snapshot func() []byte
	// Restore replaces the service's object state from a Snapshot
	// payload; it must reset, not merge (recovery may restore a newer
	// checkpoint over an older replay). Required with Log.
	Restore func(snap []byte) error
	// ExtractObject serializes ONE object's service state and removes
	// it, both under the object's own lock (one consistent cut — no
	// whole-server quiesce). The migration source path. Optional:
	// services without it cannot migrate objects out.
	ExtractObject func(obj uint32) ([]byte, error)
	// InstallObject installs one object's state from an ExtractObject
	// payload — the migration destination path and the RecMigIn replay
	// path. Install is trusted: an existing object is overwritten.
	InstallObject func(obj uint32, state []byte) error
	// RemoveObject drops one object's state without serializing it —
	// the RecMigOut replay path. Must tolerate an absent object.
	RemoveObject func(obj uint32)
}

// Kernel bundles one service's transport, object table and (optional)
// write-ahead log.
type Kernel struct {
	srv     *rpc.Server
	table   *cap.Table
	log     *wal.Log
	snap    func() []byte
	restore func(snap []byte) error
	extract func(obj uint32) ([]byte, error)
	install func(obj uint32, state []byte) error
	remove  func(obj uint32)

	revMu sync.Mutex // orders revoke records with their table re-key

	// view, when set, is this kernel's shard of its port's object
	// space: dispatch answers StatusWrongShard for objects other
	// shards own. Installed by the cluster after construction, so it
	// is read through an atomic.
	view atomic.Pointer[shard.View]
	// gate, when set, names the ONE object currently mid-migration:
	// dispatch of that object parks until the move settles (a few ms);
	// every other object passes with a single atomic load.
	gate atomic.Pointer[migGate]
	// migMu holds checkpoints off while an extracted object is in
	// flight: a checkpoint cut between extract and commit would omit
	// the object from the snapshot while the log still lacks its
	// migrate-out record — a crash then loses it.
	migMu sync.Mutex

	// fence, when set, is consulted after every handler's durability
	// barrier and before its reply leaves: a non-nil error withholds
	// the acknowledgement. The replication lease installs itself here —
	// a primary whose lease has lapsed may have executed the mutation,
	// but it must not promise the client the mutation is decided, since
	// a majority of the group may already be electing a successor.
	fence atomic.Value // of func() error

	mu        sync.Mutex
	recovered bool
	closed    bool
	stopCk    chan struct{}
	ckDone    chan struct{}
}

// New builds a volatile kernel — the common scaffolding call.
func New(fb *fbox.FBox, scheme cap.Scheme, src crypto.Source) *Kernel {
	return NewWithConfig(fb, scheme, Config{Source: src})
}

// NewWithConfig builds a kernel with explicit tuning. A durable
// service must call Recover before Start.
func NewWithConfig(fb *fbox.FBox, scheme cap.Scheme, cfg Config) *Kernel {
	k := &Kernel{
		log:     cfg.Log,
		snap:    cfg.Snapshot,
		restore: cfg.Restore,
		extract: cfg.ExtractObject,
		install: cfg.InstallObject,
		remove:  cfg.RemoveObject,
	}
	k.srv = rpc.NewServerWithConfig(fb, rpc.ServerConfig{
		Source:      cfg.Source,
		Port:        cfg.Port,
		MaxInflight: cfg.MaxInflight,
	})
	k.table = cap.NewTable(scheme, k.srv.PutPort(), cfg.Source)
	k.serveTable()
	return k
}

// observed guards a handler's reply with the log's durability barrier:
// whatever state the handler observed is on stable storage — and, when
// replicated, on the standby — before the reply leaves. Mutating
// handlers already wait on their own ticket, so for them the barrier
// is a cheap re-check; the handlers it exists for are the OBSERVING
// replies — reads, duplicate-suppression errors ("entry exists"),
// absences — which would otherwise acknowledge state whose record is
// still in flight. Without the fence, a client can hold a reply that a
// crash-plus-failover contradicts: the canonical race is Enter's
// reply lost, the retry answered "exists" off in-memory state, and the
// machine killed before the original record reached the standby.
func (k *Kernel) observed(h rpc.Handler) rpc.Handler {
	if k.log == nil {
		return h
	}
	return func(ctx context.Context, md rpc.Meta, req rpc.Request) rpc.Reply {
		rep := h(ctx, md, req)
		if err := k.log.Barrier(); err != nil {
			return rpc.ErrReplyFromErr(err)
		}
		// The replica fence runs AFTER the barrier: by now the record
		// is locally durable and shipped, so the fence's only question
		// is whether this kernel is still entitled to acknowledge it.
		// A fence refusing because its authority is permanently gone
		// (deposed, sealed, wedged — wrapping rpc.ErrStaleAuthority)
		// answers StatusStale, which makes the client evict its cached
		// route and re-LOCATE immediately; a transient refusal answers
		// StatusOverload — back off and retry, the lease may come back.
		if f, _ := k.fence.Load().(func() error); f != nil {
			if err := f(); err != nil {
				if errors.Is(err, rpc.ErrStaleAuthority) {
					return rpc.ErrReply(rpc.StatusStale, err.Error())
				}
				return rpc.ErrReply(rpc.StatusOverload, err.Error())
			}
		}
		return rep
	}
}

// migGate marks one object as mid-migration; dispatch for it parks on
// done until the move settles.
type migGate struct {
	obj  uint32
	done chan struct{}
}

// sharded guards a handler with the kernel's shard view: a request for
// an object another shard owns is refused with StatusWrongShard and
// the current map generation, never executed. A request for the ONE
// object currently migrating parks until the move settles, then gets
// the post-move answer — the "forwarding" that makes a migration
// invisible to callers beyond a few milliseconds of stall. An
// unsharded kernel pays a single atomic load.
//
// The check runs again on the way out: a handler that raced the
// extract sees the object vanish and answers BadCapability; if by then
// the object belongs elsewhere, the honest answer is WrongShard — the
// client re-routes instead of reporting a phantom deletion.
func (k *Kernel) sharded(h rpc.Handler) rpc.Handler {
	return func(ctx context.Context, md rpc.Meta, req rpc.Request) rpc.Reply {
		v := k.view.Load()
		routed := v != nil && req.Cap != cap.Nil && req.Cap.Server == k.srv.PutPort()
		if routed {
			obj := req.Cap.Object & cap.ObjectMask
			if err := k.waitGate(ctx, obj); err != nil {
				return rpc.ErrReplyFromErr(err)
			}
			if !v.Owns(obj) {
				return rpc.WrongShardReply(v.Gen())
			}
		}
		rep := h(ctx, md, req)
		if routed && rep.Status == rpc.StatusBadCapability {
			obj := req.Cap.Object & cap.ObjectMask
			if err := k.waitGate(ctx, obj); err != nil {
				return rpc.ErrReplyFromErr(err)
			}
			if !v.Owns(obj) {
				return rpc.WrongShardReply(v.Gen())
			}
		}
		return rep
	}
}

// waitGate parks while obj is the object mid-migration.
func (k *Kernel) waitGate(ctx context.Context, obj uint32) error {
	for {
		g := k.gate.Load()
		if g == nil || g.obj != obj {
			return nil
		}
		select {
		case <-g.done:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// guard is the full dispatch wrapper: shard ownership outside,
// durability barrier and replica fence inside.
func (k *Kernel) guard(h rpc.Handler) rpc.Handler { return k.sharded(k.observed(h)) }

// SetShardView installs this kernel's shard view (nil removes it) —
// the cluster wires it right after construction, before Start.
func (k *Kernel) SetShardView(v *shard.View) { k.view.Store(v) }

// OwnsObject reports whether this kernel's shard owns obj (always
// true when unsharded). Services consult it to stop multi-object
// walks — a path lookup must not cross a shard boundary silently.
func (k *Kernel) OwnsObject(obj uint32) bool {
	v := k.view.Load()
	return v == nil || v.Owns(obj&cap.ObjectMask)
}

// ShardGen returns the current shard-map generation this kernel sees
// (0 when unsharded).
func (k *Kernel) ShardGen() uint64 {
	v := k.view.Load()
	if v == nil {
		return 0
	}
	return v.Gen()
}

// SetReplicaFence installs (nil removes) a predicate consulted after
// every handler's durability barrier; a non-nil error converts the
// reply into StatusOverload. Swappable after Start — replication
// attaches to a running kernel.
func (k *Kernel) SetReplicaFence(f func() error) { k.fence.Store(f) }

// SetAdmitGate installs (nil removes) an admission predicate on the
// transport; see rpc.Server.SetAdmitGate. Where the replica fence
// withholds acknowledgements at the exit, the gate refuses work at the
// door — a deposed primary should not even execute new mutations.
func (k *Kernel) SetAdmitGate(g func() error) { k.srv.SetAdmitGate(g) }

// Wedged reports whether the kernel's log has wedged read-only after
// an I/O failure (always false for a volatile kernel). A wedged kernel
// keeps answering the network — reads still work — but every durable
// op fails with wal.ErrWedged; the machine needs a Restart onto a
// healthy store.
func (k *Kernel) Wedged() bool { return k.log != nil && k.log.Wedged() }

// OnWedge registers fn to run (once, on its own goroutine) when the
// kernel's log wedges — the health signal replication uses to treat a
// dead disk as a dead machine. No-op on a volatile kernel.
func (k *Kernel) OnWedge(fn func(err error)) {
	if k.log != nil {
		k.log.OnWedge(fn)
	}
}

// serveTable wires the standard capability-maintenance opcodes with
// every reply behind the durability barrier (a Validate or Restrict
// observes table secrets whose re-key record may still be in flight),
// and with revocation on a durable kernel written ahead to the log: a
// re-key that survived only in memory would resurrect revoked
// capabilities at the next restart.
func (k *Kernel) serveTable() {
	t := k.table
	k.srv.ServeTableWith(t, func(_ context.Context, _ rpc.Meta, req rpc.Request) rpc.Reply {
		if k.log == nil {
			nc, err := t.Revoke(req.Cap)
			if err != nil {
				return rpc.ErrReplyFromErr(err)
			}
			return rpc.CapReply(nc)
		}
		// revMu makes record order match re-key order when two revokes
		// race on one object — replaying the log must land on the same
		// winning secret the live server handed out last.
		k.revMu.Lock()
		nc, secret, err := t.RevokeRecorded(req.Cap)
		if err != nil {
			k.revMu.Unlock()
			return rpc.ErrReplyFromErr(err)
		}
		tk, aerr := k.log.Append(revokeRecord(req.Cap.Object, secret))
		k.revMu.Unlock()
		if aerr == nil {
			aerr = tk.Wait()
		}
		if aerr != nil {
			return rpc.ErrReplyFromErr(aerr)
		}
		return rpc.CapReply(nc)
	}, k.guard)
}

func revokeRecord(obj uint32, secret uint64) []byte {
	rec := make([]byte, 13)
	rec[0] = RecKernel
	binary.BigEndian.PutUint32(rec[1:], obj)
	binary.BigEndian.PutUint64(rec[5:], secret)
	return rec
}

// Handle registers a handler for an opcode (before Start). On a
// durable kernel the handler's reply is guarded by the durability
// barrier (see observed); on a sharded kernel also by the shard
// ownership check (see sharded).
func (k *Kernel) Handle(op uint16, h rpc.Handler) { k.srv.Handle(op, k.guard(h)) }

// PutPort returns the public put-port P = F(G).
func (k *Kernel) PutPort() cap.Port { return k.srv.PutPort() }

// GetPort returns the secret get-port G. A durable service's host
// keeps it (as secret as the log) to restart the service at the same
// put-port.
func (k *Kernel) GetPort() cap.Port { return k.srv.GetPort() }

// Table exposes the object table.
func (k *Kernel) Table() *cap.Table { return k.table }

// SetSealer installs a §2.4 capability sealer on the transport (call
// before Start).
func (k *Kernel) SetSealer(sealer rpc.CapSealer) { k.srv.SetSealer(sealer) }

// SetMaxInflight resizes the transport worker pool — before Start it
// records the size, after Start it resizes live under the quiesce
// gate; see rpc.Server.SetMaxInflight.
func (k *Kernel) SetMaxInflight(n int) { k.srv.SetMaxInflight(n) }

// SetObserver installs the per-request instrumentation handle on the
// transport (call before Start); see rpc.Server.SetObserver.
func (k *Kernel) SetObserver(st *obs.ServerStats) { k.srv.SetObserver(st) }

// Inflight returns the transport's current queue depth (requests
// queued for or occupying pool workers) — the queue-depth gauge.
func (k *Kernel) Inflight() int { return k.srv.Inflight() }

// QueueWaitEWMA returns the transport's smoothed recent queue wait.
func (k *Kernel) QueueWaitEWMA() time.Duration { return k.srv.QueueWaitEWMA() }

// LogStats returns the write-ahead log's counters (zero on a volatile
// kernel) — the WAL gauges read it at scrape time.
func (k *Kernel) LogStats() wal.Stats {
	if k.log == nil {
		return wal.Stats{}
	}
	return k.log.Stats()
}

// Drain is the graceful exit: the transport stops admitting (new
// requests are shed with rpc.StatusOverload — a crisp refusal clients
// retry elsewhere, not silence), every in-flight handler finishes and
// replies, and then the kernel closes — which on a durable service
// takes the final checkpoint and closes the log. The difference from
// a bare Close is the shed phase: Close leaves the listener racing
// arriving work, Drain refuses it first, so nothing is half-admitted
// when the checkpoint runs.
func (k *Kernel) Drain() error {
	k.srv.Drain()
	return k.Close()
}

// Durable reports whether the kernel writes ahead to a log.
func (k *Kernel) Durable() bool { return k.log != nil }

// Append stages one redo record, returning the group-commit ticket the
// handler must Wait on before replying. On a volatile kernel it
// returns (nil, nil), and a nil ticket's Wait is a no-op — handlers
// are written once, durability decided by construction.
//
// Call it while holding the object lock that serialized the mutation:
// the log's stage order is its replay order.
//
// Error policy: a failed Append (log full or wedged) happens BEFORE
// the mutation, so handlers reply with an error and change nothing. A
// failed Wait happens after: the in-memory mutation stands, the reply
// is an error, and the log is wedged — every later mutation fails at
// Append, so the divergence cannot grow. Whether the failed batch's
// prefix reached the disk is unknowable (the classic fsync-failure
// ambiguity); restarting the service resolves it in the log's favor.
func (k *Kernel) Append(rec []byte) (*wal.Ticket, error) {
	if k.log == nil {
		return nil, nil
	}
	return k.log.Append(rec)
}

// GateObject marks obj as mid-migration: dispatch for it parks until
// the returned release runs; every other object is untouched. One
// migration at a time per kernel. The release is idempotent.
func (k *Kernel) GateObject(obj uint32) (release func(), err error) {
	g := &migGate{obj: obj & cap.ObjectMask, done: make(chan struct{})}
	if !k.gate.CompareAndSwap(nil, g) {
		return nil, errors.New("svc: a migration is already in flight")
	}
	var once sync.Once
	return func() {
		once.Do(func() {
			// Clear before waking: a parked request re-loads the gate,
			// finds none, and proceeds to the ownership check.
			k.gate.Store(nil)
			close(g.done)
		})
	}, nil
}

// ErrNotMigratable is returned when the service did not supply the
// per-object migration hooks.
var ErrNotMigratable = errors.New("svc: service has no migration hooks")

// ExtractForMigration cuts obj out of the running service: its table
// secret and its serialized state, removed from memory under the
// object's own lock. The cut is IN-MEMORY ONLY — no record is staged,
// so a crash right now recovers the object here, unharmed. The caller
// must finish with exactly one of CommitMigrateOut (destination holds
// it durably) or AbortMigration (put it back); until then checkpoints
// are held off, since a snapshot cut without the object while the log
// lacks its migrate-out record would lose it.
//
// Call with the object gated (GateObject): the gate keeps new requests
// out, and the service's object lock (inside ExtractObject) orders the
// cut after any handler already holding it. Because handlers stage
// their records under that same lock, the extracted state already
// reflects every staged mutation — the "WAL tail" for one object is
// empty by construction.
func (k *Kernel) ExtractForMigration(obj uint32) (secret uint64, state []byte, err error) {
	if k.extract == nil {
		return 0, nil, ErrNotMigratable
	}
	obj &= cap.ObjectMask
	k.migMu.Lock()
	secret, ok := k.table.SecretOf(obj)
	if !ok {
		k.migMu.Unlock()
		return 0, nil, fmt.Errorf("svc: object %d: %w", obj, cap.ErrNoSuchObject)
	}
	state, err = k.extract(obj)
	if err != nil {
		k.migMu.Unlock()
		return 0, nil, err
	}
	// Forget, not Destroy: the number must never reach the free list —
	// it still names a live object, just elsewhere.
	k.table.ForgetObject(obj)
	return secret, state, nil
}

// CommitMigrateOut seals a migrate-out: the destination acknowledged
// durable custody, so the record making the departure survive OUR
// restarts goes to the log (and, through the replica sink, to this
// shard's standbys). Releases the checkpoint hold taken by
// ExtractForMigration.
func (k *Kernel) CommitMigrateOut(obj uint32) error {
	defer k.migMu.Unlock()
	rec := make([]byte, 5)
	rec[0] = RecMigOut
	binary.BigEndian.PutUint32(rec[1:], obj&cap.ObjectMask)
	tk, err := k.Append(rec)
	if err == nil {
		err = tk.Wait()
	}
	return err
}

// AbortMigration undoes ExtractForMigration: the secret and state go
// back in memory exactly as they were. Nothing was logged either way,
// so recovery is already correct. Releases the checkpoint hold.
func (k *Kernel) AbortMigration(obj uint32, secret uint64, state []byte) error {
	defer k.migMu.Unlock()
	obj &= cap.ObjectMask
	k.table.InstallSecret(obj, secret)
	if k.install == nil {
		return ErrNotMigratable
	}
	return k.install(obj, state)
}

// InstallMigrated adopts an object on the destination shard: the
// migrate-in record (same secret — clients' capabilities stay valid)
// is staged, the object installed in memory, and the group commit
// waited out, so the acknowledgement the source acts on means durable
// custody here and on this shard's standbys.
func (k *Kernel) InstallMigrated(obj uint32, secret uint64, state []byte) error {
	if k.install == nil {
		return ErrNotMigratable
	}
	obj &= cap.ObjectMask
	rec := make([]byte, 13+len(state))
	rec[0] = RecMigIn
	binary.BigEndian.PutUint32(rec[1:], obj)
	binary.BigEndian.PutUint64(rec[5:], secret)
	copy(rec[13:], state)
	tk, err := k.Append(rec)
	if err != nil {
		return err
	}
	k.table.InstallSecret(obj, secret)
	// Wait even when install fails: the staged record needs a waiter to
	// commit it (see wal.Log.Append).
	ierr := k.install(obj, state)
	if err := tk.Wait(); ierr == nil {
		ierr = err
	}
	return ierr
}

// applyKernelRec consumes the kernel's own record tags during replay
// (both recovery and the replica stream); reports whether rec was one.
func (k *Kernel) applyKernelRec(rec []byte) (bool, error) {
	if len(rec) == 0 {
		return false, nil
	}
	switch rec[0] {
	case RecKernel:
		if len(rec) != 13 {
			return true, fmt.Errorf("svc: malformed kernel record (%d bytes)", len(rec))
		}
		// Replace, never install: a revoke record can trail the
		// destroy record of the same object (they stage under
		// different locks), and replaying it must not resurrect
		// the destroyed object's table entry.
		k.table.ReplaceSecret(binary.BigEndian.Uint32(rec[1:]), binary.BigEndian.Uint64(rec[5:]))
		return true, nil
	case RecMigOut:
		if len(rec) != 5 {
			return true, fmt.Errorf("svc: malformed migrate-out record (%d bytes)", len(rec))
		}
		obj := binary.BigEndian.Uint32(rec[1:])
		k.table.ForgetObject(obj)
		if k.remove != nil {
			k.remove(obj)
		}
		return true, nil
	case RecMigIn:
		if len(rec) < 13 {
			return true, fmt.Errorf("svc: malformed migrate-in record (%d bytes)", len(rec))
		}
		obj := binary.BigEndian.Uint32(rec[1:])
		k.table.InstallSecret(obj, binary.BigEndian.Uint64(rec[5:]))
		if k.install == nil {
			return true, ErrNotMigratable
		}
		return true, k.install(obj, rec[13:])
	}
	return false, nil
}

// Recover replays the log: the newest checkpoint is restored (via
// Config.Restore and the table snapshot), then every record after it
// is handed to apply in commit order — kernel records (revocation
// re-keys) are consumed internally. Recover must run before Start on a
// durable kernel; on a volatile one it is a no-op, so services call it
// unconditionally.
func (k *Kernel) Recover(apply func(rec []byte) error) error {
	if k.log == nil {
		return nil
	}
	k.mu.Lock()
	if k.recovered {
		k.mu.Unlock()
		return errors.New("svc: already recovered")
	}
	k.recovered = true
	k.mu.Unlock()
	return k.log.Recover(k.restoreCheckpoint, func(rec []byte) error {
		if consumed, err := k.applyKernelRec(rec); consumed {
			return err
		}
		return apply(rec)
	})
}

// Resnapshot quiesces the service and hands base a fresh checkpoint
// envelope plus the log sequence number the next mutation will get.
// Quiesced, every staged record has committed (handlers wait on their
// tickets before replying) and no sink delivery is concurrent with base,
// so the envelope and the sequence are a consistent cut. It is the one
// window a standby joins a replication stream through: base ships the
// envelope (a Receiver installs it via ReplicaApply's checkpoint path)
// and installs the commit sink with SetReplicaSink before it returns.
func (k *Kernel) Resnapshot(base func(snap []byte, nextSeq uint64) error) error {
	if k.log == nil {
		return errors.New("svc: volatile kernel cannot replicate")
	}
	resume := k.srv.Quiesce()
	defer resume()
	return base(k.envelope(), k.log.NextSeq())
}

// SetReplicaSink installs sink as the log's commit sink (nil detaches
// it): every record staged from here on is delivered to it in commit
// order, after its group commit and before its ticket completes (see
// wal.Log.SetSink), so a standby acknowledges a mutation before the
// client does. No-op on a volatile kernel.
func (k *Kernel) SetReplicaSink(sink func([]wal.Record)) {
	if k.log != nil {
		k.log.SetSink(sink)
	}
}

// NextSeq returns the log sequence the next mutation will get (0 on a
// volatile kernel).
func (k *Kernel) NextSeq() uint64 {
	if k.log == nil {
		return 0
	}
	return k.log.NextSeq()
}

// ReplicaApply applies one shipped record to a STANDBY kernel — a
// durable kernel that has Recovered but not Started, whose state is
// mutated only by its replication receiver. A data record is appended
// to the standby's own log and then routed exactly as Recover routes a
// replayed record (kernel revoke records re-key the table, service
// records go to apply); the returned ticket commits it — the receiver
// waits before acknowledging, so an acknowledged record survives a
// crash of the standby itself. A checkpoint record replaces the whole
// kernel state (table + service) and compacts the standby's log; it is
// durable on return (nil ticket).
//
// The standby's log can be smaller than the stream: on ErrFull the
// kernel checkpoints its own state to reclaim space and retries once.
func (k *Kernel) ReplicaApply(r wal.Record, apply func(rec []byte) error) (*wal.Ticket, error) {
	if k.log == nil {
		return nil, errors.New("svc: volatile kernel cannot apply a replica stream")
	}
	if r.Checkpoint {
		if err := k.restoreCheckpoint(r.Data); err != nil {
			return nil, err
		}
		return nil, k.log.Checkpoint(r.Data)
	}
	t, err := k.log.Append(r.Data)
	if errors.Is(err, wal.ErrFull) {
		// The standby is quiet (its receiver serializes), so its own
		// envelope is a consistent cut it can checkpoint behind.
		if ckErr := k.log.Checkpoint(k.envelope()); ckErr != nil {
			return nil, ckErr
		}
		t, err = k.log.Append(r.Data)
	}
	if err != nil {
		return nil, err
	}
	// Past the append the ticket is returned even with an error: the
	// record is staged and still needs its waiter (see wal.Log.Append).
	if consumed, err := k.applyKernelRec(r.Data); consumed {
		return t, err
	}
	if apply != nil {
		if err := apply(r.Data); err != nil {
			return t, err
		}
	}
	return t, nil
}

const ckMagic = 0xA0EB_C4EC

// envelope packs the table snapshot and the service snapshot into one
// checkpoint payload.
func (k *Kernel) envelope() []byte {
	tsnap := k.table.Snapshot()
	var ssnap []byte
	if k.snap != nil {
		ssnap = k.snap()
	}
	out := make([]byte, 0, 12+len(tsnap)+len(ssnap))
	var hdr [8]byte
	binary.BigEndian.PutUint32(hdr[0:], ckMagic)
	binary.BigEndian.PutUint32(hdr[4:], uint32(len(tsnap)))
	out = append(out, hdr[:]...)
	out = append(out, tsnap...)
	out = append(out, ssnap...)
	return out
}

func (k *Kernel) restoreCheckpoint(snap []byte) error {
	if len(snap) < 8 || binary.BigEndian.Uint32(snap) != ckMagic {
		return errors.New("svc: not a checkpoint envelope")
	}
	tlen := binary.BigEndian.Uint32(snap[4:])
	if uint64(8)+uint64(tlen) > uint64(len(snap)) {
		return errors.New("svc: truncated checkpoint envelope")
	}
	if err := k.table.Restore(snap[8 : 8+tlen]); err != nil {
		return err
	}
	if k.restore != nil {
		return k.restore(snap[8+tlen:])
	}
	return nil
}

// Checkpoint quiesces the service (no handler in flight), snapshots
// the table and service state, writes the snapshot into the log and
// truncates everything it covers. The kernel also checkpoints on its
// own when the log signals pressure, and once more at Close.
func (k *Kernel) Checkpoint() error {
	if k.log == nil {
		return nil
	}
	// migMu: never cut a snapshot while an extracted object is in
	// flight — it would be in neither the snapshot nor (yet) a
	// migrate-out record.
	k.migMu.Lock()
	defer k.migMu.Unlock()
	resume := k.srv.Quiesce()
	defer resume()
	return k.log.Checkpoint(k.envelope())
}

// Start begins serving; on durable kernels it also starts the
// pressure-driven checkpoint loop.
func (k *Kernel) Start() error {
	if err := k.srv.Start(); err != nil {
		return err
	}
	if k.log != nil {
		k.mu.Lock()
		k.stopCk = make(chan struct{})
		k.ckDone = make(chan struct{})
		stop, done := k.stopCk, k.ckDone
		k.mu.Unlock()
		go func() {
			defer close(done)
			for {
				select {
				case <-k.log.Pressure():
					// Best effort: a failed checkpoint surfaces as
					// ErrFull on the appends behind it.
					_ = k.Checkpoint()
				case <-stop:
					return
				}
			}
		}()
	}
	return nil
}

// Close drains in-flight requests, writes a final checkpoint and
// closes the log — the graceful path. See Crash for the other one.
func (k *Kernel) Close() error {
	if !k.markClosed() {
		return nil
	}
	k.stopCheckpointer()
	err := k.srv.Close()
	if k.log != nil {
		if ckErr := k.Checkpoint(); err == nil {
			err = ckErr
		}
		if cErr := k.log.Close(); err == nil {
			err = cErr
		}
	}
	return err
}

// Crash stops the service the way the process dying would look to the
// log: no final checkpoint, no final flush. Committed records stay;
// staged, unacknowledged ones are dropped (wal.Abandon) and the
// handlers waiting on them get errors — whose replies the dead machine
// never delivers anyway. The log is abandoned BEFORE the transport
// drains, so in-flight handlers cannot sneak their records to stable
// storage post-mortem. Tests and the cluster's Kill use it; everything
// the next Recover needs is already on the store.
func (k *Kernel) Crash() error {
	if !k.markClosed() {
		return nil
	}
	k.stopCheckpointer()
	var err error
	if k.log != nil {
		err = k.log.Abandon()
	}
	if cErr := k.srv.Close(); err == nil {
		err = cErr
	}
	return err
}

// markClosed wins the Close/Crash race exactly once.
func (k *Kernel) markClosed() bool {
	k.mu.Lock()
	defer k.mu.Unlock()
	if k.closed {
		return false
	}
	k.closed = true
	return true
}

func (k *Kernel) stopCheckpointer() {
	k.mu.Lock()
	stop, done := k.stopCk, k.ckDone
	k.stopCk = nil
	k.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
}
