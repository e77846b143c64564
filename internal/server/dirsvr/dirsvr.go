// Package dirsvr implements the Amoeba directory server (§3.4):
// directories are sets of (ASCII name, capability) pairs. The primary
// operation presents a directory capability plus a string and gets back
// the capability the string names. Enter and Remove maintain entries.
//
// Crucially, "the capabilities within a directory need not all be file
// capabilities and certainly need not all be located in the same place
// or managed by the same server": a looked-up capability may name a
// directory on a *different* directory server, and the client-side
// LookupPath helper simply sends the next lookup to whatever server the
// returned capability names. The distribution is completely
// transparent.
package dirsvr

import (
	"context"

	"encoding/binary"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"amoeba/internal/cap"
	"amoeba/internal/crypto"
	"amoeba/internal/fbox"
	"amoeba/internal/rpc"
	"amoeba/internal/store"
	"amoeba/internal/svc"
	"amoeba/internal/wal"
)

// Operation codes.
const (
	// OpCreateDir creates an empty directory; returns its capability.
	OpCreateDir uint16 = 0x0400 + iota
	// OpLookup looks a name up: data = name bytes. Returns the stored
	// capability. Needs RightRead.
	OpLookup
	// OpEnter adds an entry: data = nameLen(2) ∥ name ∥ capability(16).
	// Needs RightWrite.
	OpEnter
	// OpRemove deletes an entry: data = name bytes. Needs RightWrite.
	OpRemove
	// OpList returns all entries, sorted by name:
	// count(2) ∥ count × (nameLen(2) ∥ name ∥ capability(16)).
	// Needs RightRead.
	OpList
	// OpDestroyDir destroys an empty directory. Needs RightDestroy.
	OpDestroyDir
	// OpLookupPath resolves several path components in ONE transaction:
	// data = '/'-separated path relative to the directory named by the
	// request capability (empty components ignored). The server walks
	// as long as each intermediate capability names a directory it
	// manages itself, validating RightRead at every step, and stops
	// early when an entry points at another server — §3.4's transparent
	// distribution, continued by the client. Reply data:
	// consumed(2) ∥ capability(16), the number of components resolved
	// and the capability reached. A depth-16 walk on one server costs
	// one round trip instead of sixteen.
	OpLookupPath
)

// MaxNameLen bounds a single component name.
const MaxNameLen = 255

type directory struct {
	mu      sync.RWMutex
	entries map[string]cap.Capability
	// gen counts this directory's mutations, under mu. Lookup replies
	// carry it alongside a lease grant so clients can cache bindings;
	// enter/remove replies carry the post-mutation value so a client's
	// own writes invalidate its cache precisely. It is reproduced by
	// replay (every enter/remove record bumps it, in commit order ==
	// mutation order), carried by snapshots and migration state, and
	// the kernel barriers the log before every reply — so a generation
	// a client ever observed never moves backwards across a restart.
	gen uint64
}

// Server is a directory server instance on the service kernel. The
// directory index is a lock-striped map keyed by object number; each
// directory carries its own lock, so lookups in unrelated directories
// never contend.
//
// Directories are the system's naming root — losing them to a crash
// strands every capability filed under a name — so the server is the
// durability flagship: built with NewDurable, every mutating operation
// is written ahead to a log and acknowledged only once durable, and a
// restarted server replays itself back to the exact state its clients
// saw acknowledged.
type Server struct {
	*svc.Kernel
	table *cap.Table

	dirs *store.Map[*directory]

	// leaseNs is the lookup-lease duration granted to clients, in
	// nanoseconds; zero means no leases and byte-identical legacy
	// replies. Atomic so it can be set while serving.
	leaseNs atomic.Int64
}

// SetLookupLease sets the lease duration granted on lookup replies.
// Zero (the default) disables leases entirely: replies stay
// byte-identical to the pre-lease wire format.
func (s *Server) SetLookupLease(d time.Duration) { s.leaseNs.Store(int64(d)) }

// leaseMicros converts a lease duration to the 4-byte microsecond
// wire field (capped, not wrapped).
func leaseMicros(ns int64) uint32 {
	us := ns / 1e3
	if us > int64(^uint32(0)) {
		return ^uint32(0)
	}
	return uint32(us)
}

// New builds a volatile directory server. Call Start to begin serving.
func New(fb *fbox.FBox, scheme cap.Scheme, src crypto.Source) *Server {
	s, err := NewDurable(fb, scheme, src, nil, 0)
	if err != nil { // unreachable: no log means no recovery to fail
		panic(err)
	}
	return s
}

// NewDurable builds a directory server whose mutations are written
// ahead to log (nil for a volatile server), recovering any state a
// previous incarnation logged before it returns. g pins the secret
// get-port (zero draws a fresh one); a host restarting the service
// passes the same g so the server reappears at the put-port every
// outstanding directory capability names.
func NewDurable(fb *fbox.FBox, scheme cap.Scheme, src crypto.Source, log *wal.Log, g cap.Port) (*Server, error) {
	s := &Server{dirs: store.New[*directory](0)}
	s.Kernel = svc.NewWithConfig(fb, scheme, svc.Config{
		Source:        src,
		Port:          g,
		Log:           log,
		Restore:       s.reset,
		EncodeObject:  s.encodeObject,
		ExtractObject: s.extractObject,
		InstallObject: s.installObject,
	})
	s.table = s.Table()
	s.Handle(OpCreateDir, s.createDir)
	s.Handle(OpLookup, s.lookup)
	s.Handle(OpEnter, s.enter)
	s.Handle(OpRemove, s.remove)
	s.Handle(OpList, s.list)
	s.Handle(OpDestroyDir, s.destroyDir)
	s.Handle(OpLookupPath, s.lookupPath)
	if err := s.Recover(s.apply); err != nil {
		return nil, fmt.Errorf("dirsvr: recovering: %w", err)
	}
	return s, nil
}

// Redo-record tags (first byte; svc.RecKernel is reserved).
const (
	recCreate  byte = 0x01 // obj(4) secret(8)
	recEnter   byte = 0x02 // obj(4) nameLen(2) name cap(16)
	recRemove  byte = 0x03 // obj(4) name
	recDestroy byte = 0x04 // obj(4)
)

func recObj(tag byte, obj uint32) []byte {
	rec := make([]byte, 5)
	rec[0] = tag
	binary.BigEndian.PutUint32(rec[1:], obj)
	return rec
}

func recCreateDir(obj uint32, secret uint64) []byte {
	rec := make([]byte, 13)
	rec[0] = recCreate
	binary.BigEndian.PutUint32(rec[1:], obj)
	binary.BigEndian.PutUint64(rec[5:], secret)
	return rec
}

func recEnterDir(obj uint32, name string, c cap.Capability) []byte {
	rec := make([]byte, 0, 7+len(name)+cap.Size)
	rec = append(rec, recEnter, 0, 0, 0, 0, 0, 0)
	binary.BigEndian.PutUint32(rec[1:], obj)
	binary.BigEndian.PutUint16(rec[5:], uint16(len(name)))
	rec = append(rec, name...)
	return c.AppendTo(rec)
}

func recRemoveDir(obj uint32, name string) []byte {
	rec := make([]byte, 0, 5+len(name))
	rec = append(rec, recRemove, 0, 0, 0, 0)
	binary.BigEndian.PutUint32(rec[1:], obj)
	return append(rec, name...)
}

// apply replays one redo record — the crash-recovery half of the
// mutating handlers below. The log is trusted: no rights checks, and
// order is the live commit order, so straight application reproduces
// the acknowledged state.
func (s *Server) apply(rec []byte) error {
	if len(rec) < 5 {
		return fmt.Errorf("dirsvr: short record (%d bytes)", len(rec))
	}
	obj := binary.BigEndian.Uint32(rec[1:])
	body := rec[5:]
	switch rec[0] {
	case recCreate:
		if len(body) != 8 {
			return fmt.Errorf("dirsvr: malformed create record")
		}
		s.table.InstallSecret(obj, binary.BigEndian.Uint64(body))
		s.dirs.Put(obj, &directory{entries: make(map[string]cap.Capability)})
	case recEnter:
		if len(body) < 2+cap.Size {
			return fmt.Errorf("dirsvr: malformed enter record")
		}
		n := int(binary.BigEndian.Uint16(body))
		if len(body) != 2+n+cap.Size {
			return fmt.Errorf("dirsvr: malformed enter record")
		}
		c, err := cap.Decode(body[2+n:])
		if err != nil {
			return err
		}
		// Live staging is totally ordered per directory (every record
		// stages under d.mu), so a record for a missing directory can
		// only come from a log written before that invariant held;
		// skipping it mirrors what the live server's state showed.
		if d, ok := s.dirs.Get(obj); ok {
			d.entries[string(body[2:2+n])] = c
			d.gen++ // replay bumps exactly as the live mutation did
		}
	case recRemove:
		if d, ok := s.dirs.Get(obj); ok {
			delete(d.entries, string(body))
			d.gen++
		}
	case recDestroy:
		s.dirs.Delete(obj)
		_ = s.table.DestroyObject(obj)
	default:
		return fmt.Errorf("dirsvr: unknown record tag %#02x", rec[0])
	}
	return nil
}

// reset drops every directory ahead of a checkpoint's restore, which
// installs them one by one; a directory server keeps no state that
// belongs to no directory.
func (s *Server) reset([]byte) error {
	s.dirs = store.New[*directory](0)
	return nil
}

// encodeDirEntries serializes one directory's state (caller holds
// d.mu): gen(8) ∥ n(4) ∥ n × (nameLen(2) ∥ name ∥ cap(16)). The
// generation travels with the entries so a migrated directory's
// clients keep their cached-lookup floors intact — generations only
// ever continue, never restart, while the object lives.
func encodeDirEntries(d *directory) []byte {
	out := make([]byte, 12)
	binary.BigEndian.PutUint64(out, d.gen)
	binary.BigEndian.PutUint32(out[8:], uint32(len(d.entries)))
	for name, c := range d.entries {
		var nl [2]byte
		binary.BigEndian.PutUint16(nl[:], uint16(len(name)))
		out = append(out, nl[:]...)
		out = append(out, name...)
		out = c.AppendTo(out)
	}
	return out
}

func decodeDirEntries(state []byte) (map[string]cap.Capability, uint64, error) {
	if len(state) < 12 {
		return nil, 0, fmt.Errorf("dirsvr: truncated directory state")
	}
	gen := binary.BigEndian.Uint64(state)
	n := binary.BigEndian.Uint32(state[8:])
	at := 12
	entries := make(map[string]cap.Capability, n)
	for i := uint32(0); i < n; i++ {
		if len(state)-at < 2 {
			return nil, 0, fmt.Errorf("dirsvr: truncated directory state")
		}
		nl := int(binary.BigEndian.Uint16(state[at:]))
		at += 2
		if len(state)-at < nl+cap.Size {
			return nil, 0, fmt.Errorf("dirsvr: truncated directory state")
		}
		c, err := cap.Decode(state[at+nl : at+nl+cap.Size])
		if err != nil {
			return nil, 0, err
		}
		entries[string(state[at:at+nl])] = c
		at += nl + cap.Size
	}
	return entries, gen, nil
}

// encodeObject serializes one directory for a checkpoint entry, under
// its read lock.
func (s *Server) encodeObject(obj uint32) ([]byte, error) {
	d, ok := s.dirs.Get(obj)
	if !ok {
		return nil, fmt.Errorf("dirsvr: object %d: %w", obj, cap.ErrNoSuchObject)
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	return encodeDirEntries(d), nil
}

// extractObject cuts one directory out for migration (or replays a
// migrate-out record): serialized and removed under its own write lock,
// so the cut is exactly the state the last acknowledged mutation left
// (handlers stage their records under this same lock) and no other
// directory is touched.
func (s *Server) extractObject(obj uint32) ([]byte, error) {
	d, ok := s.dirs.Get(obj)
	if !ok {
		return nil, fmt.Errorf("dirsvr: object %d: %w", obj, cap.ErrNoSuchObject)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if cur, live := s.dirs.Get(obj); !live || cur != d {
		// Destroyed between lookup and lock (see enter).
		return nil, fmt.Errorf("dirsvr: object %d: %w", obj, cap.ErrNoSuchObject)
	}
	state := encodeDirEntries(d)
	s.dirs.Delete(obj)
	return state, nil
}

// installObject adopts a directory from a checkpoint entry or a
// migration (or replays a migrate-in record). Trusted like any replay:
// an existing object is overwritten.
func (s *Server) installObject(obj uint32, state []byte) error {
	entries, gen, err := decodeDirEntries(state)
	if err != nil {
		return err
	}
	s.dirs.Put(obj, &directory{entries: entries, gen: gen})
	return nil
}

func (s *Server) createDir(ctx context.Context, _ rpc.Meta, _ rpc.Request) rpc.Reply {
	c, secret, err := s.table.CreateRecorded()
	if err != nil {
		return rpc.ErrReplyFromErr(err)
	}
	s.dirs.Put(c.Object, &directory{entries: make(map[string]cap.Capability)})
	t, err := s.Append(ctx, recCreateDir(c.Object, secret))
	if err != nil {
		// Unlogged: roll the creation back so memory matches the log.
		s.dirs.Delete(c.Object)
		_ = s.table.DestroyObject(c.Object)
		return rpc.ErrReplyFromErr(err)
	}
	if err := t.Wait(); err != nil {
		return rpc.ErrReplyFromErr(err)
	}
	return rpc.CapReply(c)
}

func (s *Server) dir(c cap.Capability, need cap.Rights) (*directory, error) {
	if _, err := s.table.Demand(c, need); err != nil {
		return nil, err
	}
	d, ok := s.dirs.Get(c.Object)
	if !ok {
		return nil, fmt.Errorf("dirsvr: object %d: %w", c.Object, cap.ErrNoSuchObject)
	}
	return d, nil
}

func validName(name string) error {
	switch {
	case name == "":
		return fmt.Errorf("dirsvr: empty name")
	case len(name) > MaxNameLen:
		return fmt.Errorf("dirsvr: name longer than %d bytes", MaxNameLen)
	case strings.ContainsRune(name, '/'):
		return fmt.Errorf("dirsvr: component name contains '/'")
	}
	return nil
}

func (s *Server) lookup(_ context.Context, _ rpc.Meta, req rpc.Request) rpc.Reply {
	d, err := s.dir(req.Cap, cap.RightRead)
	if err != nil {
		return rpc.ErrReplyFromErr(err)
	}
	name := string(req.Data)
	if err := validName(name); err != nil {
		return rpc.ErrReply(rpc.StatusBadRequest, err.Error())
	}
	leaseNs := s.leaseNs.Load()
	d.mu.RLock()
	c, ok := d.entries[name]
	gen := d.gen
	d.mu.RUnlock()
	if !ok {
		return rpc.ErrReply(rpc.StatusServerError, fmt.Sprintf("no entry %q", name))
	}
	rep := rpc.CapReply(c)
	if leaseNs > 0 {
		// Lease grant rides the reply data the binding itself doesn't
		// use: gen(8) ∥ leaseUs(4). The generation is read under the
		// same lock as the entry, so the pair is a consistent cut.
		grant := make([]byte, 12)
		binary.BigEndian.PutUint64(grant, gen)
		binary.BigEndian.PutUint32(grant[8:], leaseMicros(leaseNs))
		rep.Data = grant
	}
	return rep
}

func (s *Server) lookupPath(_ context.Context, _ rpc.Meta, req rpc.Request) rpc.Reply {
	path := string(req.Data)
	self := s.PutPort()
	cur := req.Cap
	consumed := 0
	leaseNs := s.leaseNs.Load()
	// With leases on, the reply grows a per-step trailer so the client
	// can cache EVERY binding the walk crossed, not just the endpoint:
	// leaseUs(4) ∥ consumed × (dirGen(8) ∥ stepCap(16)). Step i's
	// directory is step i-1's capability (the client knows both ends),
	// and each generation is read under the same lock as its entry.
	var steps []byte
	for _, comp := range strings.Split(path, "/") {
		if comp == "" {
			continue
		}
		if cur.Server != self || consumed == 0xFFFF || !s.OwnsObject(cur.Object) {
			break // next step belongs to another server or another
			// shard of this port (or the count field is full); hand
			// back, the client carries on
		}
		if err := validName(comp); err != nil {
			return rpc.ErrReply(rpc.StatusBadRequest, err.Error())
		}
		d, err := s.dir(cur, cap.RightRead)
		if err != nil {
			return rpc.ErrReplyFromErr(fmt.Errorf("at %q: %w", comp, err))
		}
		d.mu.RLock()
		next, ok := d.entries[comp]
		gen := d.gen
		d.mu.RUnlock()
		if !ok {
			return rpc.ErrReply(rpc.StatusServerError, fmt.Sprintf("no entry %q", comp))
		}
		if leaseNs > 0 {
			var st [8 + cap.Size]byte
			binary.BigEndian.PutUint64(st[:8], gen)
			w := next.Encode()
			copy(st[8:], w[:])
			steps = append(steps, st[:]...)
		}
		cur = next
		consumed++
	}
	out := make([]byte, 2+cap.Size, 2+cap.Size+4+len(steps))
	binary.BigEndian.PutUint16(out[:2], uint16(consumed))
	w := cur.Encode()
	copy(out[2:], w[:])
	if leaseNs > 0 {
		var us [4]byte
		binary.BigEndian.PutUint32(us[:], leaseMicros(leaseNs))
		out = append(out, us[:]...)
		out = append(out, steps...)
	}
	return rpc.OkReply(out)
}

func (s *Server) enter(ctx context.Context, _ rpc.Meta, req rpc.Request) rpc.Reply {
	d, err := s.dir(req.Cap, cap.RightWrite)
	if err != nil {
		return rpc.ErrReplyFromErr(err)
	}
	if len(req.Data) < 2 {
		return rpc.ErrReply(rpc.StatusBadRequest, "enter wants nameLen(2) ∥ name ∥ cap(16)")
	}
	n := int(binary.BigEndian.Uint16(req.Data))
	if len(req.Data) != 2+n+cap.Size {
		return rpc.ErrReply(rpc.StatusBadRequest, "enter parameter length mismatch")
	}
	name := string(req.Data[2 : 2+n])
	if err := validName(name); err != nil {
		return rpc.ErrReply(rpc.StatusBadRequest, err.Error())
	}
	entry, err := cap.Decode(req.Data[2+n:])
	if err != nil {
		return rpc.ErrReply(rpc.StatusBadRequest, err.Error())
	}
	// Stage the record while holding the directory lock — the log's
	// commit order must match the mutation order — but wait for the
	// group commit after releasing it, so concurrent writers on this
	// directory share one disk sync instead of queueing behind it.
	d.mu.Lock()
	if cur, live := s.dirs.Get(req.Cap.Object); !live || cur != d {
		// Destroyed between lookup and lock (destruction is serialized
		// on this same lock): fail rather than write into an orphan.
		// Pointer identity, not mere presence: the freed number may
		// already name a NEW directory, and a record staged against it
		// would replay an entry the new directory never acknowledged.
		d.mu.Unlock()
		return rpc.ErrReplyFromErr(fmt.Errorf("dirsvr: object %d: %w", req.Cap.Object, cap.ErrNoSuchObject))
	}
	if _, dup := d.entries[name]; dup {
		d.mu.Unlock()
		return rpc.ErrReply(rpc.StatusServerError, fmt.Sprintf("entry %q exists", name))
	}
	t, aerr := s.Append(ctx, recEnterDir(req.Cap.Object, name, entry))
	if aerr != nil {
		d.mu.Unlock()
		return rpc.ErrReplyFromErr(aerr)
	}
	d.entries[name] = entry
	d.gen++
	newGen := d.gen
	d.mu.Unlock()
	if err := t.Wait(); err != nil {
		return rpc.ErrReplyFromErr(err)
	}
	return s.mutationReply(newGen)
}

// mutationReply acknowledges a mutation; with leases on it carries the
// post-mutation directory generation — newGen(8) — so the mutator's
// own cache floor advances and its cached bindings for this directory
// stop being served the instant the write is acknowledged.
func (s *Server) mutationReply(newGen uint64) rpc.Reply {
	if s.leaseNs.Load() <= 0 {
		return rpc.OkReply(nil)
	}
	data := make([]byte, 8)
	binary.BigEndian.PutUint64(data, newGen)
	return rpc.OkReply(data)
}

func (s *Server) remove(ctx context.Context, _ rpc.Meta, req rpc.Request) rpc.Reply {
	d, err := s.dir(req.Cap, cap.RightWrite)
	if err != nil {
		return rpc.ErrReplyFromErr(err)
	}
	name := string(req.Data)
	if err := validName(name); err != nil {
		return rpc.ErrReply(rpc.StatusBadRequest, err.Error())
	}
	d.mu.Lock()
	if cur, live := s.dirs.Get(req.Cap.Object); !live || cur != d {
		// See enter: identity, not presence (number-reuse ABA).
		d.mu.Unlock()
		return rpc.ErrReplyFromErr(fmt.Errorf("dirsvr: object %d: %w", req.Cap.Object, cap.ErrNoSuchObject))
	}
	if _, ok := d.entries[name]; !ok {
		d.mu.Unlock()
		return rpc.ErrReply(rpc.StatusServerError, fmt.Sprintf("no entry %q", name))
	}
	t, aerr := s.Append(ctx, recRemoveDir(req.Cap.Object, name))
	if aerr != nil {
		d.mu.Unlock()
		return rpc.ErrReplyFromErr(aerr)
	}
	delete(d.entries, name)
	d.gen++
	newGen := d.gen
	d.mu.Unlock()
	if err := t.Wait(); err != nil {
		return rpc.ErrReplyFromErr(err)
	}
	return s.mutationReply(newGen)
}

func (s *Server) list(_ context.Context, _ rpc.Meta, req rpc.Request) rpc.Reply {
	d, err := s.dir(req.Cap, cap.RightRead)
	if err != nil {
		return rpc.ErrReplyFromErr(err)
	}
	d.mu.RLock()
	names := make([]string, 0, len(d.entries))
	for name := range d.entries {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]byte, 2)
	binary.BigEndian.PutUint16(out, uint16(len(names)))
	for _, name := range names {
		var nl [2]byte
		binary.BigEndian.PutUint16(nl[:], uint16(len(name)))
		out = append(out, nl[:]...)
		out = append(out, name...)
		out = d.entries[name].AppendTo(out)
	}
	d.mu.RUnlock()
	return rpc.OkReply(out)
}

func (s *Server) destroyDir(ctx context.Context, _ rpc.Meta, req rpc.Request) rpc.Reply {
	d, err := s.dir(req.Cap, cap.RightDestroy)
	if err != nil {
		return rpc.ErrReplyFromErr(err)
	}
	// The emptiness check, the state delete and the record staging all
	// happen under the directory's write lock: enter/remove stage under
	// the same lock, so the log's per-directory record order is exactly
	// the mutation order (a destroy can never precede an enter it
	// actually followed), and no entry can slip into an orphan between
	// the check and the delete. Winning the state delete elects THE
	// destroyer: state leaves the map before the number can be reused,
	// and only the winner retires the (already Demand-checked) table
	// entry — by number, so a concurrent revoke cannot leave an
	// orphaned entry behind. The destroy record is staged before the
	// number is freed, so a racing create that reuses it logs after us.
	d.mu.Lock()
	if n := len(d.entries); n != 0 {
		d.mu.Unlock()
		return rpc.ErrReply(rpc.StatusServerError, fmt.Sprintf("directory not empty (%d entries)", n))
	}
	if cur, live := s.dirs.Get(req.Cap.Object); !live || cur != d {
		// Identity, not presence: deleting by number alone could take
		// down a NEW directory that reused it (see enter).
		d.mu.Unlock()
		return rpc.ErrReplyFromErr(fmt.Errorf("dirsvr: object %d: %w", req.Cap.Object, cap.ErrNoSuchObject))
	}
	s.dirs.Delete(req.Cap.Object)
	t, aerr := s.Append(ctx, recObj(recDestroy, req.Cap.Object))
	d.mu.Unlock()
	if aerr != nil {
		return rpc.ErrReplyFromErr(aerr)
	}
	derr := s.table.DestroyObject(req.Cap.Object)
	if err := t.Wait(); err != nil {
		return rpc.ErrReplyFromErr(err)
	}
	if derr != nil {
		return rpc.ErrReplyFromErr(derr)
	}
	return rpc.OkReply(nil)
}
