package cap

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"amoeba/internal/crypto"
	"amoeba/internal/store"
)

// ErrNoSuchObject is returned when a capability names an object number
// the server has no entry for (never created, or destroyed).
var ErrNoSuchObject = errors.New("cap: no such object")

// ErrTableFull is returned when all 2^24 object numbers are live.
var ErrTableFull = errors.New("cap: object table full (2^24 objects)")

// Table is the per-server object table of §2.3: for every live object
// it stores the random number ("the server would then pick a random
// number, store this number in its object table"). Servers embed one
// Table and key their own object state by object number.
//
// Table is safe for concurrent use, and — since it sits on every
// operation's hot path via Demand — the entries live in a lock-striped
// store.Map, so validations of independent objects do not contend.
// Only the allocator (object-number assignment and the free list) is
// behind a single small mutex, and it does no I/O.
//
// Each entry also remembers the first capability that passed the
// scheme check under the entry's secret (see Validate), so that
// capability presented again costs a comparison, not another F.
type Table struct {
	scheme Scheme
	server Port
	src    crypto.Source

	secrets *store.Map[entry]

	allocMu sync.Mutex
	next    uint32
	free    []uint32 // destroyed object numbers available for reuse
	// allocFilter, when set, restricts which object numbers the
	// allocator may claim — a sharded server passes its shard view's
	// Owns so every shard mints numbers it actually serves, and a
	// migrated-away number (no longer owned) can never be re-minted
	// here. Read and written under allocMu.
	allocFilter func(uint32) bool
}

// entry is one object's row: its random number and the memo of the
// first capability that validated under exactly that number. Every
// path that sets a secret writes a whole new entry, memo empty, and a
// memo is stored only by compare-and-swap against the memo-less entry
// it was computed from, so a memo can never outlive its secret.
type entry struct {
	secret uint64
	// memo is memoKey(c) | conveyed<<56 for the first c that passed
	// scheme.Validate under secret; 0 means none yet.
	memo uint64
}

// memoKey packs a capability's Rights and Check fields into 56 bits,
// the part of the capability the scheme check reads beyond the object
// number that selects the entry. A key of 0 is never memoized: it is
// what memoKey returns for a check wider than its 48 bits, where the
// packing would not be one to one, and the all-zero capability simply
// pays for its check every time.
func memoKey(c Capability) uint64 {
	if c.Check&^CheckMask != 0 {
		return 0
	}
	return uint64(c.Rights)<<48 | c.Check
}

const memoKeyMask = 1<<56 - 1

// NewTable builds an object table for a server listening on the given
// put-port, protecting its objects with the given scheme. A nil source
// selects crypto/rand.
func NewTable(scheme Scheme, server Port, src crypto.Source) *Table {
	if src == nil {
		src = crypto.SystemSource()
	}
	return &Table{
		scheme:  scheme,
		server:  server & PortMask,
		src:     src,
		secrets: store.New[entry](0),
	}
}

// Scheme returns the table's protection scheme.
func (t *Table) Scheme() Scheme { return t.scheme }

// Server returns the put-port capabilities minted here name.
func (t *Table) Server() Port { return t.server }

// Len returns the number of live objects.
func (t *Table) Len() int { return t.secrets.Len() }

// Create allocates a fresh object number, picks and stores its random
// number, and mints the owner capability (all rights).
func (t *Table) Create() (Capability, error) {
	secret := t.scheme.PrepareSecret(crypto.Rand48(t.src))
	obj, err := t.alloc(secret)
	if err != nil {
		return Nil, err
	}
	return t.scheme.Mint(t.server, obj, secret), nil
}

// CreateRecorded is Create, additionally returning the stored random
// number so a durable service can write it ahead to its log: replaying
// the record with InstallSecret re-mints the very capability the
// original reply carried, keeping client-held capabilities valid across
// a server reincarnation. The secret is as sensitive as the log that
// stores it.
func (t *Table) CreateRecorded() (Capability, uint64, error) {
	secret := t.scheme.PrepareSecret(crypto.Rand48(t.src))
	obj, err := t.alloc(secret)
	if err != nil {
		return Nil, 0, err
	}
	return t.scheme.Mint(t.server, obj, secret), secret, nil
}

// InstallSecret installs a known (object, secret) pair — the log-replay
// path for object creation. Replay is trusted: an existing entry is
// overwritten.
func (t *Table) InstallSecret(obj uint32, secret uint64) {
	t.secrets.Put(obj&ObjectMask, entry{secret: secret})
}

// ReplaceSecret replaces obj's secret only if the object is live — the
// log-replay path for revocation re-keys. A revoke record that trails
// a destroy record (the two stage under different locks, so that order
// is possible) must be a no-op, not a resurrection.
func (t *Table) ReplaceSecret(obj uint32, secret uint64) {
	t.secrets.Replace(obj&ObjectMask, entry{secret: secret})
}

// RevokeRecorded is Revoke, additionally returning the replacement
// random number for the durable services' logs.
func (t *Table) RevokeRecorded(c Capability) (Capability, uint64, error) {
	if _, err := t.Demand(c, RightRevoke); err != nil {
		return Nil, 0, err
	}
	secret := t.scheme.PrepareSecret(crypto.Rand48(t.src))
	obj := c.Object & ObjectMask
	// Replace, not Put: a destroy that races the re-key must win, or
	// the revoke would resurrect a dead object.
	if !t.secrets.Replace(obj, entry{secret: secret}) {
		return Nil, 0, fmt.Errorf("cap: object %d: %w", obj, ErrNoSuchObject)
	}
	return t.scheme.Mint(t.server, obj, secret), secret, nil
}

// CreateObject is Create with a caller-chosen object number (servers
// whose objects have natural numbers — the block server's block
// numbers, for instance — keep capability object numbers aligned with
// them). Fails if the number is live.
func (t *Table) CreateObject(obj uint32) (Capability, error) {
	if obj&^ObjectMask != 0 {
		return Nil, fmt.Errorf("cap: object number %d exceeds 24 bits", obj)
	}
	secret := t.scheme.PrepareSecret(crypto.Rand48(t.src))
	if !t.secrets.PutIfAbsent(obj, entry{secret: secret}) {
		return Nil, fmt.Errorf("cap: object %d already live", obj)
	}
	return t.scheme.Mint(t.server, obj, secret), nil
}

// alloc claims an unused 24-bit object number and installs the secret
// under it in one atomic step (PutIfAbsent), so concurrent Create and
// CreateObject calls can never claim the same number.
func (t *Table) alloc(secret uint64) (uint32, error) {
	t.allocMu.Lock()
	defer t.allocMu.Unlock()
	for n := len(t.free); n > 0; n = len(t.free) {
		obj := t.free[n-1]
		t.free = t.free[:n-1]
		if t.allocFilter != nil && !t.allocFilter(obj) {
			continue
		}
		// Free-list numbers are normally dead, but CreateObject may
		// have re-claimed one explicitly; skip those.
		if t.secrets.PutIfAbsent(obj, entry{secret: secret}) {
			return obj, nil
		}
	}
	for tries := uint32(0); tries <= ObjectMask; tries++ {
		obj := t.next & ObjectMask
		t.next++
		if t.allocFilter != nil && !t.allocFilter(obj) {
			continue
		}
		if t.secrets.PutIfAbsent(obj, entry{secret: secret}) {
			return obj, nil
		}
	}
	return 0, ErrTableFull
}

// SetAllocFilter restricts future allocations to object numbers the
// filter accepts (nil clears it). Sharded servers install their
// shard view's ownership predicate so each shard mints numbers that
// route back to it.
func (t *Table) SetAllocFilter(f func(uint32) bool) {
	t.allocMu.Lock()
	t.allocFilter = f
	t.allocMu.Unlock()
}

// Validate checks a presented capability: the object must exist here
// (right server, live object number) and the scheme check must pass.
// On success it returns the rights the capability conveys.
//
// A capability whose Rights and Check fields equal those of the first
// one that passed under the object's current secret gets that check's
// answer back without computing F again: every scheme's check is a
// function of those two fields and the secret alone. Only a passing
// check is remembered, and only into the entry whose secret it was
// computed under, so the memo accepts nothing the scheme would reject.
// A memo, once stored, stays until the secret changes: a second
// capability for the same object (a restricted copy beside the owner's)
// computes F each time, under the read lock, exactly as without a memo,
// instead of taking the write lock to displace the first.
func (t *Table) Validate(c Capability) (Rights, error) {
	if c.Server != t.server {
		return 0, fmt.Errorf("cap: capability for server %s presented to %s: %w",
			c.Server, t.server, ErrInvalidCapability)
	}
	obj := c.Object & ObjectMask
	e, ok := t.secrets.Get(obj)
	if !ok {
		return 0, fmt.Errorf("cap: object %d: %w", c.Object, ErrNoSuchObject)
	}
	key := memoKey(c)
	if key != 0 && e.memo&memoKeyMask == key {
		return Rights(e.memo >> 56), nil
	}
	rights, err := t.scheme.Validate(c, e.secret)
	if err != nil {
		return 0, err
	}
	if key != 0 && e.memo == 0 {
		// Fails, harmlessly, if the entry changed since the Get: a
		// re-key's new entry never takes this secret's memo, and of
		// two first checks racing, one memo lands.
		store.CompareAndSwap(t.secrets, obj, e, entry{secret: e.secret, memo: key | uint64(rights)<<56})
	}
	return rights, nil
}

// Demand validates c and then requires every right in need, returning
// ErrPermission if any is missing. It is the one-call guard servers
// put at the top of each operation.
func (t *Table) Demand(c Capability, need Rights) (Rights, error) {
	rights, err := t.Validate(c)
	if err != nil {
		return 0, err
	}
	if !rights.Has(need) {
		return 0, fmt.Errorf("cap: have %s, need %s: %w", rights, need, ErrPermission)
	}
	return rights, nil
}

// ErrPermission is returned by Demand when the capability is genuine
// but lacks a required right.
var ErrPermission = errors.New("cap: permission denied")

// Restrict fabricates a new capability for the same object carrying
// rights ∩ mask, the server-side path: "the process must send the
// capability back to the server along with a bit mask and a request to
// fabricate a new capability with fewer rights."
func (t *Table) Restrict(c Capability, mask Rights) (Capability, error) {
	if c.Server != t.server {
		return Nil, fmt.Errorf("cap: capability for server %s presented to %s: %w",
			c.Server, t.server, ErrInvalidCapability)
	}
	e, ok := t.secrets.Get(c.Object & ObjectMask)
	if !ok {
		return Nil, fmt.Errorf("cap: object %d: %w", c.Object, ErrNoSuchObject)
	}
	return t.scheme.Restrict(c, mask, e.secret)
}

// Revoke implements §2.3 revocation: holders of the RightRevoke bit ask
// the server to replace the object's random number; every outstanding
// capability for the object is instantly invalidated and a fresh owner
// capability is returned.
func (t *Table) Revoke(c Capability) (Capability, error) {
	nc, _, err := t.RevokeRecorded(c)
	return nc, err
}

// Destroy removes the object's entry entirely (the object is gone, not
// just re-keyed). The capability must carry RightDestroy.
func (t *Table) Destroy(c Capability) error {
	if _, err := t.Demand(c, RightDestroy); err != nil {
		return err
	}
	return t.DestroyObject(c.Object)
}

// DestroyObject removes an object by number without a capability
// check; servers use it for internal garbage collection (e.g. the
// multiversion server discarding an aborted version).
func (t *Table) DestroyObject(obj uint32) error {
	obj &= ObjectMask
	if _, ok := t.secrets.Delete(obj); !ok {
		return fmt.Errorf("cap: object %d: %w", obj, ErrNoSuchObject)
	}
	t.allocMu.Lock()
	t.free = append(t.free, obj)
	t.allocMu.Unlock()
	return nil
}

// SecretOf returns obj's stored random number — the migration path
// reads it to re-install the SAME secret on the destination shard, so
// client-held capabilities stay valid across the move.
func (t *Table) SecretOf(obj uint32) (uint64, bool) {
	e, ok := t.secrets.Get(obj & ObjectMask)
	return e.secret, ok
}

// ForgetObject drops obj's entry WITHOUT recycling its number: the
// object still exists, it just lives on another shard now. Unlike
// DestroyObject the number never enters the free list — re-minting a
// migrated-away number here would hand two shards the same identity.
func (t *Table) ForgetObject(obj uint32) {
	t.secrets.Delete(obj & ObjectMask)
}

// Snapshot serializes the table's object secrets so a service can
// persist them and, after a restart, honour capabilities it minted in
// a previous life (a block server with a persistent disk needs this —
// fresh random numbers would instantly revoke every stored block's
// capability). The snapshot contains the secrets: protect it like the
// objects themselves. Entries created or destroyed concurrently with
// the snapshot may or may not be included.
func (t *Table) Snapshot() []byte {
	t.allocMu.Lock()
	next := t.next
	t.allocMu.Unlock()
	type snapEntry struct {
		obj    uint32
		secret uint64
	}
	var entries []snapEntry
	t.secrets.Range(func(obj uint32, e entry) bool {
		entries = append(entries, snapEntry{obj, e.secret})
		return true
	})
	buf := make([]byte, 0, 12+len(entries)*12)
	var hdr [12]byte
	binary.BigEndian.PutUint32(hdr[0:], tableSnapMagic)
	binary.BigEndian.PutUint32(hdr[4:], uint32(len(entries)))
	binary.BigEndian.PutUint32(hdr[8:], next)
	buf = append(buf, hdr[:]...)
	for _, e := range entries {
		var w [12]byte
		binary.BigEndian.PutUint32(w[0:], e.obj)
		binary.BigEndian.PutUint64(w[4:], e.secret)
		buf = append(buf, w[:]...)
	}
	return buf
}

const tableSnapMagic = 0xA0EB7AB1

// Restore rebuilds the secrets from a Snapshot, replacing any current
// contents. The scheme and server port must match the snapshotting
// table's or restored capabilities will not validate. Restore must run
// before the table starts serving requests; it is not atomic against
// concurrent operations.
func (t *Table) Restore(data []byte) error {
	if len(data) < 12 || binary.BigEndian.Uint32(data) != tableSnapMagic {
		return errors.New("cap: not a table snapshot")
	}
	n := binary.BigEndian.Uint32(data[4:])
	next := binary.BigEndian.Uint32(data[8:])
	if uint64(len(data)-12) != uint64(n)*12 { // in 64 bits: n*12 wraps a uint32
		return fmt.Errorf("cap: snapshot truncated: %d entries, %d bytes", n, len(data))
	}
	secrets := store.New[entry](0)
	for i := uint32(0); i < n; i++ {
		e := data[12+i*12:]
		secrets.Put(binary.BigEndian.Uint32(e), entry{secret: binary.BigEndian.Uint64(e[4:])})
	}
	t.allocMu.Lock()
	t.secrets = secrets
	t.next = next
	t.free = nil
	t.allocMu.Unlock()
	return nil
}

// Objects returns the live object numbers (unordered): the service
// kernel writes one checkpoint entry per object it lists, and the block
// server rebuilds its allocation bitmap from it after a Restore.
func (t *Table) Objects() []uint32 { return t.secrets.Keys() }
