package dirsvr

import (
	"context"
	"encoding/binary"
	"fmt"
	"strings"

	"amoeba/internal/cap"
	"amoeba/internal/lease"
	"amoeba/internal/rpc"
)

// Entry is one (name, capability) pair of a directory listing.
type Entry struct {
	Name string
	Cap  cap.Capability
}

// Client is the typed client for directory services. A single Client
// can traverse directories managed by *any number* of directory
// servers: every operation routes to the server named by the directory
// capability it is given, so cross-server graphs need nothing special.
type Client struct {
	c *rpc.Client
	// cache, when non-nil, holds lease-cached lookup bindings: reads
	// under an unexpired lease are answered locally with zero RPCs.
	// See package lease for the staleness contract.
	cache *lease.Cache
}

// NewClient builds a directory client over an RPC client.
func NewClient(c *rpc.Client) *Client { return &Client{c: c} }

// NewCachingClient builds a directory client that serves lookups from
// cache while a server-granted lease holds. The cache may be shared
// across clients (it is keyed by full capabilities, so rights never
// launder through it). The servers must have leases enabled
// (SetLookupLease > 0) for the cache to ever fill; against lease-less
// servers the client behaves exactly like NewClient.
func NewCachingClient(c *rpc.Client, cache *lease.Cache) *Client {
	return &Client{c: c, cache: cache}
}

// CreateDir creates an empty directory on the directory server at
// port and returns its capability.
func (d *Client) CreateDir(ctx context.Context, port cap.Port) (cap.Capability, error) {
	rep, err := d.c.Trans(ctx, port, rpc.Request{Op: OpCreateDir})
	if err != nil {
		return cap.Nil, err
	}
	if rep.Status != rpc.StatusOK {
		return cap.Nil, &rpc.StatusError{Status: rep.Status, Detail: string(rep.Data)}
	}
	return rep.Cap, nil
}

// Lookup returns the capability stored under name in dir. With a
// cache attached, a binding under an unexpired lease is returned
// locally; a miss pays the round trip and banks the server's grant.
// The lease window is stamped from a clock read taken BEFORE the
// request is sent, so the client's window sits strictly inside the
// server's.
func (d *Client) Lookup(ctx context.Context, dir cap.Capability, name string) (cap.Capability, error) {
	var preSend int64
	if d.cache != nil {
		preSend = d.cache.Now()
		if c, ok := d.cache.Get(dir, name, preSend); ok {
			return c, nil
		}
	}
	rep, err := d.c.Call(ctx, dir, OpLookup, []byte(name))
	if err != nil {
		return cap.Nil, err
	}
	if d.cache != nil && len(rep.Data) == 12 {
		gen := binary.BigEndian.Uint64(rep.Data)
		if us := binary.BigEndian.Uint32(rep.Data[8:]); us > 0 {
			d.cache.Put(dir, name, rep.Cap, gen, preSend+int64(us)*1e3)
		}
	}
	return rep.Cap, nil
}

// observeMutation tells the cache this client wrote name in dir: the
// reply carries the post-mutation directory generation, and the cache
// drops name's older bindings and admits none older than it.
func (d *Client) observeMutation(dir cap.Capability, name string, replyData []byte) {
	if d.cache != nil && len(replyData) == 8 {
		d.cache.Observe(dir.Server, dir.Object, name, binary.BigEndian.Uint64(replyData))
	}
}

// Enter stores (name, entry) in dir.
func (d *Client) Enter(ctx context.Context, dir cap.Capability, name string, entry cap.Capability) error {
	var nl [2]byte
	binary.BigEndian.PutUint16(nl[:], uint16(len(name)))
	w := entry.Encode()
	rep, err := d.c.CallParts(ctx, dir, OpEnter, nl[:], []byte(name), w[:])
	if err != nil {
		return err
	}
	d.observeMutation(dir, name, rep.Data)
	return nil
}

// Remove deletes the entry under name in dir.
func (d *Client) Remove(ctx context.Context, dir cap.Capability, name string) error {
	rep, err := d.c.Call(ctx, dir, OpRemove, []byte(name))
	if err != nil {
		return err
	}
	d.observeMutation(dir, name, rep.Data)
	return nil
}

// List returns dir's entries sorted by name.
func (d *Client) List(ctx context.Context, dir cap.Capability) ([]Entry, error) {
	rep, err := d.c.Call(ctx, dir, OpList, nil)
	if err != nil {
		return nil, err
	}
	buf := rep.Data
	if len(buf) < 2 {
		return nil, fmt.Errorf("dirsvr: list reply %d bytes", len(buf))
	}
	n := int(binary.BigEndian.Uint16(buf))
	buf = buf[2:]
	out := make([]Entry, 0, n)
	for i := 0; i < n; i++ {
		if len(buf) < 2 {
			return nil, fmt.Errorf("dirsvr: list reply truncated at entry %d", i)
		}
		nl := int(binary.BigEndian.Uint16(buf))
		buf = buf[2:]
		if len(buf) < nl+cap.Size {
			return nil, fmt.Errorf("dirsvr: list reply truncated at entry %d", i)
		}
		name := string(buf[:nl])
		c, err := cap.Decode(buf[nl : nl+cap.Size])
		if err != nil {
			return nil, err
		}
		out = append(out, Entry{Name: name, Cap: c})
		buf = buf[nl+cap.Size:]
	}
	return out, nil
}

// DestroyDir destroys an empty directory.
func (d *Client) DestroyDir(ctx context.Context, dir cap.Capability) error {
	_, err := d.c.Call(ctx, dir, OpDestroyDir, nil)
	if err == nil && d.cache != nil {
		// Forget the directory entirely, floor included: the object
		// number may be reused by a fresh directory whose generations
		// restart at zero. (A destroyed directory was empty, and every
		// removal this client made to empty it already dropped that
		// name's bindings; Drop also forgets the names others removed.)
		d.cache.Drop(dir.Server, dir.Object)
	}
	return err
}

// Restrict fabricates a weaker capability via the managing server.
func (d *Client) Restrict(ctx context.Context, c cap.Capability, mask cap.Rights) (cap.Capability, error) {
	return d.c.Restrict(ctx, c, mask)
}

// LookupPath resolves a slash-separated path relative to root. All
// components managed by one server resolve in a single OpLookupPath
// transaction; when an intermediate capability names a directory on a
// different server, the walk simply continues there — §3.4's
// transparent distribution — so a path crossing k servers costs k
// round trips, not one per component. Empty components (leading,
// trailing or doubled slashes) are ignored.
func (d *Client) LookupPath(ctx context.Context, root cap.Capability, path string) (cap.Capability, error) {
	cur, rest := root, path
	if d.cache != nil {
		// Cache-first walk: consume leading components whose bindings
		// hold an unexpired lease. One clock read and one lock cycle
		// cover the whole walk; a full hit resolves the path with zero
		// RPCs and zero allocations.
		cur, rest, _ = d.cache.ResolvePath(root, path, d.cache.Now())
		if rest == "" {
			return cur, nil
		}
	}
	return d.lookupPathRemote(ctx, cur, rest, path)
}

// lookupPathRemote resolves the remainder of a walk against the
// servers, banking every step's lease grant so the next walk starts
// further along (or skips the network entirely).
func (d *Client) lookupPathRemote(ctx context.Context, cur cap.Capability, path, full string) (cap.Capability, error) {
	comps := splitComponents(path)
	for len(comps) > 0 {
		var preSend int64
		if d.cache != nil {
			preSend = d.cache.Now()
		}
		rep, err := d.c.Call(ctx, cur, OpLookupPath, []byte(strings.Join(comps, "/")))
		if err != nil {
			return cap.Nil, fmt.Errorf("dirsvr: resolving %q: %w", full, err)
		}
		if len(rep.Data) < 2+cap.Size {
			return cap.Nil, fmt.Errorf("dirsvr: lookup-path reply %d bytes", len(rep.Data))
		}
		consumed := int(binary.BigEndian.Uint16(rep.Data))
		next, err := cap.Decode(rep.Data[2 : 2+cap.Size])
		if err != nil {
			return cap.Nil, err
		}
		if consumed == 0 || consumed > len(comps) {
			return cap.Nil, fmt.Errorf("dirsvr: lookup-path consumed %d of %d components", consumed, len(comps))
		}
		if d.cache != nil && len(rep.Data) > 2+cap.Size {
			d.mergeWalk(cur, comps, consumed, rep.Data[2+cap.Size:], preSend)
		}
		cur = next
		comps = comps[consumed:]
	}
	return cur, nil
}

// mergeWalk banks a lookup-path reply's lease trailer — leaseUs(4) ∥
// consumed × (dirGen(8) ∥ stepCap(16)) — as one cache entry per
// consumed component. Step i's directory capability is step i-1's
// result; the client holds both ends, so the trailer only needs the
// generations and the intermediate capabilities. A malformed trailer
// is ignored: caching is an optimization, never a correctness input.
func (d *Client) mergeWalk(dir cap.Capability, comps []string, consumed int, trailer []byte, preSend int64) {
	if len(trailer) != 4+consumed*(8+cap.Size) {
		return
	}
	leaseUs := binary.BigEndian.Uint32(trailer)
	if leaseUs == 0 {
		return
	}
	expiry := preSend + int64(leaseUs)*1e3
	at := 4
	for i := 0; i < consumed; i++ {
		gen := binary.BigEndian.Uint64(trailer[at:])
		step, err := cap.Decode(trailer[at+8 : at+8+cap.Size])
		if err != nil {
			return
		}
		d.cache.Put(dir, comps[i], step, gen, expiry)
		dir = step
		at += 8 + cap.Size
	}
}

// splitComponents returns path's non-empty components.
func splitComponents(path string) []string {
	comps := make([]string, 0, 8)
	for _, comp := range strings.Split(path, "/") {
		if comp != "" {
			comps = append(comps, comp)
		}
	}
	return comps
}

// EnterPath resolves the directory part of path and enters the final
// component there.
func (d *Client) EnterPath(ctx context.Context, root cap.Capability, path string, entry cap.Capability) error {
	dir, base, err := d.splitPath(ctx, root, path)
	if err != nil {
		return err
	}
	return d.Enter(ctx, dir, base, entry)
}

// RemovePath resolves the directory part of path and removes the final
// component's entry.
func (d *Client) RemovePath(ctx context.Context, root cap.Capability, path string) error {
	dir, base, err := d.splitPath(ctx, root, path)
	if err != nil {
		return err
	}
	return d.Remove(ctx, dir, base)
}

func (d *Client) splitPath(ctx context.Context, root cap.Capability, path string) (dir cap.Capability, base string, err error) {
	comps := splitComponents(path)
	if len(comps) == 0 {
		return cap.Nil, "", fmt.Errorf("dirsvr: path %q has no components", path)
	}
	dir = root
	if len(comps) > 1 {
		dir, err = d.LookupPath(ctx, root, strings.Join(comps[:len(comps)-1], "/"))
		if err != nil {
			return cap.Nil, "", err
		}
	}
	return dir, comps[len(comps)-1], nil
}
