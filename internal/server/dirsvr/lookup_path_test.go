package dirsvr

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"amoeba/internal/cap"
	"amoeba/internal/server/servertest"
)

// buildChain creates a chain of depth directories under a fresh root
// and returns the root plus the path to (and capability of) the leaf.
func buildChain(t *testing.T, d *Client, port cap.Port, depth int) (root, leaf cap.Capability, path string) {
	t.Helper()
	ctx := context.Background()
	root, err := d.CreateDir(ctx, port)
	if err != nil {
		t.Fatal(err)
	}
	cur := root
	parts := make([]string, 0, depth)
	for i := 0; i < depth; i++ {
		sub, err := d.CreateDir(ctx, port)
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("d%d", i)
		if err := d.Enter(ctx, cur, name, sub); err != nil {
			t.Fatal(err)
		}
		cur = sub
		parts = append(parts, name)
	}
	return root, cur, strings.Join(parts, "/")
}

// TestLookupPathSingleTransaction proves the OpLookupPath point: a
// deep walk confined to one server costs one transaction (two frames
// on the wire), not one per component.
func TestLookupPathSingleTransaction(t *testing.T) {
	ctx := context.Background()
	r := servertest.New(t, 0xD30)
	s := newServer(t, r)
	d := NewClient(r.Client)
	root, leaf, path := buildChain(t, d, s.PutPort(), 16)

	// Warm the locate cache so the measured delta is pure lookup
	// traffic.
	if _, err := d.Lookup(ctx, root, "d0"); err != nil {
		t.Fatal(err)
	}
	before := r.Net.Stats().Sent
	got, err := d.LookupPath(ctx, root, path)
	if err != nil {
		t.Fatal(err)
	}
	if got != leaf {
		t.Fatalf("depth-16 lookup returned %v", got)
	}
	sent := r.Net.Stats().Sent - before
	// One transaction = request + reply. Allow slack for a stray
	// locate, but a per-component walk (32+ frames) must fail here.
	if sent > 6 {
		t.Fatalf("depth-16 LookupPath sent %d frames; want one round trip", sent)
	}
}

// TestLookupPathServerWalkMatchesIterative cross-checks the server
// walk against the per-component client walk on the same graph.
func TestLookupPathServerWalkMatchesIterative(t *testing.T) {
	ctx := context.Background()
	r := servertest.New(t, 0xD31)
	s := newServer(t, r)
	d := NewClient(r.Client)
	root, leaf, path := buildChain(t, d, s.PutPort(), 5)

	fast, err := d.LookupPath(ctx, root, "///"+path+"//")
	if err != nil {
		t.Fatal(err)
	}
	slow, err := d.lookupPathIterative(ctx, root, splitComponents(path), path)
	if err != nil {
		t.Fatal(err)
	}
	if fast != slow || fast != leaf {
		t.Fatalf("server walk %v, iterative walk %v, want %v", fast, slow, leaf)
	}
}

// lookupPathIterative is the reference walk the server's must match:
// one Lookup per component.
func (d *Client) lookupPathIterative(ctx context.Context, cur cap.Capability, comps []string, path string) (cap.Capability, error) {
	for _, comp := range comps {
		next, err := d.Lookup(ctx, cur, comp)
		if err != nil {
			return cap.Nil, fmt.Errorf("dirsvr: resolving %q at %q: %w", path, comp, err)
		}
		cur = next
	}
	return cur, nil
}

// TestLookupPathRightsEnforcedMidWalk: the server validates RightRead
// at every step of the walk, so a read-restricted intermediate
// directory stops a path lookup exactly as it stops a single Lookup.
func TestLookupPathRightsEnforcedMidWalk(t *testing.T) {
	ctx := context.Background()
	r := servertest.New(t, 0xD32)
	s := newServer(t, r)
	d := NewClient(r.Client)
	root, err := d.CreateDir(ctx, s.PutPort())
	if err != nil {
		t.Fatal(err)
	}
	mid, err := d.CreateDir(ctx, s.PutPort())
	if err != nil {
		t.Fatal(err)
	}
	leaf := cap.Capability{Server: 0xF00D, Object: 9, Check: 0x42}
	// Enter a WRITE-ONLY capability for mid: the walk may find it but
	// must not read through it.
	writeOnly, err := d.Restrict(ctx, mid, cap.RightWrite)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Enter(ctx, root, "mid", writeOnly); err != nil {
		t.Fatal(err)
	}
	if err := d.Enter(ctx, mid, "leaf", leaf); err != nil {
		t.Fatal(err)
	}
	if _, err := d.LookupPath(ctx, root, "mid/leaf"); err == nil {
		t.Fatal("walk read through a write-only directory capability")
	}
}
