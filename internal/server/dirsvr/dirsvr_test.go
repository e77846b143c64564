package dirsvr

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"amoeba/internal/cap"
	"amoeba/internal/rpc"
	"amoeba/internal/server/servertest"
)

func newServer(t *testing.T, r *servertest.Rig) *Server {
	t.Helper()
	scheme, err := cap.NewScheme(cap.SchemeOneWay)
	if err != nil {
		t.Fatal(err)
	}
	s := New(r.NewFBox(t), scheme, r.Src)
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestEnterLookupRemove(t *testing.T) {
	ctx := context.Background()
	r := servertest.New(t, 0xD14)
	s := newServer(t, r)
	d := NewClient(r.Client)
	dir, err := d.CreateDir(ctx, s.PutPort())
	if err != nil {
		t.Fatal(err)
	}
	target := cap.Capability{Server: 0xBEEF, Object: 7, Rights: cap.RightRead, Check: 0x1234}
	if err := d.Enter(ctx, dir, "report.txt", target); err != nil {
		t.Fatal(err)
	}
	got, err := d.Lookup(ctx, dir, "report.txt")
	if err != nil {
		t.Fatal(err)
	}
	if got != target {
		t.Fatalf("lookup returned %v", got)
	}
	if err := d.Remove(ctx, dir, "report.txt"); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Lookup(ctx, dir, "report.txt"); !rpc.IsStatus(err, rpc.StatusServerError) {
		t.Fatalf("lookup after remove: %v", err)
	}
	if err := d.Remove(ctx, dir, "report.txt"); !rpc.IsStatus(err, rpc.StatusServerError) {
		t.Fatalf("double remove: %v", err)
	}
}

func TestDuplicateEntryRejected(t *testing.T) {
	ctx := context.Background()
	r := servertest.New(t, 0xD15)
	s := newServer(t, r)
	d := NewClient(r.Client)
	dir, err := d.CreateDir(ctx, s.PutPort())
	if err != nil {
		t.Fatal(err)
	}
	c := cap.Capability{Object: 1}
	if err := d.Enter(ctx, dir, "x", c); err != nil {
		t.Fatal(err)
	}
	if err := d.Enter(ctx, dir, "x", c); !rpc.IsStatus(err, rpc.StatusServerError) {
		t.Fatalf("duplicate enter: %v", err)
	}
}

func TestNameValidation(t *testing.T) {
	ctx := context.Background()
	r := servertest.New(t, 0xD16)
	s := newServer(t, r)
	d := NewClient(r.Client)
	dir, err := d.CreateDir(ctx, s.PutPort())
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{"", "a/b", strings.Repeat("x", MaxNameLen+1)} {
		if err := d.Enter(ctx, dir, bad, cap.Capability{}); !rpc.IsStatus(err, rpc.StatusBadRequest) {
			t.Errorf("Enter(%q): %v", bad, err)
		}
		if _, err := d.Lookup(ctx, dir, bad); !rpc.IsStatus(err, rpc.StatusBadRequest) {
			t.Errorf("Lookup(%q): %v", bad, err)
		}
	}
}

func TestList(t *testing.T) {
	ctx := context.Background()
	r := servertest.New(t, 0xD17)
	s := newServer(t, r)
	d := NewClient(r.Client)
	dir, err := d.CreateDir(ctx, s.PutPort())
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"zeta", "alpha", "mid"}
	for i, name := range names {
		if err := d.Enter(ctx, dir, name, cap.Capability{Object: uint32(i)}); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := d.List(ctx, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 3 {
		t.Fatalf("%d entries", len(entries))
	}
	// Sorted by name.
	if entries[0].Name != "alpha" || entries[1].Name != "mid" || entries[2].Name != "zeta" {
		t.Fatalf("order %v", entries)
	}
}

func TestDirectoryRights(t *testing.T) {
	ctx := context.Background()
	r := servertest.New(t, 0xD18)
	s := newServer(t, r)
	d := NewClient(r.Client)
	dir, err := d.CreateDir(ctx, s.PutPort())
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Enter(ctx, dir, "public", cap.Capability{Object: 9}); err != nil {
		t.Fatal(err)
	}
	// Read-only share: can look up and list, cannot modify.
	ro, err := d.Restrict(ctx, dir, cap.RightRead)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Lookup(ctx, ro, "public"); err != nil {
		t.Fatal(err)
	}
	if _, err := d.List(ctx, ro); err != nil {
		t.Fatal(err)
	}
	if err := d.Enter(ctx, ro, "new", cap.Capability{}); !rpc.IsStatus(err, rpc.StatusNoPermission) {
		t.Fatalf("enter with read-only: %v", err)
	}
	if err := d.Remove(ctx, ro, "public"); !rpc.IsStatus(err, rpc.StatusNoPermission) {
		t.Fatalf("remove with read-only: %v", err)
	}
}

func TestDestroyDir(t *testing.T) {
	ctx := context.Background()
	r := servertest.New(t, 0xD19)
	s := newServer(t, r)
	d := NewClient(r.Client)
	dir, err := d.CreateDir(ctx, s.PutPort())
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Enter(ctx, dir, "x", cap.Capability{}); err != nil {
		t.Fatal(err)
	}
	if err := d.DestroyDir(ctx, dir); !rpc.IsStatus(err, rpc.StatusServerError) {
		t.Fatalf("destroy of non-empty dir: %v", err)
	}
	if err := d.Remove(ctx, dir, "x"); err != nil {
		t.Fatal(err)
	}
	if err := d.DestroyDir(ctx, dir); err != nil {
		t.Fatal(err)
	}
	if _, err := d.List(ctx, dir); !rpc.IsStatus(err, rpc.StatusBadCapability) {
		t.Fatalf("list of destroyed dir: %v", err)
	}
}

func TestPathLookupSingleServer(t *testing.T) {
	ctx := context.Background()
	r := servertest.New(t, 0xD20)
	s := newServer(t, r)
	d := NewClient(r.Client)
	root, err := d.CreateDir(ctx, s.PutPort())
	if err != nil {
		t.Fatal(err)
	}
	a, err := d.CreateDir(ctx, s.PutPort())
	if err != nil {
		t.Fatal(err)
	}
	b, err := d.CreateDir(ctx, s.PutPort())
	if err != nil {
		t.Fatal(err)
	}
	leaf := cap.Capability{Server: 0xF00D, Object: 3, Check: 0x77}
	if err := d.Enter(ctx, root, "a", a); err != nil {
		t.Fatal(err)
	}
	if err := d.Enter(ctx, a, "b", b); err != nil {
		t.Fatal(err)
	}
	if err := d.Enter(ctx, b, "c", leaf); err != nil {
		t.Fatal(err)
	}
	got, err := d.LookupPath(ctx, root, "a/b/c")
	if err != nil {
		t.Fatal(err)
	}
	if got != leaf {
		t.Fatalf("path lookup returned %v", got)
	}
	// Slash variants resolve identically.
	for _, p := range []string{"/a/b/c", "a//b/c/", "///a/b//c"} {
		got, err := d.LookupPath(ctx, root, p)
		if err != nil || got != leaf {
			t.Fatalf("path %q: %v %v", p, got, err)
		}
	}
}

func TestPathLookupAcrossServers(t *testing.T) {
	ctx := context.Background()
	// §3.4's scenario: path a/b where "a" lives on server 1 and its
	// entry "b" is a directory managed by server 2. "Unless the client
	// compared the SERVER fields ... it wouldn't even notice."
	r := servertest.New(t, 0xD21)
	s1 := newServer(t, r)
	s2 := newServer(t, r)
	d := NewClient(r.Client)

	root, err := d.CreateDir(ctx, s1.PutPort())
	if err != nil {
		t.Fatal(err)
	}
	remote, err := d.CreateDir(ctx, s2.PutPort())
	if err != nil {
		t.Fatal(err)
	}
	leaf := cap.Capability{Server: 0xF00D, Object: 3, Check: 0x99}
	if err := d.Enter(ctx, root, "a", remote); err != nil {
		t.Fatal(err)
	}
	if err := d.Enter(ctx, remote, "b", leaf); err != nil {
		t.Fatal(err)
	}
	got, err := d.LookupPath(ctx, root, "a/b")
	if err != nil {
		t.Fatal(err)
	}
	if got != leaf {
		t.Fatalf("cross-server path returned %v", got)
	}
	if root.Server == remote.Server {
		t.Fatal("test miswired: both directories on one server")
	}
}

func TestEnterRemovePathHelpers(t *testing.T) {
	ctx := context.Background()
	r := servertest.New(t, 0xD22)
	s := newServer(t, r)
	d := NewClient(r.Client)
	root, err := d.CreateDir(ctx, s.PutPort())
	if err != nil {
		t.Fatal(err)
	}
	sub, err := d.CreateDir(ctx, s.PutPort())
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Enter(ctx, root, "docs", sub); err != nil {
		t.Fatal(err)
	}
	leaf := cap.Capability{Object: 42}
	if err := d.EnterPath(ctx, root, "docs/readme", leaf); err != nil {
		t.Fatal(err)
	}
	got, err := d.LookupPath(ctx, root, "docs/readme")
	if err != nil || got != leaf {
		t.Fatalf("EnterPath result: %v %v", got, err)
	}
	if err := d.RemovePath(ctx, root, "docs/readme"); err != nil {
		t.Fatal(err)
	}
	if _, err := d.LookupPath(ctx, root, "docs/readme"); err == nil {
		t.Fatal("entry survived RemovePath")
	}
	if err := d.EnterPath(ctx, root, "", leaf); err == nil {
		t.Fatal("EnterPath with empty path succeeded")
	}
}

func TestLookupPathEmptyReturnsRoot(t *testing.T) {
	ctx := context.Background()
	r := servertest.New(t, 0xD23)
	s := newServer(t, r)
	d := NewClient(r.Client)
	root, err := d.CreateDir(ctx, s.PutPort())
	if err != nil {
		t.Fatal(err)
	}
	got, err := d.LookupPath(ctx, root, "/")
	if err != nil || got != root {
		t.Fatalf("LookupPath(root, \"/\") = %v, %v", got, err)
	}
}

func TestDirectoryGraphWithCycle(t *testing.T) {
	ctx := context.Background()
	// Directories are (name, capability) sets, so arbitrary graphs —
	// including cycles — are legal (§3.4 "arbitrary directory trees,
	// graphs, etc."). A path that walks the cycle must still resolve.
	r := servertest.New(t, 0xD24)
	s := newServer(t, r)
	d := NewClient(r.Client)
	a, err := d.CreateDir(ctx, s.PutPort())
	if err != nil {
		t.Fatal(err)
	}
	b, err := d.CreateDir(ctx, s.PutPort())
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Enter(ctx, a, "b", b); err != nil {
		t.Fatal(err)
	}
	if err := d.Enter(ctx, b, "a", a); err != nil { // cycle
		t.Fatal(err)
	}
	leaf := cap.Capability{Object: 77}
	if err := d.Enter(ctx, a, "leaf", leaf); err != nil {
		t.Fatal(err)
	}
	got, err := d.LookupPath(ctx, a, "b/a/b/a/leaf")
	if err != nil {
		t.Fatal(err)
	}
	if got != leaf {
		t.Fatalf("cyclic path resolved to %v", got)
	}
}

func TestDirectoryEntryForSelf(t *testing.T) {
	ctx := context.Background()
	// A directory may contain itself ("." semantics built by clients).
	r := servertest.New(t, 0xD25)
	s := newServer(t, r)
	d := NewClient(r.Client)
	dir, err := d.CreateDir(ctx, s.PutPort())
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Enter(ctx, dir, "self", dir); err != nil {
		t.Fatal(err)
	}
	got, err := d.LookupPath(ctx, dir, "self/self/self")
	if err != nil || got != dir {
		t.Fatalf("self path: %v %v", got, err)
	}
}

// TestListTooLargeFailsFast: a directory whose listing no longer fits
// one reply frame (≥ 5,462 six-byte names) used to hang every caller of
// List until its deadline — the reply was dropped at the wire, silently,
// on every retry. It now fails at once with a server error that says why.
func TestListTooLargeFailsFast(t *testing.T) {
	ctx := context.Background()
	r := servertest.New(t, 0xD1F)
	s := newServer(t, r)
	d := NewClient(r.Client)
	dir, err := d.CreateDir(ctx, s.PutPort())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5500; i++ {
		if err := d.Enter(ctx, dir, fmt.Sprintf("e%05d", i), cap.Capability{Object: uint32(i)}); err != nil {
			t.Fatal(err)
		}
	}
	start := time.Now()
	_, err = d.List(ctx, dir)
	if !rpc.IsStatus(err, rpc.StatusServerError) || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("over-MTU List: %v, want a server error naming the limit", err)
	}
	if took := time.Since(start); took > time.Second {
		t.Fatalf("over-MTU List took %v; it must fail fast, not time out", took)
	}
}
