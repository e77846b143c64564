package dirsvr

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"amoeba/internal/cap"
	"amoeba/internal/server/servertest"
	"amoeba/internal/vdisk"
	"amoeba/internal/wal"
)

// heldDisk, once armed, reports each Sync it enters and takes one token
// per Sync: a test holds a commit pass mid-batch by withholding the
// token.
type heldDisk struct {
	*vdisk.Disk
	armed   atomic.Bool
	entered chan struct{}
	tokens  chan struct{}
}

func (d *heldDisk) Sync() error {
	if d.armed.Load() {
		d.entered <- struct{}{}
		<-d.tokens
	}
	return d.Disk.Sync()
}

// heldServer is a durable directory server over a heldDisk, with one
// directory already made durable, and a client.
type heldServer struct {
	s    *Server
	log  *wal.Log
	disk *heldDisk
	dc   *Client
	dir  cap.Capability
}

func newHeldServer(t *testing.T, seed uint64) *heldServer {
	t.Helper()
	r := servertest.New(t, seed)
	scheme, err := cap.NewScheme(cap.SchemeOneWay)
	if err != nil {
		t.Fatal(err)
	}
	vd, err := vdisk.New(512, 512)
	if err != nil {
		t.Fatal(err)
	}
	h := &heldServer{disk: &heldDisk{Disk: vd, entered: make(chan struct{}, 16), tokens: make(chan struct{}, 16)}}
	if h.log, err = wal.Open(h.disk, wal.Options{}); err != nil {
		t.Fatal(err)
	}
	if h.s, err = NewDurable(r.NewFBox(t), scheme, r.Src, h.log, 0); err != nil {
		t.Fatal(err)
	}
	if err := h.s.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		h.disk.armed.Store(false)
		close(h.disk.tokens)
		h.s.Close()
	})
	h.dc = NewClient(r.Client)
	if h.dir, err = h.dc.CreateDir(context.Background(), h.s.PutPort()); err != nil {
		t.Fatal(err)
	}
	return h
}

// staged waits until the log has handed out sequence number seq, i.e.
// the record before it is staged.
func (h *heldServer) staged(t *testing.T, seq uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for h.log.NextSeq() < seq {
		if time.Now().After(deadline) {
			t.Fatalf("sequence %d never staged (next %d)", seq, h.log.NextSeq())
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// syncing waits until a commit pass is held in Sync: its batch is
// claimed, and a record staged from now on goes into the next one.
func (h *heldServer) syncing(t *testing.T) {
	t.Helper()
	select {
	case <-h.disk.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("no commit pass reached Sync")
	}
}

// async runs f in a goroutine and returns its outcome's channel.
func async(f func() error) <-chan error {
	ch := make(chan error, 1)
	go func() { ch <- f() }()
	return ch
}

// pending fails the test if ch has delivered: its reply left before the
// record it waits for committed.
func pending(t *testing.T, what string, ch <-chan error) {
	t.Helper()
	select {
	case err := <-ch:
		t.Fatalf("%s replied (%v) before the record it waits for committed", what, err)
	case <-time.After(30 * time.Millisecond):
	}
}

// TestBarrierHoldsObservingReplies: replies that OBSERVE state — the
// "exists" answer to a duplicate Enter, a Lookup of an entry whose Enter
// is still committing — must wait for the record they observed. Held,
// they could acknowledge state a crash-plus-failover forgets.
func TestBarrierHoldsObservingReplies(t *testing.T) {
	ctx := context.Background()
	h := newHeldServer(t, 0xBA55)
	entry := h.dir // any capability will do as an entry

	h.disk.armed.Store(true)
	enter := async(func() error { return h.dc.Enter(ctx, h.dir, "x", entry) })
	h.syncing(t) // staged, and its commit pass is held in Sync

	dup := async(func() error { return h.dc.Enter(ctx, h.dir, "x", entry) })
	lookup := async(func() error {
		got, err := h.dc.Lookup(ctx, h.dir, "x")
		if err == nil && got != entry {
			t.Errorf("Lookup got %v, want %v", got, entry)
		}
		return err
	})
	pending(t, "the duplicate Enter", dup)
	pending(t, "the Lookup", lookup)

	h.disk.tokens <- struct{}{}
	if err := <-enter; err != nil {
		t.Fatalf("Enter: %v", err)
	}
	if err := <-dup; err == nil {
		t.Fatal("duplicate Enter succeeded")
	}
	if err := <-lookup; err != nil {
		t.Fatalf("Lookup: %v", err)
	}
}

// TestSettledWriteSkipsLaterBatch: an Enter whose own record has
// committed replies at once. Every record it observed was staged before
// its own, so the barrier would only hold it for a batch another writer
// staged later — here one held in flight indefinitely.
func TestSettledWriteSkipsLaterBatch(t *testing.T) {
	ctx := context.Background()
	h := newHeldServer(t, 0xBA56)
	entry := h.dir

	h.disk.armed.Store(true)
	next := h.log.NextSeq()
	first := async(func() error { return h.dc.Enter(ctx, h.dir, "first", entry) })
	h.syncing(t) // its pass is held in Sync
	later := async(func() error { return h.dc.Enter(ctx, h.dir, "later", entry) })
	h.staged(t, next+2) // staged behind it: the next batch

	h.disk.tokens <- struct{}{} // the first batch commits; the later one stays held
	select {
	case err := <-first:
		if err != nil {
			t.Fatalf("first Enter: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("a committed Enter's reply waited for a later writer's batch")
	}
	pending(t, "the later Enter", later)
	h.disk.tokens <- struct{}{}
	if err := <-later; err != nil {
		t.Fatalf("later Enter: %v", err)
	}
}
