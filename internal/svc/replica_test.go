package svc

import (
	"context"
	"testing"

	"amoeba/internal/rpc"
	"amoeba/internal/vdisk"
	"amoeba/internal/wal"
)

// TestKernelReplicaApply wires two counter kernels together directly —
// the primary's commit sink feeding the standby's ReplicaApply — and
// checks the base-snapshot handoff, record routing (service AND kernel
// revoke records), and the standby's own durability.
func TestKernelReplicaApply(t *testing.T) {
	ctx := context.Background()
	r, primaryFB := newRig(t)
	pdisk, err := vdisk.New(128, 256)
	if err != nil {
		t.Fatal(err)
	}
	plog, err := wal.Open(pdisk, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	p := newCounter(t, primaryFB, plog, 0)
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	// Three ops before the standby exists: they arrive via the base.
	for i := 0; i < 3; i++ {
		if _, err := r.client.Trans(ctx, p.PutPort(), rpc.Request{Op: opInc, Data: []byte("pre")}); err != nil {
			t.Fatal(err)
		}
	}

	bdisk, err := vdisk.New(128, 256)
	if err != nil {
		t.Fatal(err)
	}
	blog, err := wal.Open(bdisk, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, standbyFB := newRig(t)
	b := newCounter(t, standbyFB, blog, p.GetPort())
	defer b.Close()

	// The join window: base first, sink installed before the kernel resumes.
	err = p.Resnapshot(func(snap []byte, nextSeq uint64) error {
		if _, aerr := b.ReplicaApply(wal.Record{Seq: nextSeq - 1, Checkpoint: true, Data: snap}); aerr != nil {
			return aerr
		}
		p.SetReplicaSink(func(recs []wal.Record) {
			for _, rec := range recs {
				tk, aerr := b.ReplicaApply(rec)
				if aerr != nil {
					t.Errorf("replica apply seq %d: %v", rec.Seq, aerr)
					return
				}
				if aerr := tk.Wait(); aerr != nil {
					t.Errorf("replica commit seq %d: %v", rec.Seq, aerr)
				}
			}
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if b.n["pre"] != 3 {
		t.Fatalf("base snapshot delivered %d pre-ops, want 3", b.n["pre"])
	}

	for i := 0; i < 5; i++ {
		if _, err := r.client.Trans(ctx, p.PutPort(), rpc.Request{Op: opInc, Data: []byte("live")}); err != nil {
			t.Fatal(err)
		}
	}
	if b.n["live"] != 5 {
		t.Fatalf("stream delivered %d live ops, want 5", b.n["live"])
	}

	// Checkpoints flow through ReplicaApply's restore path.
	if err := p.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if b.n["pre"] != 3 || b.n["live"] != 5 {
		t.Fatalf("shipped checkpoint corrupted the standby: %v", b.n)
	}

	p.SetReplicaSink(nil)

	// The standby's own log must replay everything it acknowledged.
	rlog, err := wal.Open(bdisk.Clone(), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, rebornFB := newRig(t)
	reborn := newCounter(t, rebornFB, rlog, 0)
	defer reborn.Close()
	if reborn.n["pre"] != 3 || reborn.n["live"] != 5 {
		t.Fatalf("standby disk replay diverged: %v", reborn.n)
	}
}

// TestKernelReplicaApplyErrorReturnsTicket: a record whose apply fails
// is already staged in the standby's log, and the log has no goroutine
// to commit it — ReplicaApply must hand back the ticket its waiter
// needs, and waiting on it commits the record.
func TestKernelReplicaApplyErrorReturnsTicket(t *testing.T) {
	disk, err := vdisk.New(128, 256)
	if err != nil {
		t.Fatal(err)
	}
	log, err := wal.Open(disk, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, fb := newRig(t)
	b := newCounter(t, fb, log, 0)
	defer b.Close()
	// A kernel record one byte long is malformed: its apply fails after
	// the append staged it.
	tk, err := b.ReplicaApply(wal.Record{Seq: 1, Data: []byte{RecKernel}})
	if err == nil {
		t.Fatal("failed apply reported success")
	}
	if tk == nil {
		t.Fatal("failed apply dropped the staged record's ticket")
	}
	if err := tk.Wait(); err != nil {
		t.Fatal(err)
	}
	if s := b.LogStats(); s.Commits != 1 {
		t.Fatalf("log made %d commits, want 1", s.Commits)
	}
}

// TestResnapshotVolatileRefused: replication requires a log.
func TestResnapshotVolatileRefused(t *testing.T) {
	_, fb := newRig(t)
	c := newCounter(t, fb, nil, 0)
	defer c.Close()
	if err := c.Resnapshot(func([]byte, uint64) error { return nil }); err == nil {
		t.Fatal("volatile kernel accepted a replica")
	}
	if _, err := c.ReplicaApply(wal.Record{Seq: 1, Data: []byte{0x01, 'x'}}); err == nil {
		t.Fatal("volatile kernel applied a replica record")
	}
}
