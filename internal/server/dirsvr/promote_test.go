package dirsvr

import (
	"context"
	"fmt"
	"testing"
	"time"

	"amoeba/internal/cap"
	"amoeba/internal/repl"
	"amoeba/internal/server/servertest"
	"amoeba/internal/vdisk"
	"amoeba/internal/wal"
)

// TestPromotionCrashMatrix extends TestCrashMatrixReplay to the
// hot-standby pair: the same scripted 100-op workload runs against a
// REPLICATED primary, and after every acknowledged operation the
// BACKUP's write-ahead disk is frozen. Killing the primary at that
// boundary and promoting the standby must yield exactly the model
// state — and because the receiver only acknowledges records its own
// log has committed (and the primary only replies after that
// acknowledgement), even the harsher composite failure "primary dies
// AND the standby restarts from ITS disk" loses nothing: every frozen
// backup image is recovered into a fresh server and diffed against the
// model at that boundary.
func TestPromotionCrashMatrix(t *testing.T) {
	ctx := context.Background()
	r := servertest.New(t, 0xF0A7)
	scheme, err := cap.NewScheme(cap.SchemeOneWay)
	if err != nil {
		t.Fatal(err)
	}

	// Primary, on its own machine and disk.
	pdisk, err := vdisk.New(1024, 512)
	if err != nil {
		t.Fatal(err)
	}
	plog, err := wal.Open(pdisk, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	primaryFB := r.NewFBox(t)
	primary, err := NewDurable(primaryFB, scheme, r.Src, plog, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := primary.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { primary.Close() })

	// Standby: same get-port, own machine, own disk, never Started.
	bdisk, err := vdisk.New(1024, 512)
	if err != nil {
		t.Fatal(err)
	}
	blog, err := wal.Open(bdisk, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	backupFB := r.NewFBox(t)
	backup, err := NewDurable(backupFB, scheme, r.Src, blog, primary.GetPort())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { backup.Close() })
	recv := repl.NewReceiver(backupFB, r.Src, backup.Kernel)
	if err := recv.Start(); err != nil {
		t.Fatal(err)
	}
	ship, err := repl.AttachGroup(primary.Kernel, r.NewClient(t), []cap.Port{recv.Port()}, repl.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ship.Stop)

	nops := 100
	if testing.Short() {
		nops = 30
	}
	dc := NewClient(r.Client)
	images := make([]*vdisk.Disk, 0, nops)
	models := runScriptedWorkload(t, dc, primary.PutPort(), nops, func() {
		// The op is acknowledged, so (synchronous shipping) the backup
		// has already committed its record to its OWN disk: freeze the
		// bytes a primary-kill-plus-standby-crash would leave there.
		images = append(images, bdisk.Clone())
	})

	// The live standby must track the primary exactly at the final
	// boundary even before any promotion.
	if err := backup.matches(models[len(models)-1]); err != nil {
		t.Fatalf("live standby diverged: %v", err)
	}
	if lag := ship.Lag(); lag != 0 {
		t.Fatalf("synchronous stream lags %d records", lag)
	}

	// Kill the primary at every record boundary: recover that
	// boundary's frozen BACKUP image into a fresh server and diff.
	replayFB := r.NewFBox(t)
	for i, img := range images {
		rlog, err := wal.Open(img, wal.Options{})
		if err != nil {
			t.Fatalf("boundary %d: %v", i, err)
		}
		rs, err := NewDurable(replayFB, scheme, r.Src, rlog, primary.GetPort())
		if err != nil {
			t.Fatalf("boundary %d: recover: %v", i, err)
		}
		if err := rs.matches(models[i]); err != nil {
			t.Fatalf("promote after op %d: %v", i, err)
		}
		if err := rlog.Close(); err != nil {
			t.Fatalf("boundary %d: close: %v", i, err)
		}
	}

	// Finally the real thing at the last boundary: kill the primary,
	// promote the live standby, and use it through RPC — same put-port,
	// all acknowledged state, capabilities still valid.
	ship.Stop()
	primaryFB.Close()
	if err := primary.Crash(); err != nil {
		t.Fatal(err)
	}
	if err := recv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := backup.Start(); err != nil {
		t.Fatal(err)
	}
	if backup.PutPort() != primary.PutPort() {
		t.Fatal("promotion changed the put-port")
	}
	root, err := dc.CreateDir(ctx, backup.PutPort())
	if err != nil {
		t.Fatalf("create against promoted standby: %v", err)
	}
	entry := cap.Capability{Server: 1, Object: 2, Rights: cap.RightRead, Check: 3}
	if err := dc.Enter(ctx, root, "promoted", entry); err != nil {
		t.Fatalf("enter against promoted standby: %v", err)
	}
	got, err := dc.Lookup(ctx, root, "promoted")
	if err != nil || got != entry {
		t.Fatalf("lookup against promoted standby: %v %+v", err, got)
	}
}

// TestPromotionShipsCheckpoints: a primary under log pressure
// checkpoints mid-stream; the checkpoint ships like any record, the
// standby compacts its OWN log behind it, and promotion at the end
// still lands on the acknowledged state.
func TestPromotionShipsCheckpoints(t *testing.T) {
	ctx := context.Background()
	r := servertest.New(t, 0xF0A8)
	scheme, err := cap.NewScheme(cap.SchemeOneWay)
	if err != nil {
		t.Fatal(err)
	}
	// Deliberately tiny logs on BOTH sides: the workload forces repeated
	// checkpoint+truncate cycles through the replication stream.
	pdisk, err := vdisk.New(64, 256)
	if err != nil {
		t.Fatal(err)
	}
	plog, err := wal.Open(pdisk, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	primary, err := NewDurable(r.NewFBox(t), scheme, r.Src, plog, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := primary.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { primary.Close() })

	bdisk, err := vdisk.New(64, 256)
	if err != nil {
		t.Fatal(err)
	}
	blog, err := wal.Open(bdisk, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	backupFB := r.NewFBox(t)
	backup, err := NewDurable(backupFB, scheme, r.Src, blog, primary.GetPort())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { backup.Close() })
	recv := repl.NewReceiver(backupFB, r.Src, backup.Kernel)
	if err := recv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { recv.Close() })
	ship, err := repl.AttachGroup(primary.Kernel, r.NewClient(t), []cap.Port{recv.Port()}, repl.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ship.Stop)

	dc := NewClient(r.Client)
	root, err := dc.CreateDir(ctx, primary.PutPort())
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]cap.Capability{}
	for i := 0; i < 200; i++ {
		name := fmt.Sprintf("n%03d", i)
		entry := cap.Capability{Server: 1, Object: uint32(i), Rights: cap.RightRead, Check: uint64(i)}
		if err := dc.Enter(ctx, root, name, entry); err != nil {
			// ErrFull between pressure and the async checkpoint is
			// legal; the client-side answer is a retry.
			i--
			continue
		}
		want[name] = entry
		if i%3 == 0 {
			if err := dc.Remove(ctx, root, name); err != nil {
				t.Fatalf("remove %d: %v", i, err)
			}
			delete(want, name)
		}
	}
	// The pressure-driven checkpoint is asynchronous; give it a beat to
	// cross the stream.
	deadline := time.Now().Add(5 * time.Second)
	for recv.Stats().Checkpoints == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("no checkpoint crossed the stream: %+v", recv.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	if err := backup.matches(model{root.Object: want}); err != nil {
		t.Fatalf("standby diverged across shipped checkpoints: %v", err)
	}
}
