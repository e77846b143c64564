// Chaos tests: the E10/E11 end-to-end paths run against a simulated
// network that loses, duplicates and reorders frames (seeded, so every
// run sees the same fault pattern), plus a partition/heal cycle. The
// assertion everywhere is convergence: at-least-once retries over
// idempotent operations must land the system in the correct state no
// matter which frames the network mangled.
package amoeba

import (
	"bytes"
	"context"
	"fmt"
	"testing"
	"time"

	"amoeba/internal/rpc"
)

// chaosCluster boots a cluster on a hostile, deterministic network.
func chaosCluster(t *testing.T, seed uint64) *Cluster {
	t.Helper()
	cl, err := NewCluster(ClusterConfig{
		Seed:      seed,
		LossRate:  0.05,
		Duplicate: 0.05,
		Reorder:   0.05,
		Latency:   100 * time.Microsecond,
		Jitter:    200 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

// retryOp keeps attempting fn until it succeeds: the convergence
// discipline a 5% loss rate demands. Each fn attempt already carries
// the client's own internal retries.
func retryOp(t *testing.T, what string, fn func(ctx context.Context) error) {
	t.Helper()
	ctx := context.Background()
	var err error
	for attempt := 0; attempt < 20; attempt++ {
		if err = fn(ctx); err == nil {
			return
		}
	}
	t.Fatalf("%s never converged: %v", what, err)
}

// TestChaosE10FileConvergence drives the flat file service (nested
// block-server RPC, batched transfers) through writes, reads and a
// truncate under loss + duplication + reordering, checking every read
// against a local model of the file.
func TestChaosE10FileConvergence(t *testing.T) {
	cl := chaosCluster(t, 0xC4A05)
	files := cl.Files()

	var f Capability
	retryOp(t, "create", func(ctx context.Context) error {
		var err error
		f, err = files.Create(ctx)
		return err
	})

	const size = 4096 // four blocks
	model := make([]byte, size)
	for round := 0; round < 8; round++ {
		// Deterministic, round-dependent slice at an unaligned offset.
		off := uint64(round*509) % (size - 600)
		payload := bytes.Repeat([]byte{byte('A' + round)}, 600)
		copy(model[off:], payload)
		retryOp(t, fmt.Sprintf("write round %d", round), func(ctx context.Context) error {
			return files.WriteAt(ctx, f, off, payload)
		})
		var got []byte
		retryOp(t, fmt.Sprintf("read round %d", round), func(ctx context.Context) error {
			var err error
			got, err = files.ReadAt(ctx, f, 0, size)
			return err
		})
		want := model
		if len(got) < size {
			want = model[:len(got)] // file may not have grown to size yet
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("round %d: file diverged from model", round)
		}
	}

	retryOp(t, "truncate", func(ctx context.Context) error {
		return files.Truncate(ctx, f, 1000)
	})
	retryOp(t, "size", func(ctx context.Context) error {
		sz, err := files.Size(ctx, f)
		if err != nil {
			return err
		}
		if sz != 1000 {
			return fmt.Errorf("size %d, want 1000", sz)
		}
		return nil
	})
	var tail []byte
	retryOp(t, "read after regrow", func(ctx context.Context) error {
		if err := files.WriteAt(ctx, f, 2000, []byte{0xEE}); err != nil {
			return err
		}
		var err error
		tail, err = files.ReadAt(ctx, f, 1000, 1000)
		return err
	})
	// Everything between the truncate point and the regrow write must
	// read zero: the truncate's tail-zeroing converged despite chaos.
	for i, b := range tail {
		if b != 0 {
			t.Fatalf("stale byte %#x at offset %d after truncate+regrow", b, 1000+i)
		}
	}
}

// TestChaosE11EchoPartitionHeal runs the raw trans() primitive through
// partition/heal cycles between the client and the file-server
// machine: transactions must fail fast while the link is cut and
// converge again after every heal.
func TestChaosE11EchoPartitionHeal(t *testing.T) {
	cl := chaosCluster(t, 0xE11)
	m := cl.Machines()
	port := cl.put("files")
	payload := []byte("are you there?")

	echo := func(ctx context.Context, opts ...rpc.CallOption) error {
		rep, err := cl.RPC().Trans(ctx, port, Request{Op: OpEcho, Data: payload}, opts...)
		if err != nil {
			return err
		}
		if rep.Status != StatusOK || !bytes.Equal(rep.Data, payload) {
			return fmt.Errorf("bad echo: %+v", rep)
		}
		return nil
	}

	for cycle := 0; cycle < 3; cycle++ {
		retryOp(t, fmt.Sprintf("echo before partition %d", cycle), func(ctx context.Context) error {
			return echo(ctx)
		})

		cl.Net().Partition(m.Client, m.Files)
		err := echo(context.Background(),
			WithTimeout(50*time.Millisecond), WithRetries(1))
		if err == nil {
			t.Fatalf("cycle %d: echo succeeded across a partition", cycle)
		}

		cl.Net().Heal(m.Client, m.Files)
		retryOp(t, fmt.Sprintf("echo after heal %d", cycle), func(ctx context.Context) error {
			return echo(ctx)
		})
	}
}

// TestChaosE10BatchReads: batched block fetches (one frame carrying
// many sub-requests) under the same fault model — a lost or duplicated
// batch frame must never yield torn results, only retries.
func TestChaosE10BatchReads(t *testing.T) {
	cl := chaosCluster(t, 0xBA7C)
	blocks := cl.Blocks()

	var caps []Capability
	want := make([][]byte, 12)
	for i := range want {
		var blk Capability
		retryOp(t, fmt.Sprintf("alloc %d", i), func(ctx context.Context) error {
			var err error
			blk, err = blocks.Alloc(ctx)
			return err
		})
		caps = append(caps, blk)
		want[i] = bytes.Repeat([]byte{byte(i + 1)}, 32)
		retryOp(t, fmt.Sprintf("write %d", i), func(ctx context.Context) error {
			return blocks.Write(ctx, blk, want[i])
		})
	}
	for round := 0; round < 5; round++ {
		var got [][]byte
		retryOp(t, fmt.Sprintf("batch read round %d", round), func(ctx context.Context) error {
			var err error
			got, err = blocks.ReadBatch(ctx, caps)
			return err
		})
		for i := range want {
			if !bytes.Equal(got[i][:32], want[i]) {
				t.Fatalf("round %d block %d: torn batch read", round, i)
			}
		}
	}
}
