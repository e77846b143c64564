package vdisk

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"amoeba/internal/clock"
)

func faultDisk(t *testing.T) (*Disk, *FaultStore) {
	t.Helper()
	d, err := New(16, 64)
	if err != nil {
		t.Fatal(err)
	}
	return d, NewFaultStore(d, 42, clock.Real)
}

func TestFaultStorePassThrough(t *testing.T) {
	_, fs := faultDisk(t)
	blk := bytes.Repeat([]byte{0xAB}, fs.BlockSize())
	if err := fs.Write(3, blk); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	got, err := fs.Read(3)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, blk) {
		t.Fatal("healthy FaultStore corrupted a round trip")
	}
	if err := fs.Zero(3); err != nil {
		t.Fatal(err)
	}
	if got, _ := fs.Read(3); !bytes.Equal(got, make([]byte, fs.BlockSize())) {
		t.Fatal("Zero did not zero")
	}
	if s := fs.FaultStats(); s != (FaultStats{}) {
		t.Fatalf("healthy store charged faults: %+v", s)
	}
}

func TestFaultStoreEIOAfterN(t *testing.T) {
	_, fs := faultDisk(t)
	blk := make([]byte, fs.BlockSize())
	fs.FailWritesAfter(2)
	if err := fs.Write(0, blk); err != nil {
		t.Fatalf("write 1 of 2 before the fault: %v", err)
	}
	if err := fs.Write(1, blk); err != nil {
		t.Fatalf("write 2 of 2 before the fault: %v", err)
	}
	if err := fs.Write(2, blk); !errors.Is(err, ErrInjectedIO) {
		t.Fatalf("write after countdown: %v, want ErrInjectedIO", err)
	}
	if err := fs.Sync(); !errors.Is(err, ErrInjectedIO) {
		t.Fatalf("sync on a dead disk: %v, want ErrInjectedIO", err)
	}
	if err := fs.Zero(0); !errors.Is(err, ErrInjectedIO) {
		t.Fatalf("zero on a dead disk: %v, want ErrInjectedIO", err)
	}
	// Reads survive: the failure is gray, not fail-stop.
	if _, err := fs.Read(0); err != nil {
		t.Fatalf("read on a write-dead disk: %v", err)
	}
	fs.Heal()
	if err := fs.Write(2, blk); err != nil {
		t.Fatalf("write after Heal: %v", err)
	}
}

func TestFaultStoreENOSPC(t *testing.T) {
	_, fs := faultDisk(t)
	blk := make([]byte, fs.BlockSize())
	fs.SetENOSPC(true)
	if err := fs.Write(0, blk); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("write on a full disk: %v, want ErrNoSpace", err)
	}
	// Already-written data stays durable: sync and reads still work.
	if err := fs.Sync(); err != nil {
		t.Fatalf("sync on a full disk: %v", err)
	}
	if _, err := fs.Read(0); err != nil {
		t.Fatalf("read on a full disk: %v", err)
	}
	fs.SetENOSPC(false)
	if err := fs.Write(0, blk); err != nil {
		t.Fatalf("write after space freed: %v", err)
	}
}

func TestFaultStoreTornWrite(t *testing.T) {
	inner, fs := faultDisk(t)
	full := bytes.Repeat([]byte{0xFF}, fs.BlockSize())
	fs.TearNextWrite()
	if err := fs.Write(5, full); !errors.Is(err, ErrInjectedIO) {
		t.Fatalf("torn write reported %v, want ErrInjectedIO", err)
	}
	got, err := inner.Read(5)
	if err != nil {
		t.Fatal(err)
	}
	half := fs.BlockSize() / 2
	if !bytes.Equal(got[:half], full[:half]) {
		t.Fatal("torn write lost its first half")
	}
	if !bytes.Equal(got[half:], make([]byte, fs.BlockSize()-half)) {
		t.Fatal("torn write persisted its second half")
	}
	// One-shot: the next write is whole.
	if err := fs.Write(5, full); err != nil {
		t.Fatalf("write after the tear: %v", err)
	}
	if got, _ := inner.Read(5); !bytes.Equal(got, full) {
		t.Fatal("post-tear write did not land whole")
	}
}

func TestFaultStoreBitRotDeterministic(t *testing.T) {
	run := func(seed uint64) []byte {
		d, err := New(16, 64)
		if err != nil {
			t.Fatal(err)
		}
		fs := NewFaultStore(d, seed, clock.Real)
		blk := bytes.Repeat([]byte{0x55}, fs.BlockSize())
		if err := fs.Write(0, blk); err != nil {
			t.Fatal(err)
		}
		fs.SetBitRot(1.0)
		got, err := fs.Read(0)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(got, blk) {
			t.Fatal("bit rot at rate 1.0 returned clean data")
		}
		if s := fs.FaultStats(); s.RottenReads != 1 {
			t.Fatalf("RottenReads = %d, want 1", s.RottenReads)
		}
		// The store itself is clean — rereads without the fault match.
		fs.SetBitRot(0)
		clean, err := fs.Read(0)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(clean, blk) {
			t.Fatal("bit rot modified the store, not just the read")
		}
		return got
	}
	a, b := run(7), run(7)
	if !bytes.Equal(a, b) {
		t.Fatal("same seed produced different rot")
	}
	// Exactly one bit differs from the clean image.
	clean := bytes.Repeat([]byte{0x55}, len(a))
	bits := 0
	for i := range a {
		for d := a[i] ^ clean[i]; d != 0; d &= d - 1 {
			bits++
		}
	}
	if bits != 1 {
		t.Fatalf("rot flipped %d bits, want exactly 1", bits)
	}
}

// sleepLog is a machine clock that records the sleeps asked of it.
type sleepLog struct {
	clock.Clock
	slept []time.Duration
}

func (c *sleepLog) Sleep(d time.Duration) {
	if d > 0 {
		c.slept = append(c.slept, d)
	}
}

func TestFaultStoreSlow(t *testing.T) {
	_, fs := faultDisk(t)
	fs.SetSlow(5 * time.Millisecond)
	start := time.Now()
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 5*time.Millisecond {
		t.Fatalf("slow sync returned in %v, want ≥ 5ms", d)
	}

	// The delay is slept on the store's own clock, once per operation.
	d, err := New(16, 64)
	if err != nil {
		t.Fatal(err)
	}
	clk := &sleepLog{Clock: clock.Real}
	fs = NewFaultStore(d, 7, clk)
	fs.SetSlow(time.Hour)
	blk := make([]byte, fs.BlockSize())
	if fs.Write(0, blk) != nil || fs.Zero(1) != nil || fs.ReadInto(0, blk) != nil || fs.Sync() != nil {
		t.Fatal("a slow disk failed an operation")
	}
	if len(clk.slept) != 4 || clk.slept[0] != time.Hour {
		t.Fatalf("slept %v on the store's clock, want four hours", clk.slept)
	}
	fs.Heal()
	if fs.Sync(); len(clk.slept) != 4 {
		t.Fatalf("a healed disk slept: %v", clk.slept)
	}
}
