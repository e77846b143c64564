package vdisk

import (
	"errors"
	"sync"
	"time"

	"amoeba/internal/clock"
)

// Injected fault errors. They are distinct from the organic vdisk
// errors so tests can assert an observed failure is the one they
// planted, and so upper layers (the WAL wedge path) can report what
// actually killed the disk.
var (
	// ErrInjectedIO models a drive returning EIO: the operation did not
	// happen (or, for a torn write, only partially happened).
	ErrInjectedIO = errors.New("vdisk: injected I/O error")
	// ErrNoSpace models ENOSPC: writes fail, reads still work.
	ErrNoSpace = errors.New("vdisk: injected ENOSPC (no space left on device)")
)

// FaultStats counts the faults a FaultStore actually delivered.
type FaultStats struct {
	WriteErrs   uint64 // writes/zeros/syncs failed with ErrInjectedIO or ErrNoSpace
	TornWrites  uint64
	RottenReads uint64 // reads returned with a flipped bit
}

// FaultStore wraps any Store with deterministic, seedable fault
// injection: the gray-failure half of the chaos harness. The network
// side (SimNet) can lose and reorder frames; this side can make the
// disk under a WAL return EIO after N more writes, report ENOSPC,
// tear a write in half, rot bits on the way back out, or just get
// slow. All faults are armed at runtime, so a chaos test can kill a
// specific machine's disk mid-soak. The slow-disk fault sleeps on the
// clock the store was built with: its machine's.
//
// Determinism: the only randomized fault is bit rot, driven by a
// splitmix64 stream from the seed — same seed, same operation
// sequence, same flipped bits.
type FaultStore struct {
	inner Store
	clk   clock.Clock

	mu         sync.Mutex
	rng        uint64 // splitmix64 state, seeded
	writesLeft int64  // writes until EIO; -1 = healthy
	enospc     bool
	tornNext   bool
	rotRate    float64 // per-read probability of one flipped bit
	slow       time.Duration
	stats      FaultStats
}

var _ Store = (*FaultStore)(nil)

// NewFaultStore wraps inner, on the machine whose clock is clk. With no
// faults armed it is a transparent pass-through.
func NewFaultStore(inner Store, seed uint64, clk clock.Clock) *FaultStore {
	return &FaultStore{inner: inner, clk: clk, rng: seed ^ 0x9E37_79B9_7F4A_7C15, writesLeft: -1}
}

// FailWritesAfter arms the EIO fault: the next n writes (including
// zeros and syncs reached after them) succeed, every write after that
// fails with ErrInjectedIO. n = 0 kills the disk's write path
// immediately — the canonical "WAL disk died mid-soak" fault.
func (d *FaultStore) FailWritesAfter(n int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.writesLeft = int64(n)
}

// SetENOSPC arms (or clears) the full-disk fault: writes fail with
// ErrNoSpace, reads are untouched.
func (d *FaultStore) SetENOSPC(on bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.enospc = on
}

// TearNextWrite arms a torn write: the next Write persists only the
// first half of the block, then reports ErrInjectedIO — the bytes a
// power cut leaves behind mid-sector. One-shot.
func (d *FaultStore) TearNextWrite() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.tornNext = true
}

// SetBitRot arms silent read corruption: each ReadInto flips one
// random bit of the returned buffer with probability rate. The store
// itself is not modified — rereads may see clean data, like a marginal
// head. rate 0 clears the fault.
func (d *FaultStore) SetBitRot(rate float64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.rotRate = rate
}

// SetSlow adds latency to every operation: the disk that is not dead,
// just dying. d = 0 clears it.
func (d *FaultStore) SetSlow(delay time.Duration) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.slow = delay
}

// Heal clears every armed fault.
func (d *FaultStore) Heal() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.writesLeft = -1
	d.enospc = false
	d.tornNext = false
	d.rotRate = 0
	d.slow = 0
}

// FaultStats returns how many faults have been delivered.
func (d *FaultStore) FaultStats() FaultStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}

// next is a splitmix64 step; callers hold d.mu.
func (d *FaultStore) next() uint64 {
	d.rng += 0x9E37_79B9_7F4A_7C15
	z := d.rng
	z = (z ^ (z >> 30)) * 0xBF58_476D_1CE4_E5B9
	z = (z ^ (z >> 27)) * 0x94D0_49BB_1331_11EB
	return z ^ (z >> 31)
}

// chance reports true with probability p; callers hold d.mu.
func (d *FaultStore) chance(p float64) bool {
	if p <= 0 {
		return false
	}
	return float64(d.next()>>11)/(1<<53) < p
}

// writeFault decides the fate of one write-path operation and charges
// the stats; callers hold d.mu. torn reports whether the write should
// half-land before failing.
func (d *FaultStore) writeFault() (err error, torn bool) {
	if d.tornNext {
		d.tornNext = false
		d.stats.TornWrites++
		d.stats.WriteErrs++
		return ErrInjectedIO, true
	}
	if d.enospc {
		d.stats.WriteErrs++
		return ErrNoSpace, false
	}
	if d.writesLeft == 0 {
		d.stats.WriteErrs++
		return ErrInjectedIO, false
	}
	if d.writesLeft > 0 {
		d.writesLeft--
	}
	return nil, false
}

// BlockSize implements Store.
func (d *FaultStore) BlockSize() int { return d.inner.BlockSize() }

// NBlocks implements Store.
func (d *FaultStore) NBlocks() uint32 { return d.inner.NBlocks() }

// Read implements Store.
func (d *FaultStore) Read(n uint32) ([]byte, error) {
	buf := make([]byte, d.inner.BlockSize())
	if err := d.ReadInto(n, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// ReadInto implements Store. Bit rot corrupts the returned copy, not
// the store, after the real read succeeds.
func (d *FaultStore) ReadInto(n uint32, dst []byte) error {
	d.mu.Lock()
	slow := d.slow
	rot := d.rotRate > 0 && d.chance(d.rotRate)
	var bit uint64
	if rot {
		bit = d.next()
		d.stats.RottenReads++
	}
	d.mu.Unlock()
	d.clk.Sleep(slow) // none when the fault is off
	if err := d.inner.ReadInto(n, dst); err != nil {
		return err
	}
	if rot && len(dst) > 0 {
		i := int(bit/8) % len(dst)
		dst[i] ^= 1 << (bit % 8)
	}
	return nil
}

// Write implements Store. A torn write persists only the first half of
// the block before reporting failure.
func (d *FaultStore) Write(n uint32, data []byte) error {
	d.mu.Lock()
	slow := d.slow
	err, torn := d.writeFault()
	d.mu.Unlock()
	d.clk.Sleep(slow) // none when the fault is off
	if err != nil {
		if torn && len(data) >= 2 {
			half := append(make([]byte, 0, len(data)), data[:len(data)/2]...)
			half = append(half, make([]byte, len(data)-len(data)/2)...)
			d.inner.Write(n, half) // best effort: the tear is the point
		}
		return err
	}
	return d.inner.Write(n, data)
}

// Zero implements Store: a write, for fault accounting.
func (d *FaultStore) Zero(n uint32) error {
	d.mu.Lock()
	slow := d.slow
	err, _ := d.writeFault()
	d.mu.Unlock()
	d.clk.Sleep(slow) // none when the fault is off
	if err != nil {
		return err
	}
	return d.inner.Zero(n)
}

// Sync implements Store. A disk that cannot write cannot promise
// durability either: the EIO fault (but not ENOSPC — the data already
// written is safe) fails syncs too.
func (d *FaultStore) Sync() error {
	d.mu.Lock()
	slow := d.slow
	var err error
	if d.writesLeft == 0 {
		d.stats.WriteErrs++
		err = ErrInjectedIO
	}
	d.mu.Unlock()
	d.clk.Sleep(slow) // none when the fault is off
	if err != nil {
		return err
	}
	return d.inner.Sync()
}

// Stats implements Store, delegating to the wrapped store.
func (d *FaultStore) Stats() Stats { return d.inner.Stats() }
