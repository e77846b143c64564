// Package wire provides the pooled message buffer the transport stack
// shares: one Buf is allocated (or recycled) when a message is born at
// the RPC layer and the same backing array rides through the F-box
// framing, the network and the receiver's decode — the skbuff
// discipline of kernel networking applied to the Amoeba stack.
//
// # Headroom
//
// A Buf reserves headroom in front of its payload so lower layers can
// *prepend* their headers in place instead of copying the payload into
// a bigger allocation: the RPC layer encodes a request at offset
// DefaultHeadroom, the F-box prepends its 19-byte frame header with
// Prepend, and the TCP transport prepends its 14-byte length header in
// the same backing array. No layer copies.
//
// # Ownership
//
// A Buf has exactly one owner at a time. Passing a Buf to a consuming
// API (amnet.NIC.SendBuf, fbox.PutBuf) transfers ownership: the caller
// must not touch the Buf afterwards. The final owner calls Release to
// return the buffer to its size-class pool. Releasing is an
// optimization, not an obligation — a Buf that is simply dropped is
// garbage-collected like any slice — but every hot path releases, which
// is what makes the pool effective.
//
// # Poison-on-release debugging
//
// SetDebug(true) arms lifetime checking: Release fills the buffer with
// a poison pattern, a second Release panics, and a recycled buffer
// whose poison has been disturbed panics at Get — catching any code
// that kept an alias to a released payload and wrote through it. The
// race-soak tests run with debug mode on.
package wire

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// DefaultHeadroom is the headroom message builders reserve for the
// layers below them: the F-box frame header (19 bytes) plus the TCP
// transport header (14 bytes), rounded up generously.
const DefaultHeadroom = 64

// classSizes are the pooled size classes (backing-array sizes,
// headroom included). The largest holds a full network MTU frame plus
// headroom; anything bigger is allocated exactly and not pooled.
var classSizes = [...]int{256, 1 << 10, 4 << 10, 16 << 10, 64 << 10, (1 << 17) + 256}

var pools [len(classSizes)]sync.Pool

// debug arms poison-on-release lifetime checking (see SetDebug).
var debug atomic.Bool

// SetDebug toggles poison-on-release debugging globally. Intended for
// tests; the checks cost a full buffer scan per Get/Release.
func SetDebug(on bool) { debug.Store(on) }

// DebugEnabled reports whether poison-on-release checking is armed.
func DebugEnabled() bool { return debug.Load() }

// live counts Bufs handed out and not yet released while debug is
// armed (see Live).
var live atomic.Int64

// Live reports how many Bufs were obtained and not yet released while
// debugging was armed. It is for tests, which arm debugging, run a
// scenario on an otherwise quiet process and compare before with
// after: an error path that drops a Buf without releasing it shows as
// a difference.
func Live() int64 { return live.Load() }

// poisonByte fills released buffers in debug mode. Any deviation found
// at reuse time proves a write-after-release.
const poisonByte = 0xA5

// Buf is a pooled wire buffer: a backing array with the live payload
// at [off, end) and headroom in front for lower-layer headers.
type Buf struct {
	data     []byte
	off, end int
	class    int // index into pools; -1 = oversize, not pooled
	dead     bool
	poisoned bool
}

// classFor returns the smallest class index fitting n bytes, or -1.
func classFor(n int) int {
	for i, sz := range classSizes {
		if n <= sz {
			return i
		}
	}
	return -1
}

// Get returns an empty Buf with the given headroom reserved and
// capacity for at least `capacity` appended bytes.
func Get(headroom, capacity int) *Buf {
	if debug.Load() {
		live.Add(1)
	}
	need := headroom + capacity
	cls := classFor(need)
	if cls < 0 {
		return &Buf{data: make([]byte, need), off: headroom, end: headroom, class: -1}
	}
	if v := pools[cls].Get(); v != nil {
		b := v.(*Buf)
		if debug.Load() {
			checkPoison(b)
		}
		b.off, b.end, b.dead, b.poisoned = headroom, headroom, false, false
		return b
	}
	return &Buf{data: make([]byte, classSizes[cls]), off: headroom, end: headroom, class: cls}
}

// NewFrom returns a Buf with DefaultHeadroom whose payload is a copy
// of p — the bridge from ordinary slices into the pooled path.
func NewFrom(p []byte) *Buf {
	b := Get(DefaultHeadroom, len(p))
	b.AppendBytes(p)
	return b
}

// Bytes returns the live payload. The slice aliases the Buf: it is
// valid only until the Buf is released or passed to a consuming API.
func (b *Buf) Bytes() []byte { return b.data[b.off:b.end] }

// Len returns the payload length.
func (b *Buf) Len() int { return b.end - b.off }

// Headroom returns the bytes available for Prepend.
func (b *Buf) Headroom() int { return b.off }

// Extend appends n uninitialized bytes to the payload and returns the
// slice covering them, for the caller to fill in place. The bytes may
// contain recycled garbage and must be fully overwritten.
func (b *Buf) Extend(n int) []byte {
	if b.end+n > len(b.data) {
		b.grow(b.Len() + n)
	}
	s := b.data[b.end : b.end+n]
	b.end += n
	return s
}

// AppendBytes appends a copy of p to the payload.
func (b *Buf) AppendBytes(p []byte) {
	copy(b.Extend(len(p)), p)
}

// Prepend grows the payload n bytes at the *front* — into the reserved
// headroom when available, via a copy into a roomier buffer otherwise —
// and returns the slice covering the new front bytes.
func (b *Buf) Prepend(n int) []byte {
	if b.off < n {
		b.reshape(n+DefaultHeadroom, b.Len())
	}
	b.off -= n
	return b.data[b.off : b.off+n]
}

// grow moves the payload into a backing array with room for a payload
// of newLen, preserving the current headroom.
func (b *Buf) grow(newLen int) {
	b.reshape(b.off, newLen)
}

// reshape re-homes the payload into a backing array with the given
// headroom and payload capacity, recycling the old array.
func (b *Buf) reshape(headroom, capacity int) {
	old := *b
	n := old.Len()
	if capacity < n {
		capacity = n
	}
	nb := Get(headroom, capacity)
	copy(nb.Extend(n), old.data[old.off:old.end])
	*b = *nb
	// nb's shell is garbage now; put the old array back in its pool by
	// rebuilding a shell around it (the struct identity b must survive
	// for the caller, so the old array gets a fresh shell).
	releaseShell(&Buf{data: old.data, class: old.class})
}

// Clone returns an independent pooled copy (same headroom, same
// payload). Fault-injection paths that must deliver one frame twice
// clone it so each recipient owns its copy.
func (b *Buf) Clone() *Buf {
	nb := Get(b.off, b.Len())
	nb.AppendBytes(b.Bytes())
	return nb
}

// Release returns the Buf to its pool. The Buf and every slice
// obtained from it are invalid afterwards. Releasing twice is a bug:
// it is detected (best effort — reliably in debug mode) and panics.
func (b *Buf) Release() {
	if b.dead {
		panic("wire: Buf released twice")
	}
	b.dead = true
	releaseShell(b)
}

// checkPoison panics if a poisoned buffer's pattern was disturbed —
// proof that someone kept an alias past Release and wrote through it.
func checkPoison(b *Buf) {
	if !b.poisoned {
		return
	}
	for i, c := range b.data {
		if c != poisonByte {
			panic(fmt.Sprintf("wire: buffer written after Release (class %d, offset %d)", b.class, i))
		}
	}
}

func releaseShell(b *Buf) {
	if debug.Load() {
		live.Add(-1)
	}
	if b.class < 0 {
		return // oversize: let the GC have it
	}
	b.dead = true
	if debug.Load() {
		for i := range b.data {
			b.data[i] = poisonByte
		}
		b.poisoned = true
	} else {
		b.poisoned = false
	}
	pools[b.class].Put(b)
}
