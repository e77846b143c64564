package wire

import (
	"bytes"
	"testing"
)

func TestExtendAppendPrepend(t *testing.T) {
	b := Get(DefaultHeadroom, 16)
	if b.Len() != 0 || b.Headroom() != DefaultHeadroom {
		t.Fatalf("fresh buf: len %d headroom %d", b.Len(), b.Headroom())
	}
	copy(b.Extend(3), "abc")
	b.AppendBytes([]byte("def"))
	hdr := b.Prepend(2)
	hdr[0], hdr[1] = 'x', 'y'
	if !bytes.Equal(b.Bytes(), []byte("xyabcdef")) {
		t.Fatalf("payload %q", b.Bytes())
	}
	if b.Headroom() != DefaultHeadroom-2 {
		t.Fatalf("headroom after prepend: %d", b.Headroom())
	}
	b.Release()
}

func TestPrependBeyondHeadroomReshapes(t *testing.T) {
	b := Get(2, 8)
	b.AppendBytes([]byte("payload!"))
	hdr := b.Prepend(19) // only 2 bytes of headroom: must re-home
	for i := range hdr {
		hdr[i] = byte(i)
	}
	if got := b.Bytes(); len(got) != 19+8 || !bytes.Equal(got[19:], []byte("payload!")) {
		t.Fatalf("after reshape: %q", got)
	}
	b.Release()
}

func TestExtendBeyondClassGrows(t *testing.T) {
	b := Get(0, 16)
	b.AppendBytes(bytes.Repeat([]byte{7}, 16))
	b.AppendBytes(bytes.Repeat([]byte{9}, 4096)) // overflows the 256 class
	got := b.Bytes()
	if len(got) != 16+4096 || got[0] != 7 || got[4111] != 9 {
		t.Fatalf("grown payload wrong: len %d", len(got))
	}
	b.Release()
}

func TestCloneIsIndependent(t *testing.T) {
	b := Get(DefaultHeadroom, 4)
	b.AppendBytes([]byte("orig"))
	c := b.Clone()
	b.Bytes()[0] = 'X'
	if string(c.Bytes()) != "orig" {
		t.Fatalf("clone aliased original: %q", c.Bytes())
	}
	b.Release()
	c.Release()
}

func TestOversizeUnpooled(t *testing.T) {
	n := classSizes[len(classSizes)-1] + 1
	b := Get(0, n)
	if b.class != -1 {
		t.Fatalf("oversize buf got class %d", b.class)
	}
	b.Extend(n)
	b.Release() // must not panic or pool
}

func TestDoubleReleasePanics(t *testing.T) {
	b := Get(0, 8)
	b.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("second Release did not panic")
		}
	}()
	b.Release()
}

// TestPoisonDetectsWriteAfterRelease is the aliasing canary: a
// goroutine that keeps a slice into a released buffer and writes
// through it must be caught when the buffer is recycled. The check is
// exercised directly on the released shell (not via a pool
// round-trip: sync.Pool intentionally drops items under the race
// detector, which would make resurfacing nondeterministic).
func TestPoisonDetectsWriteAfterRelease(t *testing.T) {
	SetDebug(true)
	defer SetDebug(false)
	b := Get(0, 100)
	alias := b.Extend(8)
	b.Release() // poisons the buffer
	if !b.poisoned {
		t.Fatal("released buffer not poisoned in debug mode")
	}
	alias[3] = 0xFF // the bug under test: write through a stale alias
	defer func() {
		if recover() == nil {
			t.Fatal("recycling a corrupted buffer did not panic")
		}
		// Repair the poison before returning: Release already put the
		// buffer in the (global) pool, and a corrupted entry would
		// panic whichever later Get happens to recycle it.
		alias[3] = poisonByte
	}()
	checkPoison(b) // what Get runs on every recycled buffer
	t.Fatal("disturbed poison went undetected")
}

// TestPoisonCleanRecycle: an untouched released buffer recycles
// without complaint in debug mode.
func TestPoisonCleanRecycle(t *testing.T) {
	SetDebug(true)
	defer SetDebug(false)
	for i := 0; i < 64; i++ {
		b := Get(0, 100)
		b.AppendBytes([]byte("hello"))
		b.Release()
	}
}

// TestLiveCountsOutstanding: with debugging armed, Live rises by one
// per Get and falls by one per Release, whatever happens in between —
// growing past a size class, or an oversize buffer, re-homes the
// payload without changing how many Bufs are out.
func TestLiveCountsOutstanding(t *testing.T) {
	SetDebug(true)
	defer SetDebug(false)
	base := Live()
	a := Get(0, 8)
	a.Extend(classSizes[0] + 1) // reshape into the next class
	big := Get(0, classSizes[len(classSizes)-1]+1)
	big.Extend(classSizes[len(classSizes)-1] + 2) // oversize to oversize
	if got := Live() - base; got != 2 {
		t.Fatalf("two Bufs out, Live moved by %d", got)
	}
	a.Release()
	big.Release()
	if got := Live() - base; got != 0 {
		t.Fatalf("everything released, Live off by %d", got)
	}
}
