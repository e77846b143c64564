package cap

import (
	"errors"
	"sync"
	"testing"

	"amoeba/internal/crypto"
)

func newTestTable(t *testing.T, id SchemeID) *Table {
	t.Helper()
	s, err := NewScheme(id)
	if err != nil {
		t.Fatal(err)
	}
	return NewTable(s, testPort, crypto.NewSeededSource(uint64(id)*1000+7))
}

func TestTableCreateValidate(t *testing.T) {
	for _, id := range AllSchemeIDs() {
		t.Run(id.String(), func(t *testing.T) {
			tb := newTestTable(t, id)
			c, err := tb.Create()
			if err != nil {
				t.Fatal(err)
			}
			rights, err := tb.Validate(c)
			if err != nil {
				t.Fatal(err)
			}
			if rights != AllRights {
				t.Fatalf("owner rights = %v", rights)
			}
			if tb.Len() != 1 {
				t.Fatalf("Len = %d", tb.Len())
			}
		})
	}
}

func TestTableRejectsForeignServer(t *testing.T) {
	tb := newTestTable(t, SchemeOneWay)
	c, err := tb.Create()
	if err != nil {
		t.Fatal(err)
	}
	c.Server ^= 1
	if _, err := tb.Validate(c); !errors.Is(err, ErrInvalidCapability) {
		t.Fatalf("foreign-server capability: %v", err)
	}
}

func TestTableRejectsUnknownObject(t *testing.T) {
	tb := newTestTable(t, SchemeOneWay)
	c, err := tb.Create()
	if err != nil {
		t.Fatal(err)
	}
	c.Object = 999
	if _, err := tb.Validate(c); !errors.Is(err, ErrNoSuchObject) {
		t.Fatalf("unknown object: %v", err)
	}
}

func TestTableDemand(t *testing.T) {
	tb := newTestTable(t, SchemeOneWay)
	c, err := tb.Create()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tb.Demand(c, RightRead|RightWrite); err != nil {
		t.Fatalf("owner Demand failed: %v", err)
	}
	weak, err := tb.Restrict(c, RightRead)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tb.Demand(weak, RightRead); err != nil {
		t.Fatalf("read Demand on read-only cap: %v", err)
	}
	if _, err := tb.Demand(weak, RightWrite); !errors.Is(err, ErrPermission) {
		t.Fatalf("write Demand on read-only cap: %v", err)
	}
}

func TestTableRevocationInvalidatesAll(t *testing.T) {
	// E6: revocation under every scheme kills every outstanding
	// capability, including restricted copies, and yields a working
	// replacement.
	for _, id := range AllSchemeIDs() {
		t.Run(id.String(), func(t *testing.T) {
			tb := newTestTable(t, id)
			owner, err := tb.Create()
			if err != nil {
				t.Fatal(err)
			}
			var copies []Capability
			copies = append(copies, owner)
			if id != SchemeCompare {
				weak, err := tb.Restrict(owner, RightRead|RightRevoke)
				if err != nil {
					t.Fatal(err)
				}
				copies = append(copies, weak)
			}
			// Validate every copy first, so each is the memo's answer
			// once: revocation must drop the memo with the secret.
			for i, c := range copies {
				if _, err := tb.Validate(c); err != nil {
					t.Fatalf("copy %d invalid before revocation: %v", i, err)
				}
			}
			fresh, err := tb.Revoke(owner)
			if err != nil {
				t.Fatal(err)
			}
			for i, old := range copies {
				if _, err := tb.Validate(old); !errors.Is(err, ErrInvalidCapability) {
					t.Errorf("copy %d survived revocation: %v", i, err)
				}
			}
			if _, err := tb.Validate(fresh); err != nil {
				t.Errorf("replacement capability invalid: %v", err)
			}
		})
	}
}

func TestTableRevokeNeedsRevokeRight(t *testing.T) {
	tb := newTestTable(t, SchemeOneWay)
	owner, err := tb.Create()
	if err != nil {
		t.Fatal(err)
	}
	weak, err := tb.Restrict(owner, RightRead)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tb.Revoke(weak); !errors.Is(err, ErrPermission) {
		t.Fatalf("revoke without RightRevoke: %v", err)
	}
}

func TestTableDestroy(t *testing.T) {
	tb := newTestTable(t, SchemeCommutative)
	c, err := tb.Create()
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.Destroy(c); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.Validate(c); !errors.Is(err, ErrNoSuchObject) {
		t.Fatalf("destroyed object still validates: %v", err)
	}
	if err := tb.Destroy(c); err == nil {
		t.Fatal("double destroy succeeded")
	}
	if tb.Len() != 0 {
		t.Fatalf("Len = %d after destroy", tb.Len())
	}
}

func TestTableDestroyNeedsRight(t *testing.T) {
	tb := newTestTable(t, SchemeOneWay)
	owner, err := tb.Create()
	if err != nil {
		t.Fatal(err)
	}
	weak, err := tb.Restrict(owner, RightRead)
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.Destroy(weak); !errors.Is(err, ErrPermission) {
		t.Fatalf("destroy without RightDestroy: %v", err)
	}
}

func TestTableObjectNumberReuse(t *testing.T) {
	tb := newTestTable(t, SchemeOneWay)
	a, err := tb.Create()
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.Destroy(a); err != nil {
		t.Fatal(err)
	}
	b, err := tb.Create()
	if err != nil {
		t.Fatal(err)
	}
	if b.Object != a.Object {
		t.Fatalf("freed object number not reused: %d then %d", a.Object, b.Object)
	}
	// Stale capability for the reused number must not validate: the
	// new object has a fresh random number.
	if _, err := tb.Validate(a); err == nil {
		t.Fatal("stale capability validated against recycled object number")
	}
}

func TestTableDestroyObjectInternal(t *testing.T) {
	tb := newTestTable(t, SchemeOneWay)
	c, err := tb.Create()
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.DestroyObject(c.Object); err != nil {
		t.Fatal(err)
	}
	if err := tb.DestroyObject(c.Object); err == nil {
		t.Fatal("double DestroyObject succeeded")
	}
}

func TestTableConcurrentCreateValidate(t *testing.T) {
	tb := newTestTable(t, SchemeOneWay)
	var wg sync.WaitGroup
	const goroutines, per = 8, 50
	caps := make([][]Capability, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c, err := tb.Create()
				if err != nil {
					t.Errorf("Create: %v", err)
					return
				}
				caps[g] = append(caps[g], c)
				if _, err := tb.Validate(c); err != nil {
					t.Errorf("Validate: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if tb.Len() != goroutines*per {
		t.Fatalf("Len = %d, want %d", tb.Len(), goroutines*per)
	}
	// All object numbers distinct.
	seen := make(map[uint32]bool, goroutines*per)
	for _, list := range caps {
		for _, c := range list {
			if seen[c.Object] {
				t.Fatalf("object number %d allocated twice", c.Object)
			}
			seen[c.Object] = true
		}
	}
}

func TestTableAccessors(t *testing.T) {
	tb := newTestTable(t, SchemeCommutative)
	if tb.Server() != testPort {
		t.Errorf("Server() = %v", tb.Server())
	}
	if tb.Scheme().ID() != SchemeCommutative {
		t.Errorf("Scheme() = %v", tb.Scheme().ID())
	}
}

func TestTableNilSourceDefaultsToSystem(t *testing.T) {
	s, err := NewScheme(SchemeOneWay)
	if err != nil {
		t.Fatal(err)
	}
	tb := NewTable(s, testPort, nil)
	if _, err := tb.Create(); err != nil {
		t.Fatalf("Create with system randomness: %v", err)
	}
}

func TestTableCreateObject(t *testing.T) {
	tb := newTestTable(t, SchemeOneWay)
	c, err := tb.CreateObject(123)
	if err != nil {
		t.Fatal(err)
	}
	if c.Object != 123 {
		t.Fatalf("Object = %d", c.Object)
	}
	if _, err := tb.Validate(c); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.CreateObject(123); err == nil {
		t.Fatal("duplicate object number accepted")
	}
	if _, err := tb.CreateObject(ObjectMask + 1); err == nil {
		t.Fatal("25-bit object number accepted")
	}
	// Destroy then re-create the same number: fresh secret.
	if err := tb.DestroyObject(123); err != nil {
		t.Fatal(err)
	}
	c2, err := tb.CreateObject(123)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tb.Validate(c); err == nil {
		t.Fatal("stale capability validated after recreate")
	}
	if _, err := tb.Validate(c2); err != nil {
		t.Fatal(err)
	}
}

func TestTableSnapshotRestore(t *testing.T) {
	tb := newTestTable(t, SchemeOneWay)
	var caps []Capability
	for i := 0; i < 10; i++ {
		c, err := tb.Create()
		if err != nil {
			t.Fatal(err)
		}
		caps = append(caps, c)
	}
	if err := tb.Destroy(caps[3]); err != nil {
		t.Fatal(err)
	}
	snap := tb.Snapshot()

	// A "restarted" server: fresh table, same scheme and port.
	s, err := NewScheme(SchemeOneWay)
	if err != nil {
		t.Fatal(err)
	}
	tb2 := NewTable(s, testPort, crypto.NewSeededSource(999))
	if err := tb2.Restore(snap); err != nil {
		t.Fatal(err)
	}
	for i, c := range caps {
		_, err := tb2.Validate(c)
		if i == 3 {
			if err == nil {
				t.Error("destroyed object revived by restore")
			}
			continue
		}
		if err != nil {
			t.Errorf("capability %d rejected after restore: %v", i, err)
		}
	}
	// New objects keep allocating from where the old table left off.
	c, err := tb2.Create()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tb2.Validate(c); err != nil {
		t.Fatal(err)
	}
}

func TestTableRestoreRejectsGarbage(t *testing.T) {
	tb := newTestTable(t, SchemeOneWay)
	if err := tb.Restore([]byte("junk")); err == nil {
		t.Fatal("garbage restore accepted")
	}
	snap := tb.Snapshot()
	if err := tb.Restore(snap[:len(snap)-1]); err == nil && len(snap) > 12 {
		t.Fatal("truncated restore accepted")
	}
	// A count whose 12-byte entries wrap a uint32 to the bytes present
	// (0x40000002 × 12 = 24 mod 2^32) is a lie, not two entries.
	wrapped := append(snap[:4:4], 0x40, 0, 0, 2, 0, 0, 0, 0)
	wrapped = append(wrapped, make([]byte, 24)...)
	if err := tb.Restore(wrapped); err == nil {
		t.Fatal("restore accepted an entry count that wraps")
	}
}
