package store

import (
	"sync"
	"testing"
)

func TestBasicOps(t *testing.T) {
	m := New[string](8)
	if _, ok := m.Get(1); ok {
		t.Fatal("empty map returned a value")
	}
	m.Put(1, "one")
	m.Put(2, "two")
	if v, ok := m.Get(1); !ok || v != "one" {
		t.Fatalf("Get(1) = %q, %v", v, ok)
	}
	if m.Len() != 2 {
		t.Fatalf("Len = %d, want 2", m.Len())
	}
	m.Put(1, "uno")
	if v, _ := m.Get(1); v != "uno" {
		t.Fatalf("Put did not replace: %q", v)
	}
	if v, ok := m.Delete(1); !ok || v != "uno" {
		t.Fatalf("Delete(1) = %q, %v", v, ok)
	}
	if _, ok := m.Get(1); ok {
		t.Fatal("deleted key still present")
	}
	if _, ok := m.Delete(1); ok {
		t.Fatal("double delete reported present")
	}
}

func TestPutIfAbsent(t *testing.T) {
	m := New[int](4)
	if !m.PutIfAbsent(7, 70) {
		t.Fatal("first PutIfAbsent failed")
	}
	if m.PutIfAbsent(7, 71) {
		t.Fatal("second PutIfAbsent claimed an occupied key")
	}
	if v, _ := m.Get(7); v != 70 {
		t.Fatalf("value overwritten: %d", v)
	}
}

func TestCompareAndSwap(t *testing.T) {
	m := New[int](4)
	if CompareAndSwap(m, 7, 0, 1) {
		t.Fatal("CompareAndSwap stored under an absent key")
	}
	m.Put(7, 70)
	if CompareAndSwap(m, 7, 71, 72) {
		t.Fatal("CompareAndSwap stored over a value it did not expect")
	}
	if !CompareAndSwap(m, 7, 70, 72) {
		t.Fatal("CompareAndSwap refused the expected value")
	}
	if v, _ := m.Get(7); v != 72 {
		t.Fatalf("value after swap: %d", v)
	}
}

func TestShardRounding(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{1, 1}, {2, 2}, {3, 4}, {5, 8}, {8, 8}, {200, 256},
	} {
		m := New[int](tc.in)
		if len(m.shards) != tc.want {
			t.Errorf("New(%d): %d shards, want %d", tc.in, len(m.shards), tc.want)
		}
	}
	if got := New[int](0); len(got.shards) != DefaultShards() {
		t.Errorf("New(0): %d shards, want DefaultShards()=%d", len(got.shards), DefaultShards())
	}
}

func TestRangeAndKeys(t *testing.T) {
	m := New[uint32](16)
	want := map[uint32]bool{}
	for k := uint32(0); k < 1000; k++ {
		m.Put(k, k*2)
		want[k] = true
	}
	seen := map[uint32]bool{}
	m.Range(func(k, v uint32) bool {
		if v != k*2 {
			t.Fatalf("Range(%d) = %d", k, v)
		}
		seen[k] = true
		return true
	})
	if len(seen) != len(want) {
		t.Fatalf("Range visited %d keys, want %d", len(seen), len(want))
	}
	if got := len(m.Keys()); got != 1000 {
		t.Fatalf("Keys len = %d", got)
	}
	// Early exit.
	n := 0
	m.Range(func(_, _ uint32) bool { n++; return n < 10 })
	if n != 10 {
		t.Fatalf("Range did not stop early: %d", n)
	}
}

func TestKeysSpreadAcrossShards(t *testing.T) {
	m := New[int](8)
	for k := uint32(0); k < 4096; k++ {
		m.Put(k, 0)
	}
	for i := range m.shards {
		n := len(m.shards[i].m)
		// A perfectly even split is 512 per shard; any shard 4x off
		// means the mixer is broken for sequential keys.
		if n < 128 || n > 2048 {
			t.Fatalf("shard %d holds %d of 4096 keys", i, n)
		}
	}
}

// TestConcurrent hammers the map from many goroutines; run with -race.
func TestConcurrent(t *testing.T) {
	m := New[int](0)
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			base := uint32(g * 10000)
			for i := uint32(0); i < 500; i++ {
				k := base + i
				m.Put(k, int(i))
				if v, ok := m.Get(k); !ok || v != int(i) {
					t.Errorf("lost write for %d", k)
					return
				}
				if i%3 == 0 {
					m.Delete(k)
				}
				m.PutIfAbsent(k, -1)
			}
		}(g)
	}
	// Concurrent readers over the whole map.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				m.Len()
				m.Range(func(_ uint32, _ int) bool { return true })
			}
		}()
	}
	wg.Wait()
}
