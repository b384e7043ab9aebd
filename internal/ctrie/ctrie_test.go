package ctrie

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func hashU64(k uint64) uint64 {
	// splitmix64 finalizer: well distributed for sequential keys.
	z := k + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func newU64() *Ctrie[uint64, uint64] { return New[uint64, uint64](hashU64) }

func TestInsertLookup(t *testing.T) {
	c := newU64()
	if _, found := c.Lookup(1); found {
		t.Fatal("empty trie claims to contain key")
	}
	for i := uint64(0); i < 1000; i++ {
		c.Insert(i, i*10)
	}
	for i := uint64(0); i < 1000; i++ {
		v, found := c.Lookup(i)
		if !found || v != i*10 {
			t.Fatalf("Lookup(%d) = %d,%v; want %d,true", i, v, found, i*10)
		}
	}
	if _, found := c.Lookup(5000); found {
		t.Fatal("found a key never inserted")
	}
	if got := c.Len(); got != 1000 {
		t.Fatalf("Len = %d, want 1000", got)
	}
}

func TestSwapReturnsPrevious(t *testing.T) {
	c := newU64()
	if _, had := c.Swap(7, 1); had {
		t.Fatal("Swap on empty trie reported a previous value")
	}
	prev, had := c.Swap(7, 2)
	if !had || prev != 1 {
		t.Fatalf("Swap = %d,%v; want 1,true", prev, had)
	}
	v, _ := c.Lookup(7)
	if v != 2 {
		t.Fatalf("Lookup after Swap = %d; want 2", v)
	}
}

func TestFullHashCollisionsUseLNodes(t *testing.T) {
	// A constant hasher forces every key through the l-node path.
	c := New[uint64, string](func(uint64) uint64 { return 42 })
	for i := uint64(0); i < 50; i++ {
		c.Insert(i, fmt.Sprint(i))
	}
	for i := uint64(0); i < 50; i++ {
		v, found := c.Lookup(i)
		if !found || v != fmt.Sprint(i) {
			t.Fatalf("collision Lookup(%d) = %q,%v", i, v, found)
		}
	}
	if c.Len() != 50 {
		t.Fatalf("Len = %d", c.Len())
	}
	// Overwrite inside the l-node.
	prev, had := c.Swap(7, "seven")
	if !had || prev != "7" {
		t.Fatalf("collision Swap = %q,%v", prev, had)
	}
	if v, found := c.Lookup(7); !found || v != "seven" {
		t.Fatalf("collision Lookup(7) after Swap = %q,%v", v, found)
	}
	if c.Len() != 50 {
		t.Fatalf("Len after Swap = %d, want 50", c.Len())
	}
}

func TestPartialCollisionsNest(t *testing.T) {
	// Hash preserving only high bits forces deep nesting before divergence.
	c := New[uint64, uint64](func(k uint64) uint64 { return k << 55 })
	for i := uint64(0); i < 128; i++ {
		c.Insert(i, i)
	}
	for i := uint64(0); i < 128; i++ {
		v, found := c.Lookup(i)
		if !found || v != i {
			t.Fatalf("nested Lookup(%d) = %d,%v", i, v, found)
		}
	}
	if c.Len() != 128 {
		t.Fatalf("Len = %d, want 128", c.Len())
	}
}

func TestSnapshotIsolation(t *testing.T) {
	c := newU64()
	for i := uint64(0); i < 100; i++ {
		c.Insert(i, i)
	}
	snap := c.ReadOnlySnapshot()
	// Mutate the original: overwrites and inserts.
	for i := uint64(0); i < 100; i++ {
		c.Insert(i, i+1000)
	}
	for i := uint64(100); i < 200; i++ {
		c.Insert(i, i)
	}
	// The snapshot still sees the original state.
	for i := uint64(0); i < 100; i++ {
		v, found := snap.Lookup(i)
		if !found || v != i {
			t.Fatalf("snapshot Lookup(%d) = %d,%v; want %d,true", i, v, found, i)
		}
	}
	if _, found := snap.Lookup(150); found {
		t.Fatal("snapshot sees a key inserted after it was taken")
	}
	if snap.Len() != 100 {
		t.Fatalf("snapshot Len = %d, want 100", snap.Len())
	}
	// The live trie sees the new state.
	if v, _ := c.Lookup(60); v != 1060 {
		t.Fatalf("live Lookup(60) = %d, want 1060", v)
	}
	if _, found := c.Lookup(150); !found {
		t.Fatal("live trie lost a key inserted after the snapshot")
	}
}

func TestReadOnlySnapshotPanicsOnWrite(t *testing.T) {
	c := newU64()
	snap := c.ReadOnlySnapshot()
	defer func() {
		if recover() == nil {
			t.Fatal("Insert on read-only snapshot did not panic")
		}
	}()
	snap.Insert(1, 1)
}

func TestSnapshotOfSnapshot(t *testing.T) {
	c := newU64()
	c.Insert(1, 1)
	s1 := c.ReadOnlySnapshot()
	c.Insert(2, 2)
	s2 := c.ReadOnlySnapshot()
	c.Insert(3, 3)
	if _, found := s1.Lookup(2); found {
		t.Fatal("older snapshot sees a later insert")
	}
	if _, found := s2.Lookup(2); !found {
		t.Fatal("newer snapshot lost an earlier insert")
	}
	if _, found := s2.Lookup(3); found {
		t.Fatal("newer snapshot sees a later insert")
	}
	if s2.ReadOnlySnapshot() != s2 {
		t.Fatal("read-only snapshot of a read-only snapshot should be itself")
	}
}

func TestIterateEarlyStop(t *testing.T) {
	c := newU64()
	for i := uint64(0); i < 100; i++ {
		c.Insert(i, i)
	}
	n := 0
	c.Iterate(func(uint64, uint64) bool { n++; return n < 10 })
	if n != 10 {
		t.Fatalf("early stop visited %d", n)
	}
}

func TestIterateSeesAllBindings(t *testing.T) {
	c := newU64()
	want := map[uint64]uint64{}
	for i := uint64(0); i < 777; i++ {
		c.Insert(i, i*3)
		want[i] = i * 3
	}
	got := map[uint64]uint64{}
	c.Iterate(func(k, v uint64) bool { got[k] = v; return true })
	if len(got) != len(want) {
		t.Fatalf("Iterate visited %d bindings, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("Iterate got[%d] = %d, want %d", k, got[k], v)
		}
	}
}

func TestStringKeys(t *testing.T) {
	hasher := func(s string) uint64 {
		h := uint64(14695981039346656037)
		for i := 0; i < len(s); i++ {
			h = (h ^ uint64(s[i])) * 1099511628211
		}
		return h
	}
	c := New[string, int](hasher)
	words := []string{"join", "filter", "scan", "project", "aggregate", ""}
	for i, w := range words {
		c.Insert(w, i)
	}
	for i, w := range words {
		if v, found := c.Lookup(w); !found || v != i {
			t.Fatalf("Lookup(%q) = %d,%v", w, v, found)
		}
	}
}

// TestQuickAgainstMap drives random operation sequences and compares the
// trie against a reference map, including across snapshots.
func TestQuickAgainstMap(t *testing.T) {
	f := func(ops []uint16, seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := newU64()
		ref := map[uint64]uint64{}
		for _, op := range ops {
			k := uint64(op % 97) // small key space to exercise collisions/overwrites
			switch rng.Intn(4) {
			case 0, 1:
				v := rng.Uint64()
				c.Insert(k, v)
				ref[k] = v
			case 2:
				gotV, gotOK := c.Lookup(k)
				wantV, wantOK := ref[k]
				if gotOK != wantOK || (gotOK && gotV != wantV) {
					return false
				}
			case 3:
				v := rng.Uint64()
				gotV, gotOK := c.Swap(k, v)
				wantV, wantOK := ref[k]
				ref[k] = v
				if gotOK != wantOK || (gotOK && gotV != wantV) {
					return false
				}
			}
		}
		if c.Len() != len(ref) {
			return false
		}
		snap := c.ReadOnlySnapshot()
		for k, v := range ref {
			if got, ok := snap.Lookup(k); !ok || got != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestConcurrentInsertLookup(t *testing.T) {
	c := newU64()
	const (
		goroutines = 8
		perG       = 2000
	)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			base := uint64(g * perG)
			for i := uint64(0); i < perG; i++ {
				c.Insert(base+i, base+i)
			}
			for i := uint64(0); i < perG; i++ {
				if v, found := c.Lookup(base + i); !found || v != base+i {
					t.Errorf("goroutine %d lost key %d", g, base+i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if got := c.Len(); got != goroutines*perG {
		t.Fatalf("Len = %d, want %d", got, goroutines*perG)
	}
}

func TestConcurrentMixedWorkload(t *testing.T) {
	c := newU64()
	const keys = 256
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Writers insert and swap on a shared key space.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 3000; i++ {
				k := uint64(rng.Intn(keys))
				if rng.Intn(2) == 0 {
					c.Insert(k, k*2)
				} else if prev, had := c.Swap(k, k*2); had && prev != k*2 {
					t.Errorf("Swap(%d) replaced torn value %d", k, prev)
					return
				}
			}
		}(int64(g))
	}
	// Readers check the invariant: any observed value is consistent.
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for k := uint64(0); k < keys; k++ {
					if v, found := c.Lookup(k); found && v != k*2 {
						t.Errorf("Lookup(%d) observed torn value %d", k, v)
						return
					}
				}
			}
		}()
	}
	// Snapshotters take consistent snapshots under fire.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				snap := c.ReadOnlySnapshot()
				n1 := snap.Len()
				n2 := snap.Len()
				if n1 != n2 {
					t.Errorf("snapshot size changed between reads: %d then %d", n1, n2)
					return
				}
			}
		}()
	}
	// Stop the readers, then wait for everyone.
	close(stop)
	wg.Wait()
}

func TestConcurrentSnapshotConsistencyUnderInserts(t *testing.T) {
	c := newU64()
	for i := uint64(0); i < 1000; i++ {
		c.Insert(i, i)
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := uint64(1000); i < 4000; i++ {
			c.Insert(i, i)
		}
	}()
	errs := make(chan error, 64)
	go func() {
		defer wg.Done()
		for j := 0; j < 40; j++ {
			snap := c.ReadOnlySnapshot()
			// Original 1000 keys must always be visible and correct.
			for i := uint64(0); i < 1000; i++ {
				if v, found := snap.Lookup(i); !found || v != i {
					errs <- fmt.Errorf("snapshot %d lost key %d", j, i)
					return
				}
			}
			// The snapshot size must be frozen.
			if a, b := snap.Len(), snap.Len(); a != b {
				errs <- fmt.Errorf("snapshot %d size moved: %d -> %d", j, a, b)
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
