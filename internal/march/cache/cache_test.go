package cache

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/march/mem"
)

func smallLRU(t *testing.T, size uint64, assoc int) *Cache {
	t.Helper()
	c, err := New(Config{Name: "t", Size: size, LineSize: 64, Assoc: assoc, Policy: LRU})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestConfigValidate(t *testing.T) {
	good := Config{Name: "ok", Size: 1024, LineSize: 64, Assoc: 2, Policy: LRU}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	cases := []Config{
		{Name: "badline", Size: 1024, LineSize: 48, Assoc: 2},
		{Name: "zeroline", Size: 1024, LineSize: 0, Assoc: 2},
		{Name: "badassoc", Size: 1024, LineSize: 64, Assoc: 0},
		{Name: "badsize", Size: 1000, LineSize: 64, Assoc: 2},
		{Name: "badsets", Size: 64 * 3 * 2, LineSize: 64, Assoc: 2}, // 3 sets
	}
	for _, cfg := range cases {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %s accepted", cfg.Name)
		}
	}
}

func TestPolicyString(t *testing.T) {
	names := map[Policy]string{LRU: "lru", TreePLRU: "tree-plru", FIFO: "fifo", Random: "random", Policy(9): "policy(9)"}
	for p, want := range names {
		if p.String() != want {
			t.Errorf("Policy(%d).String() = %q, want %q", int(p), p.String(), want)
		}
	}
}

func TestColdMissThenHit(t *testing.T) {
	c := smallLRU(t, 1024, 2)
	if c.Access(0x1000, false) {
		t.Fatal("cold access hit")
	}
	if !c.Access(0x1000, false) {
		t.Fatal("second access missed")
	}
	if !c.Access(0x1038, false) {
		t.Fatal("same-line access missed") // 0x1038 is in the same 64B line
	}
	st := c.Stats()
	if st.Accesses != 3 || st.Hits != 2 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want 3/2/1", st)
	}
}

func TestStatsInvariantHitsPlusMisses(t *testing.T) {
	c := smallLRU(t, 2048, 4)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		c.Access(mem.Addr(rng.Intn(1<<14)), rng.Intn(4) == 0)
	}
	st := c.Stats()
	if st.Hits+st.Misses != st.Accesses {
		t.Fatalf("hits+misses = %d, accesses = %d", st.Hits+st.Misses, st.Accesses)
	}
}

func TestLRUEviction(t *testing.T) {
	// Direct-mapped-ish scenario: 2-way set; three conflicting lines.
	// Cache: 2 sets × 2 ways × 64B = 256B.
	c := smallLRU(t, 256, 2)
	// Lines mapping to set 0: stride = 2 sets * 64 = 128.
	a, b, d := mem.Addr(0), mem.Addr(128), mem.Addr(256)
	c.Access(a, false) // miss
	c.Access(b, false) // miss
	c.Access(a, false) // hit; a is MRU
	c.Access(d, false) // miss; evicts b (LRU)
	if !c.Access(a, false) {
		t.Fatal("a should still be resident")
	}
	if c.Access(b, false) {
		t.Fatal("b should have been evicted")
	}
}

func TestFIFOEvictsInsertionOrder(t *testing.T) {
	c, err := New(Config{Name: "f", Size: 256, LineSize: 64, Assoc: 2, Policy: FIFO})
	if err != nil {
		t.Fatal(err)
	}
	a, b, d := mem.Addr(0), mem.Addr(128), mem.Addr(256)
	c.Access(a, false)
	c.Access(b, false)
	c.Access(a, false) // hit must NOT refresh FIFO order
	c.Access(d, false) // evicts a (first in)
	if c.Access(a, false) {
		t.Fatal("FIFO should have evicted a despite its recent hit")
	}
}

func TestTreePLRUSingleSetCyclesThroughWays(t *testing.T) {
	c, err := New(Config{Name: "p", Size: 64 * 4, LineSize: 64, Assoc: 4, Policy: TreePLRU})
	if err != nil {
		t.Fatal(err)
	}
	// One set, 4 ways; fill then alternate — PLRU must not evict the most
	// recently touched line.
	for i := 0; i < 4; i++ {
		c.Access(mem.Addr(i*64*1), false) // one set: set index bits are zero for stride 64? No: 1 set → mask 0.
	}
	// Touch way holding addr 0, then force an eviction.
	c.Access(0, false)
	c.Access(mem.Addr(4*64), false) // new line, evicts someone
	if !c.Access(0, false) {
		t.Fatal("tree-PLRU evicted the most recently used line")
	}
}

func TestRandomPolicyStillCorrectSet(t *testing.T) {
	c, err := New(Config{Name: "r", Size: 512, LineSize: 64, Assoc: 2, Policy: Random})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 2000; i++ {
		c.Access(mem.Addr(rng.Intn(4096)), false)
	}
	st := c.Stats()
	if st.Hits+st.Misses != st.Accesses {
		t.Fatal("random policy broke the accounting invariant")
	}
	if st.Hits == 0 {
		t.Fatal("random policy produced no hits on a reused working set")
	}
}

func TestWorkingSetFitsNoCapacityMisses(t *testing.T) {
	// A working set equal to cache size must only cold-miss.
	c := smallLRU(t, 4096, 4)
	lines := int(4096 / 64)
	for pass := 0; pass < 3; pass++ {
		for i := 0; i < lines; i++ {
			c.Access(mem.Addr(i*64), false)
		}
	}
	st := c.Stats()
	if st.Misses != uint64(lines) {
		t.Fatalf("misses = %d, want %d (cold only)", st.Misses, lines)
	}
}

func TestThrashingWorkingSet(t *testing.T) {
	// Working set 2× the cache with LRU and a sequential scan thrashes:
	// every access misses after warm-up.
	c := smallLRU(t, 1024, 2)
	lines := int(2 * 1024 / 64)
	for pass := 0; pass < 4; pass++ {
		for i := 0; i < lines; i++ {
			c.Access(mem.Addr(i*64), false)
		}
	}
	st := c.Stats()
	if rate := float64(st.Misses) / float64(st.Accesses); rate < 0.99 {
		t.Fatalf("miss rate = %.3f, want ~1.0 under LRU thrash", rate)
	}
}

func TestFlushAndResetStats(t *testing.T) {
	c := smallLRU(t, 1024, 2)
	c.Access(0, false)
	c.Access(0, false)
	c.ResetStats()
	if c.Stats().Accesses != 0 {
		t.Fatal("ResetStats did not clear counters")
	}
	if !c.Access(0, false) {
		t.Fatal("ResetStats must keep contents")
	}
	c.Flush()
	if c.Access(0, false) {
		t.Fatal("Flush must drop contents")
	}
}

func TestNextLinePrefetch(t *testing.T) {
	c, err := New(Config{Name: "pf", Size: 4096, LineSize: 64, Assoc: 4, Policy: LRU, NextLinePrefetch: true})
	if err != nil {
		t.Fatal(err)
	}
	c.Access(0, false) // miss, prefetches line 1
	if !c.Access(64, false) {
		t.Fatal("next line was not prefetched")
	}
	// Prefetch must not inflate the access count.
	if c.Stats().Accesses != 2 {
		t.Fatalf("accesses = %d, want 2", c.Stats().Accesses)
	}
}

func TestDirtyWriteTracking(t *testing.T) {
	c := smallLRU(t, 256, 2)
	c.Access(0, true)
	st := c.Stats()
	if st.Writes != 1 {
		t.Fatalf("writes = %d, want 1", st.Writes)
	}
}

// walk retries an access that misses level i at level i+1, the way the
// engine does, and returns the deepest level index that missed +1: 0 is
// an L1 hit, len(h.Levels) a last-level miss.
func walk(h *Hierarchy, addr mem.Addr, write bool) int {
	for i, lv := range h.Levels {
		if lv.Access(addr, write) {
			return i
		}
	}
	return len(h.Levels)
}

func TestHierarchyMissPath(t *testing.T) {
	h, err := NewHierarchy(
		Config{Name: "L1", Size: 256, LineSize: 64, Assoc: 2, Policy: LRU},
		Config{Name: "L2", Size: 1024, LineSize: 64, Assoc: 2, Policy: LRU},
	)
	if err != nil {
		t.Fatal(err)
	}
	if lvl := walk(h, 0, false); lvl != 2 {
		t.Fatalf("cold access resolved at level %d, want 2 (memory)", lvl)
	}
	if lvl := walk(h, 0, false); lvl != 0 {
		t.Fatalf("hot access resolved at level %d, want 0 (L1)", lvl)
	}
	// Evict from L1 only (working set > L1, < L2): expect L2 hits.
	for i := 0; i < 8; i++ {
		walk(h, mem.Addr(i*128), false)
	}
	if lvl := walk(h, 0, false); lvl != 1 {
		t.Fatalf("L1-evicted line resolved at level %d, want 1 (L2 hit)", lvl)
	}
	if h.Last().Config().Name != "L2" {
		t.Fatal("Last() returned wrong level")
	}
}

func TestNewHierarchyValidation(t *testing.T) {
	if _, err := NewHierarchy(); err == nil {
		t.Fatal("empty hierarchy accepted")
	}
	if _, err := NewHierarchy(Config{Name: "bad", Size: 100, LineSize: 64, Assoc: 2}); err == nil {
		t.Fatal("invalid level accepted")
	}
}

func TestDefaultHierarchyShape(t *testing.T) {
	h := DefaultHierarchy()
	if len(h.Levels) != 3 {
		t.Fatalf("levels = %d, want 3", len(h.Levels))
	}
	names := []string{"L1D", "L2", "LLC"}
	for i, lv := range h.Levels {
		if lv.Config().Name != names[i] {
			t.Fatalf("level %d = %s, want %s", i, lv.Config().Name, names[i])
		}
	}
}

// TestQuickLRUInclusionProperty: for LRU with identical set count, a cache
// with higher associativity never misses more on the same trace (the stack
// inclusion property of LRU).
func TestQuickLRUInclusionProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		// 16 sets fixed; assoc 2 vs 4.
		small, _ := New(Config{Name: "s", Size: 16 * 2 * 64, LineSize: 64, Assoc: 2, Policy: LRU})
		big, _ := New(Config{Name: "b", Size: 16 * 4 * 64, LineSize: 64, Assoc: 4, Policy: LRU})
		for i := 0; i < 3000; i++ {
			addr := mem.Addr(rng.Intn(1 << 13))
			small.Access(addr, false)
			big.Access(addr, false)
		}
		return big.Stats().Misses <= small.Stats().Misses
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickDeterminism: identical traces yield identical stats.
func TestQuickDeterminism(t *testing.T) {
	f := func(seed int64) bool {
		run := func() Stats {
			c, _ := New(Config{Name: "d", Size: 2048, LineSize: 64, Assoc: 4, Policy: TreePLRU})
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 2000; i++ {
				c.Access(mem.Addr(rng.Intn(1<<14)), rng.Intn(3) == 0)
			}
			return c.Stats()
		}
		return run() == run()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickAllPoliciesAccounting(t *testing.T) {
	f := func(seed int64, policyRaw uint8) bool {
		pol := Policy(int(policyRaw) % 4)
		c, err := New(Config{Name: "q", Size: 1024, LineSize: 64, Assoc: 4, Policy: pol})
		if err != nil {
			return false
		}
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 1000; i++ {
			c.Access(mem.Addr(rng.Intn(1<<12)), false)
		}
		st := c.Stats()
		return st.Hits+st.Misses == st.Accesses && st.Misses >= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
