package march

// Equivalence and allocation guards for the range accesses and the
// engine's same-line fast path: every batched form must leave the engine —
// counters, cache contents, TLB, predictor — exactly where the
// element-by-element form leaves it. Wall-clock is the only thing allowed
// to change.

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/march/cache"
	"repro/internal/march/mem"
	"repro/internal/obs"
	"repro/internal/raceinfo"
)

// simEngine builds an engine on the small hierarchy the reproduction
// measures with (misses and evictions are plentiful, so divergence in the
// replacement fast paths cannot hide).
func simEngine(t *testing.T) *Engine {
	t.Helper()
	h, err := cache.NewHierarchy(
		cache.Config{Name: "L1D", Size: 4 << 10, LineSize: 64, Assoc: 4, Policy: cache.TreePLRU},
		cache.Config{Name: "L2", Size: 16 << 10, LineSize: 64, Assoc: 4, Policy: cache.TreePLRU},
		cache.Config{Name: "LLC", Size: 32 << 10, LineSize: 64, Assoc: 8, Policy: cache.LRU},
	)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(Config{Hierarchy: h})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// engineState compares every observable of two engines.
func engineState(t *testing.T, a, b *Engine, label string) {
	t.Helper()
	if ac, bc := a.Counts(), b.Counts(); ac != bc {
		t.Fatalf("%s: counts diverged:\n  batched %v\n  element %v", label, ac, bc)
	}
	for i := range a.Hierarchy().Levels {
		if as, bs := a.Hierarchy().Levels[i].Stats(), b.Hierarchy().Levels[i].Stats(); as != bs {
			t.Fatalf("%s: level %d stats diverged: %+v vs %+v", label, i, as, bs)
		}
	}
	if as, bs := a.tlb.Stats(), b.tlb.Stats(); as != bs {
		t.Fatalf("%s: TLB stats diverged: %+v vs %+v", label, as, bs)
	}
}

func TestLoadRangeMatchesIndividualLoads(t *testing.T) {
	cases := []struct {
		name  string
		base  mem.Addr
		elem  uint64
		count int
	}{
		{"aligned4B", 0x1000, 4, 300},
		{"midLineStart", 0x1030, 4, 100},
		{"unalignedCrossing", 0x103c, 8, 64}, // every 8th element straddles lines
		{"elem8", 0x2000, 8, 200},
		{"wholeLines", 0x4000, 64, 40},
		{"biggerThanLine", 0x8000, 160, 16},
		{"pageCrossing", 0xff0, 4, 2048}, // walks across several 4 KiB pages
		{"zeroElem", 0x5000, 0, 10},
		{"single", 0x6000, 4, 1},
		{"empty", 0x7000, 4, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, write := range []bool{false, true} {
				a, b := simEngine(t), simEngine(t)
				// Warm both engines identically so the ranges hit a
				// non-trivial cache state.
				for i := 0; i < 200; i++ {
					a.Load(mem.Addr(i*96), 4)
					b.Load(mem.Addr(i*96), 4)
				}
				if write {
					a.StoreRange(tc.base, tc.elem, tc.count)
					for i := 0; i < tc.count; i++ {
						b.Store(tc.base+mem.Addr(uint64(i)*tc.elem), tc.elem)
					}
				} else {
					a.LoadRange(tc.base, tc.elem, tc.count)
					for i := 0; i < tc.count; i++ {
						b.Load(tc.base+mem.Addr(uint64(i)*tc.elem), tc.elem)
					}
				}
				engineState(t, a, b, tc.name)
			}
		})
	}
}

// invalidate drops every cache level's contents, keeping the counters.
func invalidate(e *Engine) {
	for _, lv := range e.Hierarchy().Levels {
		lv.Invalidate()
	}
}

// TestBranchRunMatchesIndividualBranches: BranchRun(pc, taken, n) leaves
// the counters and stall cycles exactly where n Branch(pc, taken) calls
// leave them, runs after runs on one warm engine (no Ring attached).
func TestBranchRunMatchesIndividualBranches(t *testing.T) {
	lengths := []uint64{0, 1, 2, 3, 5, 12, 13, 40, 700}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		run, each := simEngine(t), simEngine(t)
		for step := 0; step < 150; step++ {
			pc := 0x400000 + uint64(rng.Intn(32))*4
			taken := rng.Intn(3) != 0
			n := lengths[rng.Intn(len(lengths))]
			run.BranchRun(pc, taken, n)
			for i := uint64(0); i < n; i++ {
				each.Branch(pc, taken)
			}
			if run.Counts() != each.Counts() || run.StallCycles() != each.StallCycles() {
				t.Logf("seed %d step %d: BranchRun(%#x, %v, %d) diverged:\n  run  %v stall %d\n  each %v stall %d",
					seed, step, pc, taken, n, run.Counts(), run.StallCycles(), each.Counts(), each.StallCycles())
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestLoadRangeAfterInvalidate(t *testing.T) {
	// Invalidating mid-stream must not let the batched path replay hits on
	// dropped lines.
	a, b := simEngine(t), simEngine(t)
	a.LoadRange(0x1000, 4, 64)
	for i := 0; i < 64; i++ {
		b.Load(0x1000+mem.Addr(i*4), 4)
	}
	invalidate(a)
	invalidate(b)
	a.LoadRange(0x1000, 4, 64)
	for i := 0; i < 64; i++ {
		b.Load(0x1000+mem.Addr(i*4), 4)
	}
	engineState(t, a, b, "post-invalidate")
	// The re-walk after invalidation must re-miss once per line.
	if misses := a.Hierarchy().Levels[0].Stats().Misses; misses != 2*4 {
		t.Fatalf("L1 misses = %d, want 8 (4 lines, cold twice)", misses)
	}
}

func TestSameLineFastPathCounters(t *testing.T) {
	e := simEngine(t)
	const n = 100
	for i := 0; i < n; i++ {
		e.Load(0x9000, 4)
	}
	c := e.Counts()
	if c.Get(EvL1DLoads) != n {
		t.Fatalf("L1 loads = %d, want %d", c.Get(EvL1DLoads), n)
	}
	if c.Get(EvL1DLoadMisses) != 1 {
		t.Fatalf("L1 misses = %d, want 1 (fast path must still be one cold miss)", c.Get(EvL1DLoadMisses))
	}
	if c.Get(EvDTLBLoads) != n || c.Get(EvDTLBLoadMisses) != 1 {
		t.Fatalf("TLB loads/misses = %d/%d, want %d/1", c.Get(EvDTLBLoads), c.Get(EvDTLBLoadMisses), n)
	}
	// Invalidation must force the fast path to re-miss.
	invalidate(e)
	e.Load(0x9000, 4)
	if got := e.Counts().Get(EvL1DLoadMisses); got != 2 {
		t.Fatalf("post-invalidate L1 misses = %d, want 2", got)
	}
}

// TestEngineLoadCachedLineZeroAlloc is the allocation gate for the hot
// path: a cached-line load must not allocate.
func TestEngineLoadCachedLineZeroAlloc(t *testing.T) {
	if raceinfo.Enabled {
		t.Skip("allocation counts are perturbed under -race")
	}
	e := simEngine(t)
	e.Load(0x9000, 4)
	allocs := testing.AllocsPerRun(1000, func() {
		e.Load(0x9000, 4)
	})
	if allocs != 0 {
		t.Fatalf("Engine.Load on a cached line allocates %v/op, want 0", allocs)
	}
	allocs = testing.AllocsPerRun(1000, func() {
		e.LoadRange(0x9000, 4, 16)
	})
	if allocs != 0 {
		t.Fatalf("Engine.LoadRange allocates %v/op, want 0", allocs)
	}
}

// TestEngineBranchZeroAlloc is the allocation gate for the branch path:
// a warm Branch and a warm BranchRun must not allocate.
func TestEngineBranchZeroAlloc(t *testing.T) {
	if raceinfo.Enabled {
		t.Skip("allocation counts are perturbed under -race")
	}
	e := simEngine(t)
	e.Branch(0x40, true)
	e.BranchRun(0x80, false, 64)
	if allocs := testing.AllocsPerRun(1000, func() {
		e.Branch(0x40, true)
	}); allocs != 0 {
		t.Fatalf("Engine.Branch allocates %v/op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		e.BranchRun(0x80, false, 64)
	}); allocs != 0 {
		t.Fatalf("Engine.BranchRun allocates %v/op, want 0", allocs)
	}
}

// TestEngineObsHookZeroAlloc is the allocation gate for the telemetry
// hooks on the engine hot path: with no hot counters attached (the
// obs-off default) and with a HotCounters block attached, Load and
// Store must stay at 0 allocs/op — the hook is one nil check plus a
// plain integer increment, never an interface call or closure.
func TestEngineObsHookZeroAlloc(t *testing.T) {
	if raceinfo.Enabled {
		t.Skip("allocation counts are perturbed under -race")
	}
	e := simEngine(t)
	e.Load(0x9000, 4)
	for name, hot := range map[string]*obs.HotCounters{"nil": nil, "attached": {}} {
		e.SetHotCounters(hot)
		if allocs := testing.AllocsPerRun(1000, func() {
			e.Load(0x9000, 4)
			e.Store(0x9000, 4)
		}); allocs != 0 {
			t.Fatalf("%s hot counters: Load+Store allocate %v/op, want 0", name, allocs)
		}
	}
	e.SetHotCounters(nil)
}
