package march

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/march/cache"
	"repro/internal/march/mem"
)

func newTestEngine(t *testing.T) *Engine {
	t.Helper()
	e, err := NewEngine(Config{})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestEventStringAndParse(t *testing.T) {
	for _, e := range AllEvents() {
		got, err := ParseEvent(e.String())
		if err != nil {
			t.Fatalf("ParseEvent(%q): %v", e.String(), err)
		}
		if got != e {
			t.Fatalf("round trip %v -> %v", e, got)
		}
	}
	if _, err := ParseEvent("no-such-event"); err == nil {
		t.Fatal("ParseEvent accepted junk")
	}
	if Event(99).String() == "" {
		t.Fatal("unknown event has empty String")
	}
	if len(AllEvents()) != 8 {
		t.Fatalf("AllEvents (Figure 2(b) set) = %d events, want 8", len(AllEvents()))
	}
	if len(ExtendedEvents()) != NumEvents {
		t.Fatalf("ExtendedEvents covers %d of %d events", len(ExtendedEvents()), NumEvents)
	}
	for _, e := range ExtendedEvents() {
		if got, err := ParseEvent(e.String()); err != nil || got != e {
			t.Fatalf("extended event %v round trip failed: %v, %v", e, got, err)
		}
	}
}

func TestCountsSubAndGet(t *testing.T) {
	var a, b Counts
	a[EvCycles] = 100
	b[EvCycles] = 40
	d := a.Sub(b)
	if d.Get(EvCycles) != 60 {
		t.Fatalf("Sub = %d, want 60", d.Get(EvCycles))
	}
}

func TestLoadCountsInstructionsAndReferences(t *testing.T) {
	e := newTestEngine(t)
	e.Load(0x1000, 4)
	c := e.Counts()
	if c.Get(EvInstructions) != 1 {
		t.Fatalf("instructions = %d, want 1", c.Get(EvInstructions))
	}
	// Cold load misses every level → one LLC reference and one LLC miss.
	if c.Get(EvCacheReferences) != 1 || c.Get(EvCacheMisses) != 1 {
		t.Fatalf("LLC refs/misses = %d/%d, want 1/1", c.Get(EvCacheReferences), c.Get(EvCacheMisses))
	}
	// A hot load never reaches the LLC.
	e.Load(0x1000, 4)
	c = e.Counts()
	if c.Get(EvCacheReferences) != 1 {
		t.Fatalf("hot load reached LLC: refs = %d", c.Get(EvCacheReferences))
	}
}

func TestLoadSplitsAcrossLines(t *testing.T) {
	e := newTestEngine(t)
	// 8 bytes starting 4 before a line boundary touches two lines.
	e.Load(0x103c, 8)
	if got := e.Counts().Get(EvInstructions); got != 2 {
		t.Fatalf("split load retired %d instructions, want 2", got)
	}
	e2 := newTestEngine(t)
	e2.Load(0x1000, 256) // exactly 4 lines
	if got := e2.Counts().Get(EvInstructions); got != 4 {
		t.Fatalf("256B load retired %d instructions, want 4", got)
	}
}

func TestZeroSizeLoadStillRetires(t *testing.T) {
	e := newTestEngine(t)
	e.Load(0x0, 0)
	if e.Counts().Get(EvInstructions) != 1 {
		t.Fatal("zero-size load did not retire an instruction")
	}
}

func TestBranchCountsAndMispredicts(t *testing.T) {
	e := newTestEngine(t)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		e.Branch(0x40, rng.Intn(2) == 0) // random direction: ~50% misses
	}
	c := e.Counts()
	if c.Get(EvBranches) != 1000 {
		t.Fatalf("branches = %d, want 1000", c.Get(EvBranches))
	}
	if m := c.Get(EvBranchMisses); m < 300 || m > 700 {
		t.Fatalf("mispredicts = %d, want ~500 for random directions", m)
	}

	e2 := newTestEngine(t)
	for i := 0; i < 1000; i++ {
		e2.Branch(0x40, true)
	}
	if m := e2.Counts().Get(EvBranchMisses); m > 5 {
		t.Fatalf("constant branch mispredicted %d times", m)
	}
}

func TestPredictableBranchesBulk(t *testing.T) {
	e := newTestEngine(t)
	e.PredictableBranches(5000)
	c := e.Counts()
	if c.Get(EvBranches) != 5000 || c.Get(EvBranchMisses) != 0 {
		t.Fatalf("bulk branches = %d/%d, want 5000/0", c.Get(EvBranches), c.Get(EvBranchMisses))
	}
	if c.Get(EvInstructions) != 5000 {
		t.Fatalf("instructions = %d, want 5000", c.Get(EvInstructions))
	}
}

func TestOpsRetireInstructions(t *testing.T) {
	e := newTestEngine(t)
	e.Ops(123)
	if e.Counts().Get(EvInstructions) != 123 {
		t.Fatal("Ops did not retire instructions")
	}
}

func TestPadInjectsExactCounts(t *testing.T) {
	e := newTestEngine(t)
	before := e.Counts()
	e.PadExtended(PadSpec{Ops: 100, Branches: 40, BranchMisses: 7, LLCRefs: 30, LLCMisses: 12, StallCycles: 555})
	d := e.Counts().Sub(before)
	if d.Get(EvInstructions) != 140 {
		t.Fatalf("instructions delta = %d, want 140 (ops+branches)", d.Get(EvInstructions))
	}
	if d.Get(EvBranches) != 40 || d.Get(EvBranchMisses) != 7 {
		t.Fatalf("branch deltas = %d/%d, want 40/7", d.Get(EvBranches), d.Get(EvBranchMisses))
	}
	if d.Get(EvCacheReferences) != 30 || d.Get(EvCacheMisses) != 12 {
		t.Fatalf("LLC deltas = %d/%d, want 30/12", d.Get(EvCacheReferences), d.Get(EvCacheMisses))
	}
	// Cycle accounting is entirely the caller's: base CPI on the padded
	// instructions plus exactly the requested stall — no hidden penalties
	// (that is what lets the archid envelope pad equalize cycles exactly).
	wantCycles := uint64(float64(140)*e.timing.BaseCPI) + 555
	if d.Get(EvCycles) != wantCycles {
		t.Fatalf("cycles delta = %d, want %d", d.Get(EvCycles), wantCycles)
	}
	// Unlike Background, branchMisses are not clamped to branches: the
	// caller computes pads against a consistent envelope.
	e2 := newTestEngine(t)
	e2.PadExtended(PadSpec{Branches: 1, BranchMisses: 5})
	if got := e2.Counts().Get(EvBranchMisses); got != 5 {
		t.Fatalf("unclamped mispredict pad = %d, want 5", got)
	}
}

func TestCyclesReflectStalls(t *testing.T) {
	// A thrashing access pattern must cost more cycles per instruction
	// than an L1-resident one.
	hot := newTestEngine(t)
	for i := 0; i < 10000; i++ {
		hot.Load(0x1000, 4)
	}
	cold, err := NewEngine(Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10000; i++ {
		cold.Load(mem.Addr(uint64(i)*4096), 4) // new page every time
	}
	hotC, coldC := hot.Counts(), cold.Counts()
	if hotC.Get(EvInstructions) != coldC.Get(EvInstructions) {
		t.Fatal("instruction counts differ between scenarios")
	}
	if coldC.Get(EvCycles) <= hotC.Get(EvCycles)*2 {
		t.Fatalf("memory-bound cycles (%d) not clearly above cache-resident (%d)",
			coldC.Get(EvCycles), hotC.Get(EvCycles))
	}
}

func TestDerivedCycleRatios(t *testing.T) {
	e := newTestEngine(t)
	e.Ops(100000)
	c := e.Counts()
	cy := float64(c.Get(EvCycles))
	if rr := float64(c.Get(EvRefCycles)) / cy; rr < 0.9 || rr > 1.1 {
		t.Fatalf("ref-cycles ratio = %v", rr)
	}
	if br := float64(c.Get(EvBusCycles)) / cy; br < 0.3 || br > 0.5 {
		t.Fatalf("bus-cycles ratio = %v", br)
	}
}

func TestResetCountersKeepsWarmState(t *testing.T) {
	e := newTestEngine(t)
	e.Load(0x2000, 4)
	e.ResetCounters()
	if e.Counts() != (Counts{}) {
		t.Fatal("ResetCounters left nonzero counts")
	}
	// The line is still cached: a re-access is an L1 hit, so zero LLC refs.
	e.Load(0x2000, 4)
	if e.Counts().Get(EvCacheReferences) != 0 {
		t.Fatal("ResetCounters dropped cache contents")
	}
}

func TestColdResetDropsState(t *testing.T) {
	e := newTestEngine(t)
	e.Load(0x2000, 4)
	e.ColdReset()
	e.Load(0x2000, 4)
	if e.Counts().Get(EvCacheMisses) != 1 {
		t.Fatal("ColdReset kept cache contents")
	}
}

func TestNoiseModelApply(t *testing.T) {
	n := DefaultNoise(7)
	var c Counts
	c[EvCacheMisses] = 100000
	c[EvBranches] = 1000000
	orig := c
	n.Apply(&c)
	if c == orig {
		t.Fatal("noise did not perturb counts")
	}
	// Noise must stay small in relative terms.
	rel := float64(int64(c[EvBranches])-int64(orig[EvBranches])) / float64(orig[EvBranches])
	if rel > 0.05 || rel < -0.05 {
		t.Fatalf("branch noise %v too large", rel)
	}
}

func TestNoiseNilSafe(t *testing.T) {
	var n *NoiseModel
	var c Counts
	c[EvCycles] = 10
	n.Apply(&c)
	if c[EvCycles] != 10 {
		t.Fatal("nil noise modified counts")
	}
}

func TestSilentNoiseIsDeterministic(t *testing.T) {
	n := &NoiseModel{rng: rand.New(rand.NewSource(0))} // zero sigmas
	var c Counts
	c[EvCacheMisses] = 12345
	n.Apply(&c)
	if c[EvCacheMisses] != 12345 {
		t.Fatalf("silent noise changed counts: %d", c[EvCacheMisses])
	}
}

func TestNoisyCountsClampsAtZero(t *testing.T) {
	n := &NoiseModel{rng: rand.New(rand.NewSource(1))}
	n.FloorSigma[EvCacheMisses] = 1e9 // enormous absolute noise
	for i := 0; i < 50; i++ {
		var c Counts
		c[EvCacheMisses] = 10
		n.Apply(&c)
		if int64(c[EvCacheMisses]) < 0 {
			t.Fatal("noise produced negative count")
		}
	}
}

func TestEngineCustomComponents(t *testing.T) {
	h, err := cache.NewHierarchy(cache.Config{Name: "only", Size: 1024, LineSize: 64, Assoc: 2, Policy: cache.LRU})
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(Config{Hierarchy: h})
	if err != nil {
		t.Fatal(err)
	}
	if len(e.Hierarchy().Levels) != 1 {
		t.Fatal("custom hierarchy not used")
	}
	// One load that misses the only level (and the TLB): the memory and
	// page-walk penalties of the default timing, on one instruction.
	e.Load(0, 4)
	tm := DefaultTiming()
	if want := uint64(tm.BaseCPI) + tm.MemPenalty + tm.TLBMissPenalty; e.Counts().Get(EvCycles) != want {
		t.Fatalf("cycles = %d, want %d", e.Counts().Get(EvCycles), want)
	}
}

func TestArenaAccessible(t *testing.T) {
	e := newTestEngine(t)
	r, err := e.Arena().Alloc("weights", 1024)
	if err != nil {
		t.Fatal(err)
	}
	if uint64(r.Base)%64 != 0 {
		t.Fatal("arena region not line-aligned")
	}
}

func TestQuickCountsMonotone(t *testing.T) {
	// Counts never decrease as more work is simulated.
	f := func(seed int64) bool {
		e, err := NewEngine(Config{})
		if err != nil {
			return false
		}
		rng := rand.New(rand.NewSource(seed))
		prev := e.Counts()
		for step := 0; step < 50; step++ {
			switch rng.Intn(4) {
			case 0:
				e.Load(mem.Addr(rng.Intn(1<<20)), uint64(1+rng.Intn(64)))
			case 1:
				e.Store(mem.Addr(rng.Intn(1<<20)), uint64(1+rng.Intn(64)))
			case 2:
				e.Branch(uint64(rng.Intn(256)*4), rng.Intn(2) == 0)
			case 3:
				e.Ops(uint64(rng.Intn(100)))
			}
			cur := e.Counts()
			for i := range cur {
				if cur[i] < prev[i] {
					return false
				}
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickInstructionAccounting(t *testing.T) {
	// instructions == loads+stores(line pieces) + branches + ops.
	f := func(seed int64) bool {
		e, err := NewEngine(Config{})
		if err != nil {
			return false
		}
		rng := rand.New(rand.NewSource(seed))
		var want uint64
		for step := 0; step < 200; step++ {
			switch rng.Intn(3) {
			case 0:
				// Aligned 4-byte access: exactly one piece.
				e.Load(mem.Addr(rng.Intn(1<<16)*64), 4)
				want++
			case 1:
				e.Branch(uint64(rng.Intn(64)*4), rng.Intn(2) == 0)
				want++
			case 2:
				n := uint64(rng.Intn(10))
				e.Ops(n)
				want += n
			}
		}
		return e.Counts().Get(EvInstructions) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
