package march

import (
	"testing"

	"repro/internal/march/mem"
)

func TestDefaultTLBGeometry(t *testing.T) {
	tlb := DefaultTLB()
	cfg := tlb.Config()
	if cfg.LineSize != 4096 {
		t.Fatalf("TLB page size = %d, want 4096", cfg.LineSize)
	}
	if cfg.Size/cfg.LineSize != 64 {
		t.Fatalf("TLB entries = %d, want 64", cfg.Size/cfg.LineSize)
	}
}

func TestTLBCountsTranslations(t *testing.T) {
	e := newTestEngine(t)
	// Two accesses in the same page: one TLB miss, one hit.
	e.Load(0x10000, 4)
	e.Load(0x10800, 4)
	c := e.Counts()
	if c.Get(EvDTLBLoads) != 2 {
		t.Fatalf("dTLB loads = %d, want 2", c.Get(EvDTLBLoads))
	}
	if c.Get(EvDTLBLoadMisses) != 1 {
		t.Fatalf("dTLB misses = %d, want 1", c.Get(EvDTLBLoadMisses))
	}
	// A different page misses again.
	e.Load(0x20000, 4)
	if got := e.Counts().Get(EvDTLBLoadMisses); got != 2 {
		t.Fatalf("dTLB misses = %d, want 2", got)
	}
}

func TestTLBMissCostsCycles(t *testing.T) {
	// Same cache line footprint, different page spread: page-crossing
	// traffic must cost more cycles via page walks.
	samePage, err := NewEngine(Config{})
	if err != nil {
		t.Fatal(err)
	}
	manyPages, err := NewEngine(Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		samePage.Load(0x5000, 4)
		manyPages.Load(mem.Addr(0x5000+uint64(i%128)*4096), 4)
	}
	if manyPages.Counts().Get(EvCycles) <= samePage.Counts().Get(EvCycles) {
		t.Fatal("page walks did not cost cycles")
	}
}

func TestExtendedEventsConsistency(t *testing.T) {
	e := newTestEngine(t)
	for i := 0; i < 500; i++ {
		e.Load(mem.Addr(uint64(i)*64), 4)
	}
	c := e.Counts()
	// L1 sees every access; deeper structures see no more than that.
	if c.Get(EvL1DLoads) != 500 {
		t.Fatalf("L1 loads = %d, want 500", c.Get(EvL1DLoads))
	}
	if c.Get(EvL1DLoadMisses) > c.Get(EvL1DLoads) {
		t.Fatal("L1 misses exceed loads")
	}
	if c.Get(EvLLCLoads) > c.Get(EvL1DLoadMisses) {
		t.Fatal("LLC loads exceed L1 misses")
	}
	// The LLC alias events agree with the Figure 2(b) names.
	if c.Get(EvLLCLoads) != c.Get(EvCacheReferences) || c.Get(EvLLCLoadMisses) != c.Get(EvCacheMisses) {
		t.Fatal("LLC alias events disagree with cache-references/misses")
	}
	if c.Get(EvDTLBLoads) != 500 {
		t.Fatalf("dTLB loads = %d, want 500", c.Get(EvDTLBLoads))
	}
}

func TestColdResetDropsTLB(t *testing.T) {
	e := newTestEngine(t)
	e.Load(0x9000, 4)
	e.ColdReset()
	e.Load(0x9000, 4)
	if e.Counts().Get(EvDTLBLoadMisses) != 1 {
		t.Fatal("ColdReset kept TLB contents")
	}
}

func TestBackgroundTraffic(t *testing.T) {
	e := newTestEngine(t)
	e.Background(1000, 200, 10, 50, 5)
	c := e.Counts()
	if c.Get(EvInstructions) != 1200 {
		t.Fatalf("instructions = %d, want 1200 (ops+branches)", c.Get(EvInstructions))
	}
	if c.Get(EvBranches) != 200 || c.Get(EvBranchMisses) != 10 {
		t.Fatalf("branches/misses = %d/%d", c.Get(EvBranches), c.Get(EvBranchMisses))
	}
	if c.Get(EvCacheReferences) != 50 || c.Get(EvCacheMisses) != 5 {
		t.Fatalf("refs/misses = %d/%d", c.Get(EvCacheReferences), c.Get(EvCacheMisses))
	}
	// Clamping: misses cannot exceed refs, branch misses cannot exceed
	// branches.
	e2 := newTestEngine(t)
	e2.Background(0, 5, 50, 10, 100)
	c2 := e2.Counts()
	if c2.Get(EvBranchMisses) > c2.Get(EvBranches) {
		t.Fatal("branch misses exceed branches")
	}
	if c2.Get(EvCacheMisses) > c2.Get(EvCacheReferences) {
		t.Fatal("cache misses exceed references")
	}
	// Background stalls must show up in cycles.
	if c.Get(EvCycles) <= 1200 {
		t.Fatalf("background penalties missing from cycles: %d", c.Get(EvCycles))
	}
}
