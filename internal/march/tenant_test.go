package march

import (
	"testing"

	"repro/internal/march/mem"
)

// tenantVictim simulates one victim classification: a mix of loads,
// branches and arithmetic over a private working set.
func tenantVictim(e *Engine, base mem.Addr) {
	for i := 0; i < 200; i++ {
		e.Load(base+mem.Addr(uint64(i%32)*64), 4)
		e.Branch(0x400+uint64(i%7)*4, i%3 == 0)
		e.Ops(5)
	}
}

// tenantCo is the co-tenant's workload: a cache-hostile sweep over a
// disjoint region that evicts the victim's lines from the shared
// hierarchy.
func tenantCo(e *Engine, base mem.Addr) func() {
	return func() {
		for i := 0; i < 64; i++ {
			e.Load(base+mem.Addr(uint64(i)*4096), 4)
			e.Ops(2)
		}
	}
}

// runTenantInterval runs one measured victim interval with a co-tenant
// ring at the given quantum (0 = no ring) and returns the counters.
func runTenantInterval(t *testing.T, quantum uint64) Counts {
	t.Helper()
	e, err := NewEngine(Config{})
	if err != nil {
		t.Fatal(err)
	}
	victimBase, coBase := mem.Addr(mem.DefaultBase), mem.Addr(mem.DefaultBase+1<<20)
	var ring *Ring
	if quantum > 0 {
		ring = NewRing(e, quantum, tenantCo(e, coBase))
	}
	e.ColdReset()
	tenantVictim(e, victimBase)
	if ring != nil {
		ring.Drain()
		e.SetQuantumYield(0, nil)
	}
	return e.Counts()
}

// TestRingDeterministicInterleaving: the two-tenant interleaving must
// be a pure function of the quantum and the tenants' instruction
// streams — repeated runs produce bit-identical counters.
func TestRingDeterministicInterleaving(t *testing.T) {
	for _, quantum := range []uint64{64, 257, 1000} {
		ref := runTenantInterval(t, quantum)
		for rep := 0; rep < 3; rep++ {
			if got := runTenantInterval(t, quantum); got != ref {
				t.Fatalf("quantum=%d rep=%d: counters diverge across identical runs\n%v\nvs\n%v", quantum, rep, got, ref)
			}
		}
	}
}

// TestRingContentionVisible: co-tenant activity on the shared core must
// change the victim interval's counters — both the shared instruction
// clock and the contention-driven cache misses — or the monitored
// scenario has no channel to detect.
func TestRingContentionVisible(t *testing.T) {
	solo := runTenantInterval(t, 0)
	shared := runTenantInterval(t, 128)
	if shared[EvInstructions] <= solo[EvInstructions] {
		t.Fatalf("co-tenant retired no instructions on the shared core: solo %d, shared %d",
			solo[EvInstructions], shared[EvInstructions])
	}
	if shared[EvCacheReferences] <= solo[EvCacheReferences] {
		t.Fatalf("co-tenant sweep missing from shared LLC references: solo %d, shared %d",
			solo[EvCacheReferences], shared[EvCacheReferences])
	}
}

// TestRingQuantumChangesInterleaving: different quanta slice the same
// workloads differently, so the contended counters must differ — the
// quantum is a real knob, not a no-op.
func TestRingQuantumChangesInterleaving(t *testing.T) {
	a := runTenantInterval(t, 64)
	b := runTenantInterval(t, 1000)
	if a == b {
		t.Fatal("quantum 64 and 1000 produced identical counters; interleaving is not quantum-driven")
	}
}

// TestRingDrainWithoutStart: a ring whose co-tenant never ran (victim
// shorter than one quantum) drains as a no-op.
func TestRingDrainWithoutStart(t *testing.T) {
	e, err := NewEngine(Config{})
	if err != nil {
		t.Fatal(err)
	}
	ring := NewRing(e, 1<<20, func() { t.Fatal("co-tenant ran before a quantum expired") })
	e.ColdReset()
	e.Ops(10)
	ring.Drain()
	e.SetQuantumYield(0, nil)
	if got := e.Counts()[EvInstructions]; got != 10 {
		t.Fatalf("instructions = %d, want 10", got)
	}
}

// TestRingRepeatedIntervals: a ring drained and reused across several
// measured intervals (the per-run discipline of a monitored campaign)
// stays deterministic interval by interval.
func TestRingRepeatedIntervals(t *testing.T) {
	run := func() []Counts {
		e, err := NewEngine(Config{})
		if err != nil {
			t.Fatal(err)
		}
		ring := NewRing(e, 128, tenantCo(e, mem.Addr(mem.DefaultBase+1<<20)))
		var out []Counts
		for interval := 0; interval < 3; interval++ {
			e.ResetCounters()
			tenantVictim(e, mem.Addr(mem.DefaultBase))
			ring.Drain()
			out = append(out, e.Counts())
		}
		e.SetQuantumYield(0, nil)
		return out
	}
	ref := run()
	got := run()
	for i := range ref {
		if got[i] != ref[i] {
			t.Fatalf("interval %d diverges across identical campaigns", i)
		}
	}
}
