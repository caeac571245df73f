package hpc

// Allocation gate for the measurement path: in steady state (a reused
// Profile whose keys exist after the first call), MeasureOnceInto must not
// allocate — the collection pipeline calls it once per monitored
// classification.

import (
	"testing"

	"repro/internal/march"
	"repro/internal/raceinfo"
)

func TestMeasureOnceIntoZeroAllocSteadyState(t *testing.T) {
	if raceinfo.Enabled {
		t.Skip("allocation counts are perturbed under -race")
	}
	// Include the noise model: the steady-state guarantee must hold on the
	// exact configuration campaigns measure with.
	eng, err := march.NewEngine(march.Config{Noise: march.DefaultNoise(3)})
	if err != nil {
		t.Fatal(err)
	}
	pmu, err := NewPMU(eng, DefaultCounters)
	if err != nil {
		t.Fatal(err)
	}
	if err := pmu.Program(march.EvCacheMisses, march.EvBranches); err != nil {
		t.Fatal(err)
	}
	prof := make(Profile, 2)
	work := func() { eng.Ops(100) }
	// First call populates the map keys.
	if err := pmu.MeasureOnceInto(prof, work); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		if err := pmu.MeasureOnceInto(prof, work); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("MeasureOnceInto steady state allocates %v/op, want 0", allocs)
	}
}

func TestMeasureIntoMatchesMeasure(t *testing.T) {
	// The Into form must observe exactly what Measure observes (same
	// scaling, same noise stream consumption).
	build := func() (*march.Engine, *PMU) {
		eng, err := march.NewEngine(march.Config{Noise: march.DefaultNoise(9)})
		if err != nil {
			t.Fatal(err)
		}
		pmu, err := NewPMU(eng, 2)
		if err != nil {
			t.Fatal(err)
		}
		if err := pmu.Program(march.EvInstructions, march.EvBranches, march.EvCycles); err != nil {
			t.Fatal(err)
		}
		return eng, pmu
	}
	engA, pmuA := build()
	profA, err := pmuA.Measure(4, func(s int) { engA.Ops(uint64(100 * (s + 1))) })
	if err != nil {
		t.Fatal(err)
	}
	engB, pmuB := build()
	profB := Profile{}
	if err := pmuB.MeasureInto(profB, 4, func(s int) { engB.Ops(uint64(100 * (s + 1))) }); err != nil {
		t.Fatal(err)
	}
	if len(profA) != len(profB) {
		t.Fatalf("profile sizes differ: %d vs %d", len(profA), len(profB))
	}
	for e, v := range profA {
		if profB[e] != v {
			t.Fatalf("event %s: Measure=%v MeasureInto=%v", e, v, profB[e])
		}
	}
}
