package obs

// Allocation gate for the nil-recorder hooks. Instrumented packages call
// these unconditionally on hot paths — core.CollectShardProfiles arms
// hot counters per shard and counts every measured profile, the pipeline
// counts every window it cuts — so with telemetry off (nil *Recorder) the whole hook surface
// must cost one branch and zero allocations.

import (
	"testing"

	"repro/internal/raceinfo"
)

func TestNilRecorderHooksZeroAlloc(t *testing.T) {
	if raceinfo.Enabled {
		t.Skip("allocation counts are perturbed under -race")
	}
	var r *Recorder
	hooks := map[string]func(){
		// The counter adds per measured run and per cut window.
		"Add": func() { r.Add(CWindowsEmitted, 1); r.Add(CProfilesCollected, 1) },
		// The span pair wrapping each pipeline stage and shard.
		"Span":      func() { r.Span("pipeline", "collect").End() },
		"ShardSpan": func() { r.ShardSpan(3, 7, 2).End() },
		// Phase/mark updates on stage transitions.
		"SetPhase":  func() { r.SetPhase("collect") },
		"MarkExtra": func() { r.MarkExtra(0, "fabric", "tick", "") },
		// The per-shard hot-counter flush CollectShardProfiles defers.
		"FlushHot": func() { r.FlushHot(&HotCounters{Loads: 10, Stores: 4}) },
	}
	for name, fn := range hooks {
		if allocs := testing.AllocsPerRun(1000, fn); allocs != 0 {
			t.Errorf("nil-Recorder %s hook allocates %v/op, want 0", name, allocs)
		}
	}
}
