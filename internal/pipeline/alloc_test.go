package pipeline

// Allocation gate for the stream seam: window emission runs once per
// window for the whole campaign, and in steady state — the
// streamDepth buffers allocated in the producer prologue circulating
// through the free ring — it must not allocate.

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/hpc"
	"repro/internal/march"
	"repro/internal/raceinfo"
)

// emitFixture builds a shardStream mid-campaign: recycled buffers in
// the free ring and a measured window ready to emit.
func emitFixture(batch int) (*shardStream, []march.Event, core.Window) {
	events := []march.Event{march.EvCacheMisses, march.EvBranches}
	ss := &shardStream{
		win:  make(chan core.Window, streamDepth),
		free: make(chan []hpc.Profile, streamDepth),
	}
	for d := 0; d < streamDepth; d++ {
		buf := make([]hpc.Profile, batch)
		for i := range buf {
			buf[i] = make(hpc.Profile, len(events))
		}
		ss.free <- buf
	}
	scratch := make([]hpc.Profile, batch)
	for i := range scratch {
		scratch[i] = hpc.Profile{march.EvCacheMisses: float64(i), march.EvBranches: float64(2 * i)}
	}
	return ss, events, core.Window{Shard: 0, Class: 1, Start: 0, Profiles: scratch}
}

func TestStreamEmitZeroAllocSteadyState(t *testing.T) {
	if raceinfo.Enabled {
		t.Skip("allocation counts are perturbed under -race")
	}
	ss, events, w := emitFixture(8)
	ctx := context.Background()
	if allocs := testing.AllocsPerRun(1000, func() {
		if err := ss.emit(ctx, events, w); err != nil {
			t.Fatal(err)
		}
		out := <-ss.win
		ss.free <- out.Profiles[:cap(out.Profiles)]
	}); allocs != 0 {
		t.Fatalf("stream emit steady state allocates %v/op, want 0", allocs)
	}
}

func BenchmarkStreamEmit(b *testing.B) {
	ss, events, w := emitFixture(8)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ss.emit(ctx, events, w); err != nil {
			b.Fatal(err)
		}
		out := <-ss.win
		ss.free <- out.Profiles[:cap(out.Profiles)]
	}
}
