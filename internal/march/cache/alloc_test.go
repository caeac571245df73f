package cache

// Allocation gate for the simulator's innermost loop: a hierarchy walk
// of Cache.Access calls must not allocate, hit or miss. A regression here multiplies GC work by
// the millions of accesses per simulated classification.

import (
	"testing"

	"repro/internal/march/mem"
	"repro/internal/raceinfo"
)

func TestHierarchyAccessZeroAlloc(t *testing.T) {
	if raceinfo.Enabled {
		t.Skip("allocation counts are perturbed under -race")
	}
	h, err := NewHierarchy(
		Config{Name: "L1D", Size: 4 << 10, LineSize: 64, Assoc: 4, Policy: TreePLRU},
		Config{Name: "L2", Size: 16 << 10, LineSize: 64, Assoc: 4, Policy: TreePLRU},
		Config{Name: "LLC", Size: 32 << 10, LineSize: 64, Assoc: 8, Policy: LRU},
	)
	if err != nil {
		t.Fatal(err)
	}
	// Hit path (hot line).
	walk(h, 0x1000, false)
	if allocs := testing.AllocsPerRun(1000, func() { walk(h, 0x1000, false) }); allocs != 0 {
		t.Fatalf("hierarchy walk hit allocates %v/op, want 0", allocs)
	}
	// Miss/evict path (strided sweep larger than the LLC).
	i := 0
	if allocs := testing.AllocsPerRun(2000, func() {
		walk(h, mem.Addr(i*64), i%5 == 0)
		i++
	}); allocs != 0 {
		t.Fatalf("hierarchy walk miss allocates %v/op, want 0", allocs)
	}
}
