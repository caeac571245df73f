package archid

import (
	"runtime/metrics"
	"testing"

	"repro/internal/raceinfo"
)

// heapAllocs is the process's cumulative heap allocation in bytes. The
// runtime/metrics read does not stop the world, unlike ReadMemStats.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// TestNetsAllocBound: the default zoo's victims are never trained, so
// building them allocates their weights and little else, not a gradient
// buffer per weight tensor. The counter is process-wide, so the least
// of three readings is taken.
func TestNetsAllocBound(t *testing.T) {
	if raceinfo.Enabled {
		t.Skip("allocation counts are perturbed under -race")
	}
	zoo := testZoo(t)
	nets, err := Nets(zoo, 1, SeedDomainWeights)
	if err != nil {
		t.Fatal(err)
	}
	params := 0
	for _, n := range nets {
		params += n.ParamCount()
	}
	bound := uint64(1.1 * float64(4*params))
	heapAllocs() // the first read sets up the metrics tables
	least := ^uint64(0)
	for range 3 {
		before := heapAllocs()
		if _, err := Nets(zoo, 1, SeedDomainWeights); err != nil {
			t.Fatal(err)
		}
		least = min(least, heapAllocs()-before)
		if least <= bound {
			break
		}
	}
	if least > bound {
		t.Fatalf("building the default zoo allocated %d bytes for %d parameter bytes, want at most %d", least, 4*params, bound)
	}
}
