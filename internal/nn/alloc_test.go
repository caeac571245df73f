package nn

// Allocation gates: a warm replica owns every buffer a sample's forward
// and backward pass writes, so the per-sample path (forward, loss
// gradient, backward into a record slot, the ordered accumulate, and the
// inference forward) must not allocate; and registering a zoo plans its
// stacks without drawing a weight.

import (
	"math/rand"
	"runtime/metrics"
	"testing"

	"repro/internal/raceinfo"
)

func TestReplicaSampleZeroAlloc(t *testing.T) {
	if raceinfo.Enabled {
		t.Skip("allocation counts are perturbed under -race")
	}
	for _, arch := range []Arch{MNISTArch(), CIFARArch()} {
		n, err := Build(arch, testRNG())
		if err != nil {
			t.Fatal(err)
		}
		reps, err := n.replicas(1, 2)
		if err != nil {
			t.Fatal(err)
		}
		r, g := reps[0], newGradients(n)
		in := make([]float32, arch.InH*arch.InW*arch.InC)
		rng := rand.New(rand.NewSource(5))
		for i := range in {
			in[i] = rng.Float32()
		}
		if allocs := testing.AllocsPerRun(20, func() {
			r.sample(1, in, 3)
			r.accumulate(1, g)
			r.predict(in)
		}); allocs != 0 {
			t.Fatalf("%s: per-sample training pass allocates %v times, want 0", arch.Name, allocs)
		}
	}
}

// heapAllocs is the process's cumulative heap allocation in bytes. The
// runtime/metrics read does not stop the world, unlike ReadMemStats.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// TestRegisterAllocBound: registration walks each stack's shapes and
// draws no weight, so building the default zoo allocates a few
// kilobytes; drawing its members' weights would take about 2 MB. The
// counter is process-wide, so the least of three readings is taken.
func TestRegisterAllocBound(t *testing.T) {
	if raceinfo.Enabled {
		t.Skip("allocation counts are perturbed under -race")
	}
	const bound = 64 << 10
	least := ^uint64(0)
	for range 3 {
		before := heapAllocs()
		_, err := DefaultZoo(28, 28, 1, 10)
		least = min(least, heapAllocs()-before)
		if err != nil {
			t.Fatal(err)
		}
		if least < bound {
			break
		}
	}
	if least >= bound {
		t.Fatalf("DefaultZoo(28, 28, 1, 10) allocated %d bytes, want under %d", least, bound)
	}
}
