package nn

// Allocation gate for training: a warm replica owns every buffer a
// sample's forward and backward pass writes, so the per-sample path
// (forward, loss gradient, backward into a record slot, the ordered
// accumulate, and the inference forward) must not allocate.

import (
	"math/rand"
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
