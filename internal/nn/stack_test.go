package nn

import (
	"math/rand"
	"testing"
)

// TestLoweringsMatchReference: every Stack lowering (the paper
// architectures, the default zoo's members and random members) is
// accepted exactly where its reference builder builds, builds the same
// layers and weight bits from the same seed, and registers with the
// metadata the old specs set by hand. Random specs also consume the same
// draws as the reference generator, which keeps GenerateZoo's
// resampling, and with it every generated zoo, unchanged.
func TestLoweringsMatchReference(t *testing.T) {
	seed := int64(0)
	same := func(what string, got *Network, gotErr error, want *Network, wantErr error) bool {
		t.Helper()
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("%s: error %v, reference error %v", what, gotErr, wantErr)
		}
		if wantErr != nil {
			return false
		}
		if err := sameNetwork(got, want); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		return true
	}
	for _, a := range []Arch{
		MNISTArch(), CIFARArch(),
		{Name: "one class", InH: 12, InW: 12, InC: 1, Conv1: 2, Conv2: 2, Kernel: 3, Classes: 1},
		{Name: "zero kernel", InH: 12, InW: 12, InC: 1, Conv1: 2, Conv2: 2, Kernel: 0, Classes: 3},
		{Name: "conv2 does not fit", InH: 12, InW: 12, InC: 1, Conv1: 2, Conv2: 2, Kernel: 6, Classes: 3},
		{Name: "no input", InH: 0, InW: 12, InC: 1, Conv1: 2, Conv2: 2, Kernel: 3, Classes: 3},
	} {
		seed++
		got, gotErr := Build(a, rand.New(rand.NewSource(seed)))
		want, wantErr := referenceBuild(a, rand.New(rand.NewSource(seed)))
		same(a.Name, got, gotErr, want, wantErr)
	}

	// spec checks one registered spec against its reference: acceptance,
	// metadata and, when it builds, the network.
	spec := func(shape [3]int, s Spec, r referenceSpec) bool {
		t.Helper()
		seed++
		if s.Name != r.Name {
			t.Fatalf("%v: spec %q, reference %q", shape, s.Name, r.Name)
		}
		z := NewZoo()
		regErr := z.Register(s)
		want, wantErr := r.Build(rand.New(rand.NewSource(seed)))
		var got *Network
		if regErr == nil {
			var err error
			if got, err = z.Build(0, seed); err != nil {
				t.Fatalf("%v %s: registered but does not build: %v", shape, s.Name, err)
			}
		}
		if !same(s.Name, got, regErr, want, wantErr) {
			return false
		}
		info := z.Infos()[0]
		old := SpecInfo{ID: 0, Name: r.Name, Family: r.Family, Depth: r.Depth, Width: r.Width, Pool: r.Pool, Layers: len(want.Layers)}
		if info != old {
			t.Fatalf("%v %s: derived %+v, hand-set %+v", shape, s.Name, info, old)
		}
		return true
	}
	for _, shape := range [][3]int{{28, 28, 1}, {32, 32, 3}} {
		z, err := DefaultZoo(shape[0], shape[1], shape[2], 10)
		if err != nil {
			t.Fatal(err)
		}
		refs := referenceDefaultZoo(shape[0], shape[1], shape[2], 10)
		if z.Len() != len(refs) {
			t.Fatalf("%v: %d specs, reference %d", shape, z.Len(), len(refs))
		}
		for i, r := range refs {
			s := Spec{Name: z.infos[i].Name, Stack: z.stacks[i]}
			if !spec(shape, s, r) {
				t.Fatalf("%v %s: default zoo member does not build", shape, r.Name)
			}
		}
	}

	const draws = 170 // per shape
	built := 0
	for _, shape := range [][3]int{{28, 28, 1}, {32, 32, 3}, {8, 8, 1}} {
		rng, refRNG := rand.New(rand.NewSource(27)), rand.New(rand.NewSource(27))
		for range draws {
			s := RandomSpec(rng, shape[0], shape[1], shape[2], 10)
			r := referenceRandomSpec(refRNG, shape[0], shape[1], shape[2], 10)
			if spec(shape, s, r) {
				built++
			}
		}
		if rng.Int63() != refRNG.Int63() {
			t.Fatalf("%v: random specs consumed different draws than the reference", shape)
		}
	}
	if built < 20 || built > 3*draws-20 {
		t.Fatalf("%d of %d random specs built; the draws must cover both outcomes", built, 3*draws)
	}
}
