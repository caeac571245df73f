package nn

import (
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

func TestDefaultZooRegistersDistinctArchitectures(t *testing.T) {
	z, err := DefaultZoo(28, 28, 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	if z.Len() < 6 {
		t.Fatalf("zoo has %d architectures, want >= 6", z.Len())
	}
	seenName := map[string]bool{}
	seenShape := map[[3]int]bool{} // (family-coded depth, width, layers) uniqueness proxy
	for i, s := range z.Infos() {
		if s.ID != i {
			t.Fatalf("spec %q has ID %d at position %d", s.Name, s.ID, i)
		}
		if seenName[s.Name] {
			t.Fatalf("duplicate name %q", s.Name)
		}
		seenName[s.Name] = true
		if s.Layers <= 0 || s.Depth <= 0 || s.Width <= 0 {
			t.Fatalf("spec %q missing metadata: %+v", s.Name, s)
		}
		key := [3]int{s.Depth, s.Width, s.Layers}
		if s.Family == "cnn" {
			key[0] += 100
		}
		if seenShape[key] {
			t.Fatalf("spec %q duplicates another architecture's shape %v", s.Name, key)
		}
		seenShape[key] = true
		byName, ok := z.ByName(s.Name)
		if !ok || byName.ID != s.ID {
			t.Fatalf("ByName(%q) = %+v, %v", s.Name, byName, ok)
		}
	}
	if _, ok := z.ByName("no-such-arch"); ok {
		t.Fatal("ByName resolved a non-existent spec")
	}
	if _, ok := z.ByID(z.Len()); ok {
		t.Fatal("ByID resolved an out-of-range id")
	}
}

func TestZooBuildDeterministic(t *testing.T) {
	z, err := DefaultZoo(28, 28, 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range z.Infos() {
		a, err := z.Build(s.ID, 42)
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		b, err := z.Build(s.ID, 42)
		if err != nil {
			t.Fatal(err)
		}
		if len(a.Layers) != s.Layers {
			t.Fatalf("%s: built %d layers, spec says %d", s.Name, len(a.Layers), s.Layers)
		}
		pa, pb := a.Params(), b.Params()
		if len(pa) != len(pb) {
			t.Fatalf("%s: param groups differ", s.Name)
		}
		for i := range pa {
			for j := range pa[i].Value.Data {
				if pa[i].Value.Data[j] != pb[i].Value.Data[j] {
					t.Fatalf("%s: same seed produced different weights (%s[%d])", s.Name, pa[i].Name, j)
				}
			}
		}
		c, err := z.Build(s.ID, 43)
		if err != nil {
			t.Fatal(err)
		}
		same := true
		pc := c.Params()
		for j := range pa[0].Value.Data {
			if pa[0].Value.Data[j] != pc[0].Value.Data[j] {
				same = false
				break
			}
		}
		if same {
			t.Fatalf("%s: different seeds produced identical first-layer weights", s.Name)
		}
	}
}

func TestZooNetworksForward(t *testing.T) {
	z, err := DefaultZoo(28, 28, 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	img := tensor.New(28, 28, 1)
	rng := rand.New(rand.NewSource(9))
	for i := range img.Data {
		img.Data[i] = float32(rng.Float64())
	}
	for _, s := range z.Infos() {
		net, err := z.Build(s.ID, 7)
		if err != nil {
			t.Fatal(err)
		}
		cls, probs, err := net.Predict(img)
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		if cls < 0 || cls >= 10 || probs.Len() != 10 {
			t.Fatalf("%s: prediction %d over %d probs", s.Name, cls, probs.Len())
		}
	}
}

func TestZooRegisterValidation(t *testing.T) {
	z := NewZoo()
	ok := Spec{Name: "ok", Stack: mlpStack(4, 4, 1, 2, []int{8})}
	if err := z.Register(Spec{Stack: ok.Stack}); err == nil {
		t.Fatal("unnamed spec accepted")
	}
	if err := z.Register(Spec{Name: "bad", Stack: mlpStack(0, 0, 0, 10, nil)}); err == nil {
		t.Fatal("unrealizable spec accepted")
	}
	if err := z.Register(ok); err != nil {
		t.Fatal(err)
	}
	if err := z.Register(ok); err == nil {
		t.Fatal("duplicate name accepted")
	}
	if _, err := z.Build(99, 1); err == nil {
		t.Fatal("Build of unknown id accepted")
	}
}

// TestStackWalkRules: every realizability rule of the walk refuses its
// stack, both when building and when registering, and a stack that
// breaks none builds.
func TestStackWalkRules(t *testing.T) {
	conv := func(out, k int) StackLayer { return StackLayer{Kind: "conv", Out: out, K: k} }
	dense := func(out int) StackLayer { return StackLayer{Kind: "dense", Out: out} }
	relu, pool := StackLayer{Kind: "relu"}, StackLayer{Kind: "pool"}
	on12 := func(layers ...StackLayer) Stack {
		return Stack{InH: 12, InW: 12, InC: 1, Classes: 4, Layers: layers}
	}
	for _, tc := range []struct {
		name  string
		stack Stack
	}{
		{"no input", Stack{InH: 0, InW: 12, InC: 1, Classes: 4, Layers: []StackLayer{dense(4)}}},
		{"one class", Stack{InH: 12, InW: 12, InC: 1, Classes: 1, Layers: []StackLayer{dense(4)}}},
		{"empty", on12()},
		{"conv after dense", on12(dense(8), conv(4, 3))},
		{"pool after dense", on12(dense(8), pool)},
		{"zero kernel", on12(conv(4, 0), dense(4))},
		{"oversized kernel", on12(conv(4, 13), dense(4))},
		{"zero channels", on12(conv(0, 3), dense(4))},
		{"zero width dense", on12(dense(0))},
		{"dense on a map pooled to nothing", on12(pool, pool, pool, pool, dense(4))},
		{"unknown kind", on12(StackLayer{Kind: "wat"})},
		{"output with no elements", on12(pool, pool, pool, pool)},
	} {
		if _, err := tc.stack.Build(testRNG()); err == nil {
			t.Errorf("%s: %+v built", tc.name, tc.stack)
		}
		if err := NewZoo().Register(Spec{Name: tc.name, Stack: tc.stack}); err == nil {
			t.Errorf("%s: %+v registered", tc.name, tc.stack)
		}
	}
	n, err := on12(conv(4, 3), relu, pool, dense(8), relu, dense(4)).Build(testRNG())
	if err != nil {
		t.Fatal(err)
	}
	// conv, relu, pool, flatten, dense, relu, dense.
	if len(n.Layers) != 7 {
		t.Fatalf("built %d layers, want 7", len(n.Layers))
	}
}
