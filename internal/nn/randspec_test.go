package nn

import (
	"reflect"
	"testing"
)

func genNames(t *testing.T, cfg ZooGenConfig) []string {
	t.Helper()
	z, err := GenerateZoo(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, s := range z.Infos() {
		names = append(names, s.Name)
	}
	return names
}

func TestGenerateZooDeterministic(t *testing.T) {
	cfg := ZooGenConfig{InH: 28, InW: 28, InC: 1, Classes: 10, Size: 8, Seed: 41}
	a := genNames(t, cfg)
	b := genNames(t, cfg)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same config generated different zoos:\n%v\n%v", a, b)
	}
	if len(a) != 8 {
		t.Fatalf("generated %d specs, want 8", len(a))
	}
	seen := map[string]bool{}
	for _, n := range a {
		if seen[n] {
			t.Fatalf("duplicate spec %q in generated zoo", n)
		}
		seen[n] = true
	}
	c := genNames(t, ZooGenConfig{InH: 28, InW: 28, InC: 1, Classes: 10, Size: 8, Seed: 42})
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds generated identical zoos")
	}
}

func TestGenerateZooAvoidsNames(t *testing.T) {
	cfg := ZooGenConfig{InH: 28, InW: 28, InC: 1, Classes: 10, Size: 6, Seed: 7}
	train, err := GenerateZoo(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hold, err := GenerateZoo(ZooGenConfig{InH: 28, InW: 28, InC: 1, Classes: 10,
		Size: 6, Seed: 8, Avoid: train.Names()})
	if err != nil {
		t.Fatal(err)
	}
	trained := train.Names()
	for name := range hold.Names() {
		if trained[name] {
			t.Fatalf("avoided name %q regenerated", name)
		}
	}
}

// TestGenerateZooCoversKinds: zoos of size ≥ 2 must expose every
// observable layer kind (conv/relu/pool/dense), which the forced pooled
// CNN + MLP slots guarantee.
func TestGenerateZooCoversKinds(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		z, err := GenerateZoo(ZooGenConfig{InH: 28, InW: 28, InC: 1, Classes: 10, Size: 4, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		var pooledCNN, mlp bool
		for _, s := range z.Infos() {
			if s.Family == "cnn" && s.Pool {
				pooledCNN = true
			}
			if s.Family == "mlp" {
				mlp = true
			}
		}
		if !pooledCNN || !mlp {
			t.Fatalf("seed %d: zoo lacks pooled CNN (%v) or MLP (%v)", seed, pooledCNN, mlp)
		}
	}
}

// TestGenerateZooBuildsDeterministically: every generated spec builds, and
// Zoo.Build from the same seed yields identical weights.
func TestGenerateZooBuildsDeterministically(t *testing.T) {
	z, err := GenerateZoo(ZooGenConfig{InH: 12, InW: 12, InC: 1, Classes: 4, Size: 5, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range z.Infos() {
		a, err := z.Build(s.ID, 99)
		if err != nil {
			t.Fatalf("spec %s does not build: %v", s.Name, err)
		}
		b, err := z.Build(s.ID, 99)
		if err != nil {
			t.Fatal(err)
		}
		if len(a.Layers) != s.Layers {
			t.Fatalf("%s built %d layers, spec says %d", s.Name, len(a.Layers), s.Layers)
		}
		ap, bp := a.Params(), b.Params()
		for i := range ap {
			if !reflect.DeepEqual(ap[i].Value.Data, bp[i].Value.Data) {
				t.Fatalf("%s: weights differ across identical builds", s.Name)
			}
		}
	}
}

func TestGenerateZooRejectsBadConfig(t *testing.T) {
	if _, err := GenerateZoo(ZooGenConfig{Size: 0, InH: 28, InW: 28, InC: 1, Classes: 10}); err == nil {
		t.Fatal("zero size accepted")
	}
	if _, err := GenerateZoo(ZooGenConfig{Size: 3, InH: 0, InW: 28, InC: 1, Classes: 10}); err == nil {
		t.Fatal("zero input height accepted")
	}
	if _, err := GenerateZoo(ZooGenConfig{Size: 3, InH: 28, InW: 28, InC: 1, Classes: 1}); err == nil {
		t.Fatal("single class accepted")
	}
}

// TestZooInfos: the metadata registration derives from each stack
// describes the network Zoo.Build builds from it.
func TestZooInfos(t *testing.T) {
	z, err := DefaultZoo(28, 28, 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	for i, in := range z.Infos() {
		n, err := z.Build(i, 1)
		if err != nil {
			t.Fatal(err)
		}
		weights, pool, conv := 0, false, false
		for _, l := range n.Layers {
			switch l.(type) {
			case *Conv2D:
				conv = true
				weights++
			case *Dense:
				weights++
			case *MaxPool2:
				pool = true
			}
		}
		if in.ID != i || in.Layers != len(n.Layers) || in.Depth != weights || in.Pool != pool || (in.Family == "cnn") != conv {
			t.Fatalf("info %d = %+v, built %d layers (%d weight layers, pool %v, conv %v)", i, in, len(n.Layers), weights, pool, conv)
		}
	}
}
