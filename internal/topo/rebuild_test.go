package topo

import (
	"fmt"
	"math"
	"math/rand"
	"runtime/metrics"
	"slices"
	"testing"

	"repro/internal/nn"
	"repro/internal/raceinfo"
	"repro/internal/tensor"
)

// referenceBuildRecovered is buildRecovered as it was before the shape
// walk, kept verbatim: it draws each layer's weights as it reaches the
// layer, so an unrealizable stack fails only after drawing the layers
// before its fault. TestBuildRecoveredMatchesReference holds the
// shape-first builder to its results.
func referenceBuildRecovered(guesses []LayerGuess, inH, inW, inC, classes int, seed int64) (*nn.Network, error) {
	if len(guesses) == 0 {
		return nil, fmt.Errorf("topo: empty recovered stack")
	}
	rng := rand.New(rand.NewSource(seed))
	h, w, ch := inH, inW, inC
	flat := false
	var layers []nn.Layer
	for i, g := range guesses {
		switch g.Kind {
		case "conv":
			if flat {
				return nil, fmt.Errorf("topo: recovered conv at %d after dense collapse", i)
			}
			k := g.Kernel
			if k < 1 {
				k = 1
			}
			if h-k+1 < 1 || w-k+1 < 1 || g.Param < 1 {
				return nil, fmt.Errorf("topo: recovered conv at %d does not fit %dx%d", i, h, w)
			}
			conv, err := nn.NewConv2D(tensor.ConvGeom{InH: h, InW: w, InC: ch, K: k, Stride: 1, Pad: 0, OutC: g.Param}, rng)
			if err != nil {
				return nil, err
			}
			layers = append(layers, conv)
			s := conv.OutShape()
			h, w, ch = s[0], s[1], s[2]
		case "relu":
			if flat {
				layers = append(layers, nn.NewReLU([]int{ch}))
			} else {
				layers = append(layers, nn.NewReLU([]int{h, w, ch}))
			}
		case "pool":
			if flat {
				return nil, fmt.Errorf("topo: recovered pool at %d after dense collapse", i)
			}
			p, err := nn.NewMaxPool2([]int{h, w, ch})
			if err != nil {
				return nil, err
			}
			layers = append(layers, p)
			s := p.OutShape()
			h, w, ch = s[0], s[1], s[2]
		case "dense":
			in := ch
			if !flat {
				fl := nn.NewFlatten([]int{h, w, ch})
				layers = append(layers, fl)
				in = fl.OutShape()[0]
				flat = true
			}
			if g.Param < 1 {
				return nil, fmt.Errorf("topo: recovered dense at %d has width %d", i, g.Param)
			}
			d, err := nn.NewDense(in, g.Param, rng)
			if err != nil {
				return nil, err
			}
			layers = append(layers, d)
			h, w, ch = 1, 1, g.Param
		default:
			return nil, fmt.Errorf("topo: recovered unknown layer kind %q at %d", g.Kind, i)
		}
	}
	return &nn.Network{InShape: []int{inH, inW, inC}, Layers: layers, Classes: classes}, nil
}

// victim0Stack is the recover-zoo workload's held-out victim 0
// (cnn-r-k5-24-32-pool) as the attacker recovers it on 28×28×1 inputs:
// its 3456×2039 dense layer is followed by a pool, so it is not
// realizable.
var victim0Stack = []LayerGuess{
	{Kind: "conv", Param: 24, Kernel: 5}, {Kind: "relu"}, {Kind: "pool"},
	{Kind: "dense", Param: 2039}, {Kind: "relu"}, {Kind: "pool"}, {Kind: "dense", Param: 3},
}

// randomStack draws a stack of up to six layers over every kind, and
// rarely an unknown one, with widths and kernels that fall on both sides
// of every realizability rule on small maps.
func randomStack(rng *rand.Rand) []LayerGuess {
	kinds := []string{"conv", "conv", "relu", "pool", "pool", "dense"}
	out := make([]LayerGuess, rng.Intn(7))
	for i := range out {
		out[i] = LayerGuess{Kind: kinds[rng.Intn(len(kinds))], Param: rng.Intn(7), Kernel: rng.Intn(8) - 1}
		if rng.Intn(60) == 0 {
			out[i].Kind = "wat"
		}
	}
	return out
}

// TestBuildRecoveredMatchesReference: the shape-first builder fails
// exactly where the reference fails or builds a network whose output has
// no elements (which no deployment can classify with), and where both
// build they hold the same layers, shapes and weight bits, since the
// weights are drawn in the same layer order from the same seed.
func TestBuildRecoveredMatchesReference(t *testing.T) {
	type rebuildCase struct {
		name          string
		guesses       []LayerGuess
		inH, inW, inC int
	}
	var cases []rebuildCase
	for _, tc := range degenerateStacks {
		cases = append(cases, rebuildCase{tc.name, tc.guesses, 12, 12, 1})
	}
	cases = append(cases,
		rebuildCase{"sane", saneStack, 12, 12, 1},
		rebuildCase{"recover-zoo victim 0", victim0Stack, 28, 28, 1},
		// The recovered stack of cmd/topo -seed 8's victim 5, whose conv
		// follows the dense collapse. On its 28×28×1 input the reference
		// would draw a 248 MB dense layer before failing; a 12×12 map
		// keeps the same fault at a 2048×3367 draw.
		rebuildCase{"seed-8 victim 5", []LayerGuess{
			{Kind: "conv", Param: 32, Kernel: 5}, {Kind: "dense", Param: 3367}, {Kind: "conv", Param: 2039, Kernel: 1},
		}, 12, 12, 1},
		rebuildCase{"pool to 0x0 before dense", []LayerGuess{
			{Kind: "conv", Param: 3, Kernel: 3}, {Kind: "pool"}, {Kind: "pool"}, {Kind: "relu"}, {Kind: "dense", Param: 4},
		}, 5, 5, 1},
		rebuildCase{"pool to 0x0 at the end", []LayerGuess{{Kind: "pool"}, {Kind: "relu"}}, 1, 1, 2},
	)
	rng := rand.New(rand.NewSource(26))
	for i := 0; i < 200; i++ {
		cases = append(cases, rebuildCase{fmt.Sprintf("random %d", i), randomStack(rng), 1 + rng.Intn(9), 1 + rng.Intn(9), 1 + rng.Intn(3)})
	}
	built := 0
	for i, tc := range cases {
		seed := int64(i + 1)
		want, wantErr := referenceBuildRecovered(tc.guesses, tc.inH, tc.inW, tc.inC, 4, seed)
		got, gotErr := buildRecovered(tc.guesses, tc.inH, tc.inW, tc.inC, 4, seed)
		wantFail := wantErr != nil || tensor.Volume(want.Layers[len(want.Layers)-1].OutShape()) == 0
		if (gotErr != nil) != wantFail {
			t.Fatalf("%s %v on %dx%dx%d: error %v, reference error %v", tc.name, tc.guesses, tc.inH, tc.inW, tc.inC, gotErr, wantErr)
		}
		if wantFail {
			continue
		}
		built++
		if err := sameNetwork(got, want); err != nil {
			t.Fatalf("%s %v on %dx%dx%d: %v", tc.name, tc.guesses, tc.inH, tc.inW, tc.inC, err)
		}
	}
	if built < 20 || built > len(cases)-20 {
		t.Fatalf("%d of %d stacks built; the cases must cover both outcomes", built, len(cases))
	}
}

// sameNetwork reports the first difference between two networks: input
// shape, classes, layer types, names and output shapes, and every
// parameter's bits.
func sameNetwork(got, want *nn.Network) error {
	if !slices.Equal(got.InShape, want.InShape) || got.Classes != want.Classes {
		return fmt.Errorf("input %v/%d classes, reference %v/%d", got.InShape, got.Classes, want.InShape, want.Classes)
	}
	if len(got.Layers) != len(want.Layers) {
		return fmt.Errorf("%d layers, reference %d", len(got.Layers), len(want.Layers))
	}
	for i, l := range got.Layers {
		r := want.Layers[i]
		if g, w := fmt.Sprintf("%T %s %v", l, l.Name(), l.OutShape()), fmt.Sprintf("%T %s %v", r, r.Name(), r.OutShape()); g != w {
			return fmt.Errorf("layer %d is %s, reference %s", i, g, w)
		}
	}
	gp, wp := got.Params(), want.Params()
	for i, p := range gp {
		if p.Name != wp[i].Name || !slices.Equal(p.Value.Shape, wp[i].Value.Shape) {
			return fmt.Errorf("parameter %d is %s %v, reference %s %v", i, p.Name, p.Value.Shape, wp[i].Name, wp[i].Value.Shape)
		}
		for j, v := range p.Value.Data {
			if math.Float32bits(v) != math.Float32bits(wp[i].Value.Data[j]) {
				return fmt.Errorf("%s[%d] = %v, reference %v", p.Name, j, v, wp[i].Value.Data[j])
			}
		}
	}
	return nil
}

// heapAllocs is the process's cumulative heap allocation in bytes. The
// runtime/metrics read does not stop the world, unlike ReadMemStats.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// TestUnrealizableRebuildAllocBound: an unrealizable stack is refused by
// the shape walk, before any weight is drawn. Victim 0's stack would
// otherwise draw a 3456×2039 dense layer (28 MB) before reaching its
// fault. The counter is process-wide, so the least of three readings is
// taken.
func TestUnrealizableRebuildAllocBound(t *testing.T) {
	if raceinfo.Enabled {
		t.Skip("allocation counts are perturbed under -race")
	}
	const bound = 64 << 10
	least := ^uint64(0)
	for range 3 {
		before := heapAllocs()
		_, err := buildRecovered(victim0Stack, 28, 28, 1, 10, 1)
		least = min(least, heapAllocs()-before)
		if err == nil {
			t.Fatal("victim 0's recovered stack built")
		}
		if least < bound {
			break
		}
	}
	if least >= bound {
		t.Fatalf("refusing victim 0's recovered stack allocated %d bytes, want under %d", least, bound)
	}
}
