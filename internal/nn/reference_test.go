package nn

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"

	"repro/internal/tensor"
)

// The builders below are the per-family builders as they were before
// every network was planned as a Stack, kept verbatim apart from their
// names: referenceBuild, referenceBuildConvNet and referenceBuildMLP,
// with the zoo specs that called them (referenceDefaultZoo,
// referenceRandomSpec) and their hand-set metadata.
// TestLoweringsMatchReference holds the Stack lowerings to their results.

type referenceMLPArch struct {
	Name          string
	InH, InW, InC int
	Hidden        []int
	Classes       int
}

func referenceBuildMLP(a referenceMLPArch, rng *rand.Rand) (*Network, error) {
	if a.Classes <= 1 {
		return nil, fmt.Errorf("nn: MLP needs at least 2 classes, got %d", a.Classes)
	}
	if a.InH <= 0 || a.InW <= 0 || a.InC <= 0 {
		return nil, fmt.Errorf("nn: MLP input dims must be positive: %dx%dx%d", a.InH, a.InW, a.InC)
	}
	inShape := []int{a.InH, a.InW, a.InC}
	var layers []Layer
	flat := NewFlatten(inShape)
	layers = append(layers, flat)
	in := flat.OutShape()[0]
	for i, h := range a.Hidden {
		if h <= 0 {
			return nil, fmt.Errorf("nn: MLP hidden layer %d has size %d", i, h)
		}
		d, err := NewDense(in, h, rng)
		if err != nil {
			return nil, err
		}
		layers = append(layers, d, NewReLU([]int{h}))
		in = h
	}
	out, err := NewDense(in, a.Classes, rng)
	if err != nil {
		return nil, err
	}
	layers = append(layers, out)
	return &Network{InShape: inShape, Layers: layers, Classes: a.Classes}, nil
}

type referenceConvNetArch struct {
	Name          string
	InH, InW, InC int
	Channels      []int
	Kernel        int
	Pool          bool
	Classes       int
}

func referenceBuildConvNet(a referenceConvNetArch, rng *rand.Rand) (*Network, error) {
	if a.Classes <= 1 {
		return nil, fmt.Errorf("nn: convnet needs at least 2 classes, got %d", a.Classes)
	}
	if len(a.Channels) == 0 {
		return nil, fmt.Errorf("nn: convnet needs at least one conv block")
	}
	if a.Kernel <= 0 {
		return nil, fmt.Errorf("nn: convnet kernel must be positive, got %d", a.Kernel)
	}
	var layers []Layer
	inH, inW, inC := a.InH, a.InW, a.InC
	for i, outC := range a.Channels {
		g := tensor.ConvGeom{InH: inH, InW: inW, InC: inC, K: a.Kernel, Stride: 1, Pad: 0, OutC: outC}
		c, err := NewConv2D(g, rng)
		if err != nil {
			return nil, fmt.Errorf("nn: conv block %d: %w", i, err)
		}
		layers = append(layers, c, NewReLU(c.OutShape()))
		s := c.OutShape()
		if a.Pool {
			p, err := NewMaxPool2(s)
			if err != nil {
				return nil, fmt.Errorf("nn: pool block %d: %w", i, err)
			}
			layers = append(layers, p)
			s = p.OutShape()
		}
		inH, inW, inC = s[0], s[1], s[2]
	}
	flat := NewFlatten([]int{inH, inW, inC})
	layers = append(layers, flat)
	d, err := NewDense(flat.OutShape()[0], a.Classes, rng)
	if err != nil {
		return nil, fmt.Errorf("nn: dense: %w", err)
	}
	layers = append(layers, d)
	return &Network{InShape: []int{a.InH, a.InW, a.InC}, Layers: layers, Classes: a.Classes}, nil
}

func referenceBuild(a Arch, rng *rand.Rand) (*Network, error) {
	if a.Classes <= 1 {
		return nil, fmt.Errorf("nn: architecture needs at least 2 classes, got %d", a.Classes)
	}
	var layers []Layer

	g1 := tensor.ConvGeom{InH: a.InH, InW: a.InW, InC: a.InC, K: a.Kernel, Stride: 1, Pad: 0, OutC: a.Conv1}
	c1, err := NewConv2D(g1, rng)
	if err != nil {
		return nil, fmt.Errorf("nn: conv1: %w", err)
	}
	layers = append(layers, c1, NewReLU(c1.OutShape()))
	p1, err := NewMaxPool2(c1.OutShape())
	if err != nil {
		return nil, fmt.Errorf("nn: pool1: %w", err)
	}
	layers = append(layers, p1)

	s1 := p1.OutShape()
	g2 := tensor.ConvGeom{InH: s1[0], InW: s1[1], InC: s1[2], K: a.Kernel, Stride: 1, Pad: 0, OutC: a.Conv2}
	c2, err := NewConv2D(g2, rng)
	if err != nil {
		return nil, fmt.Errorf("nn: conv2: %w", err)
	}
	layers = append(layers, c2, NewReLU(c2.OutShape()))
	p2, err := NewMaxPool2(c2.OutShape())
	if err != nil {
		return nil, fmt.Errorf("nn: pool2: %w", err)
	}
	layers = append(layers, p2)

	flat := NewFlatten(p2.OutShape())
	layers = append(layers, flat)
	d, err := NewDense(flat.OutShape()[0], a.Classes, rng)
	if err != nil {
		return nil, fmt.Errorf("nn: dense: %w", err)
	}
	layers = append(layers, d)

	return &Network{InShape: []int{a.InH, a.InW, a.InC}, Layers: layers, Classes: a.Classes}, nil
}

// referenceSpec is a zoo spec as it was registered before stacks:
// hand-set metadata and a build closure over a reference builder.
type referenceSpec struct {
	Name         string
	Family       string
	Depth, Width int
	Pool         bool
	Build        func(rng *rand.Rand) (*Network, error)
}

func referenceDefaultZoo(inH, inW, inC, classes int) []referenceSpec {
	mlp := func(name string, hidden ...int) referenceSpec {
		a := referenceMLPArch{Name: name, InH: inH, InW: inW, InC: inC, Hidden: hidden, Classes: classes}
		width := 0
		for _, h := range hidden {
			if h > width {
				width = h
			}
		}
		return referenceSpec{
			Name: name, Family: "mlp", Depth: len(hidden) + 1, Width: width,
			Build: func(rng *rand.Rand) (*Network, error) { return referenceBuildMLP(a, rng) },
		}
	}
	cnn := func(name string, pool bool, channels ...int) referenceSpec {
		a := referenceConvNetArch{Name: name, InH: inH, InW: inW, InC: inC,
			Channels: channels, Kernel: 3, Pool: pool, Classes: classes}
		width := 0
		for _, c := range channels {
			if c > width {
				width = c
			}
		}
		return referenceSpec{
			Name: name, Family: "cnn", Depth: len(channels) + 1, Width: width, Pool: pool,
			Build: func(rng *rand.Rand) (*Network, error) { return referenceBuildConvNet(a, rng) },
		}
	}
	return []referenceSpec{
		mlp("mlp-64", 64),                    // shallow, narrow
		mlp("mlp-256", 256),                  // shallow, wide (width variant)
		mlp("mlp-128-64", 128, 64),           // depth variant
		cnn("cnn-8", true, 8),                // single conv block
		cnn("cnn-8-16", true, 8, 16),         // the paper's MNIST shape
		cnn("cnn-16-32", true, 16, 32),       // channel variant
		cnn("cnn-8-16-nopool", false, 8, 16), // pooling off
	}
}

func referenceRandomSpec(rng *rand.Rand, inH, inW, inC, classes int) referenceSpec {
	if rng.Intn(2) == 0 {
		return referenceRandomMLPSpec(rng, inH, inW, inC, classes)
	}
	return referenceRandomCNNSpec(rng, inH, inW, inC, classes)
}

func referenceRandomMLPSpec(rng *rand.Rand, inH, inW, inC, classes int) referenceSpec {
	depth := 1 + rng.Intn(3)
	hidden := make([]int, depth)
	parts := make([]string, depth)
	width := 0
	for i := range hidden {
		hidden[i] = randMLPWidths[rng.Intn(len(randMLPWidths))]
		parts[i] = fmt.Sprintf("%d", hidden[i])
		if hidden[i] > width {
			width = hidden[i]
		}
	}
	a := referenceMLPArch{Name: "mlp-r-" + strings.Join(parts, "-"), InH: inH, InW: inW, InC: inC,
		Hidden: hidden, Classes: classes}
	return referenceSpec{
		Name: a.Name, Family: "mlp", Depth: depth + 1, Width: width,
		Build: func(rng *rand.Rand) (*Network, error) { return referenceBuildMLP(a, rng) },
	}
}

func referenceRandomCNNSpec(rng *rand.Rand, inH, inW, inC, classes int) referenceSpec {
	blocks := 1 + rng.Intn(3)
	channels := make([]int, blocks)
	parts := make([]string, blocks)
	width := 0
	for i := range channels {
		channels[i] = randCNNChannels[rng.Intn(len(randCNNChannels))]
		parts[i] = fmt.Sprintf("%d", channels[i])
		if channels[i] > width {
			width = channels[i]
		}
	}
	kernel := randCNNKernels[rng.Intn(len(randCNNKernels))]
	pool := rng.Intn(2) == 0
	suffix := "nopool"
	if pool {
		suffix = "pool"
	}
	a := referenceConvNetArch{
		Name: fmt.Sprintf("cnn-r-k%d-%s-%s", kernel, strings.Join(parts, "-"), suffix),
		InH:  inH, InW: inW, InC: inC,
		Channels: channels, Kernel: kernel, Pool: pool, Classes: classes,
	}
	return referenceSpec{
		Name: a.Name, Family: "cnn", Depth: blocks + 1, Width: width, Pool: pool,
		Build: func(rng *rand.Rand) (*Network, error) { return referenceBuildConvNet(a, rng) },
	}
}

// sameNetwork reports the first difference between two networks: input
// shape, classes, layer types, names and output shapes, and every
// parameter's bits.
func sameNetwork(got, want *Network) error {
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
