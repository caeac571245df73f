package nn

import (
	"fmt"
	"math/rand"
)

// MLPArch describes a fully connected network (flatten → dense/ReLU stack
// → dense). The paper's conclusion asks about "other deep learning
// models"; the MLP is the natural first comparison point — it exercises
// the dense sparsity-skip kernel without any convolutional structure.
type MLPArch struct {
	Name          string
	InH, InW, InC int
	Hidden        []int
	Classes       int
}

// BuildMLP constructs the network for an MLP architecture.
func BuildMLP(a MLPArch, rng *rand.Rand) (*Network, error) {
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
