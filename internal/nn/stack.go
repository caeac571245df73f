package nn

import (
	"fmt"
	"math/rand"

	"repro/internal/tensor"
)

// Stack is the weightless description of a sequential network, the one
// form every network in the program is planned in: the paper's CNN
// (Build lowers an Arch to one), the zoo members, the random members and
// the topology-recovery stage's rebuilt candidates. The flatten before
// the first dense layer is implicit.
type Stack struct {
	InH, InW, InC int
	Classes       int
	Layers        []StackLayer
}

// StackLayer is one layer of a Stack. Kind is "conv", "relu", "pool"
// (2×2, stride 2) or "dense"; Out is a conv's channel count or a dense
// layer's width, and K a conv's kernel size.
type StackLayer struct {
	Kind   string
	Out, K int
}

// plannedLayer is one layer of a stack as the walk planned it: its kind
// and what its constructor takes, with no weights.
type plannedLayer struct {
	kind    string
	geom    tensor.ConvGeom // conv
	shape   []int           // relu, pool, flatten: the input shape
	in, out int             // dense
}

// plan walks the stack's geometry from the input shape and plans its
// layers, inserting the flatten before the first dense layer. It is the
// one place the realizability rules live: a stack is not realizable when
// its input has no elements, when it has fewer than 2 classes or no
// layers, when a conv or pool follows the dense collapse, when a conv
// does not fit its map (tensor.ConvGeom.Validate, the check NewConv2D
// makes), when a dense layer has no inputs (a map pooled to nothing) or
// no width, when a kind is unknown, or when its output has no elements.
func (s Stack) plan() ([]plannedLayer, error) {
	if s.InH <= 0 || s.InW <= 0 || s.InC <= 0 {
		return nil, fmt.Errorf("nn: stack input dims must be positive: %dx%dx%d", s.InH, s.InW, s.InC)
	}
	if s.Classes <= 1 {
		return nil, fmt.Errorf("nn: stack needs at least 2 classes, got %d", s.Classes)
	}
	if len(s.Layers) == 0 {
		return nil, fmt.Errorf("nn: empty stack")
	}
	h, w, ch := s.InH, s.InW, s.InC
	flat := false
	plan := make([]plannedLayer, 0, len(s.Layers)+1)
	for i, l := range s.Layers {
		switch l.Kind {
		case "conv":
			if flat {
				return nil, fmt.Errorf("nn: conv at %d after the dense collapse", i)
			}
			geom := tensor.ConvGeom{InH: h, InW: w, InC: ch, K: l.K, Stride: 1, Pad: 0, OutC: l.Out}
			if err := geom.Validate(); err != nil {
				return nil, fmt.Errorf("nn: conv at %d does not fit %dx%d: %w", i, h, w, err)
			}
			plan = append(plan, plannedLayer{kind: "conv", geom: geom})
			h, w, ch = geom.OutH(), geom.OutW(), geom.OutC
		case "relu":
			shape := []int{h, w, ch}
			if flat {
				shape = []int{ch}
			}
			plan = append(plan, plannedLayer{kind: "relu", shape: shape})
		case "pool":
			if flat {
				return nil, fmt.Errorf("nn: pool at %d after the dense collapse", i)
			}
			plan = append(plan, plannedLayer{kind: "pool", shape: []int{h, w, ch}})
			h, w = h/2, w/2
		case "dense":
			in := ch
			if !flat {
				plan = append(plan, plannedLayer{kind: "flatten", shape: []int{h, w, ch}})
				in, flat = h*w*ch, true
			}
			if in < 1 || l.Out < 1 {
				return nil, fmt.Errorf("nn: dense at %d maps %d inputs to width %d", i, in, l.Out)
			}
			plan = append(plan, plannedLayer{kind: "dense", in: in, out: l.Out})
			h, w, ch = 1, 1, l.Out
		default:
			return nil, fmt.Errorf("nn: unknown layer kind %q at %d", l.Kind, i)
		}
	}
	if h*w*ch < 1 {
		return nil, fmt.Errorf("nn: stack output %dx%dx%d has no elements", h, w, ch)
	}
	return plan, nil
}

// Build plans the stack and then draws its weights from rng, layer by
// layer in stack order, so a stack that is not realizable fails before
// any weight is drawn.
func (s Stack) Build(rng *rand.Rand) (*Network, error) {
	plan, err := s.plan()
	if err != nil {
		return nil, err
	}
	layers := make([]Layer, len(plan))
	for i, p := range plan {
		switch p.kind {
		case "conv":
			layers[i], err = NewConv2D(p.geom, rng)
		case "relu":
			layers[i] = NewReLU(p.shape)
		case "pool":
			layers[i], err = NewMaxPool2(p.shape)
		case "flatten":
			layers[i] = NewFlatten(p.shape)
		case "dense":
			layers[i], err = NewDense(p.in, p.out, rng)
		}
		if err != nil {
			return nil, err
		}
	}
	return &Network{InShape: []int{s.InH, s.InW, s.InC}, Layers: layers, Classes: s.Classes}, nil
}

// has reports whether the stack has a layer of the kind.
func (s Stack) has(kind string) bool {
	for _, l := range s.Layers {
		if l.Kind == kind {
			return true
		}
	}
	return false
}

// mlpStack is a fully connected network: dense → relu per hidden width,
// then a dense layer onto the classes.
func mlpStack(inH, inW, inC, classes int, hidden []int) Stack {
	s := Stack{InH: inH, InW: inW, InC: inC, Classes: classes}
	for _, h := range hidden {
		s.Layers = append(s.Layers, StackLayer{Kind: "dense", Out: h}, StackLayer{Kind: "relu"})
	}
	s.Layers = append(s.Layers, StackLayer{Kind: "dense", Out: classes})
	return s
}

// convStack is a convolutional network: conv → relu (→ pool when pool)
// per channel count, then a dense layer onto the classes.
func convStack(inH, inW, inC, classes, kernel int, pool bool, channels []int) Stack {
	s := Stack{InH: inH, InW: inW, InC: inC, Classes: classes}
	for _, c := range channels {
		s.Layers = append(s.Layers, StackLayer{Kind: "conv", Out: c, K: kernel}, StackLayer{Kind: "relu"})
		if pool {
			s.Layers = append(s.Layers, StackLayer{Kind: "pool"})
		}
	}
	s.Layers = append(s.Layers, StackLayer{Kind: "dense", Out: classes})
	return s
}
