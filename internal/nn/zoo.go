package nn

// The model zoo: the registry of candidate architectures the
// architecture-fingerprinting stage (internal/archid) discriminates
// between. CSI-NN (Batina et al.) demonstrates that layer counts and
// hyper-parameters of a deployed network are recoverable from side
// channels; the zoo provides the hypothesis space for that attack — a set
// of plausible deployments differing along exactly the axes the paper's
// threat model cares about: depth (MLP layer count, CNN conv-block
// count), width (hidden sizes, conv channels) and topology (pooling on or
// off).
//
// Every architecture is a Stack. Registration walks the stack's shapes
// only, so a zoo holds no weights: Zoo.Build draws them from the
// caller's seed alone, and two processes (or two pipeline shards) that
// build the same spec from the same seed hold bit-identical networks.

import (
	"fmt"
	"math/rand"
)

// Spec is one architecture to register: its name and its stack.
type Spec struct {
	// Name identifies the architecture ("mlp-128-64", "cnn-8-16", ...).
	Name  string
	Stack Stack
}

// Zoo is an ordered registry of architectures.
type Zoo struct {
	stacks []Stack
	infos  []SpecInfo
	byName map[string]int
}

// NewZoo creates an empty registry.
func NewZoo() *Zoo { return &Zoo{byName: map[string]int{}} }

// Register adds a spec under the next free ID and derives its metadata
// from its stack. Names must be unique, and the stack is planned (no
// weight is drawn) so an unrealizable architecture fails at
// registration, not mid-campaign.
func (z *Zoo) Register(s Spec) error {
	if s.Name == "" {
		return fmt.Errorf("nn: zoo spec needs a name")
	}
	if _, dup := z.byName[s.Name]; dup {
		return fmt.Errorf("nn: duplicate zoo spec %q", s.Name)
	}
	plan, err := s.Stack.plan()
	if err != nil {
		return fmt.Errorf("nn: zoo spec %q is not realizable: %w", s.Name, err)
	}
	info := SpecInfo{ID: len(z.infos), Name: s.Name, Family: "mlp", Pool: s.Stack.has("pool"), Layers: len(plan)}
	if s.Stack.has("conv") {
		info.Family = "cnn"
	}
	last := 0 // the latest weight layer's width; Width excludes the output layer
	for _, l := range s.Stack.Layers {
		if l.Kind == "conv" || l.Kind == "dense" {
			info.Depth++
			info.Width = max(info.Width, last)
			last = l.Out
		}
	}
	z.byName[s.Name] = info.ID
	z.stacks = append(z.stacks, s.Stack)
	z.infos = append(z.infos, info)
	return nil
}

// Len returns the number of registered architectures.
func (z *Zoo) Len() int { return len(z.infos) }

// ByName resolves an architecture by name.
func (z *Zoo) ByName(name string) (SpecInfo, bool) {
	id, ok := z.byName[name]
	if !ok {
		return SpecInfo{}, false
	}
	return z.infos[id], true
}

// ByID resolves an architecture by class label.
func (z *Zoo) ByID(id int) (SpecInfo, bool) {
	if id < 0 || id >= len(z.infos) {
		return SpecInfo{}, false
	}
	return z.infos[id], true
}

// Build constructs the identified architecture with weights derived from
// seed alone — the deterministic construction the archid pipeline's
// worker-invariance guarantee rests on.
func (z *Zoo) Build(id int, seed int64) (*Network, error) {
	if id < 0 || id >= len(z.stacks) {
		return nil, fmt.Errorf("nn: zoo has no architecture %d", id)
	}
	return z.stacks[id].Build(rand.New(rand.NewSource(seed)))
}

// SpecInfo is the metadata of one zoo architecture, derived from its
// stack at registration, as reported in campaign results and goldens by
// the fingerprinting and topology-recovery stages.
type SpecInfo struct {
	// ID is the architecture's class label, assigned by registration order.
	ID   int    `json:"id"`
	Name string `json:"name"`
	// Family is "cnn" when the stack has a conv layer, otherwise "mlp".
	Family string `json:"family"`
	// Depth/Width/Pool summarize the fingerprintable hyper-parameters:
	// Depth counts weight layers (conv + dense), Width is the largest
	// width or channel count of a weight layer before the output layer,
	// and Pool reports pooling presence.
	Depth int  `json:"depth"`
	Width int  `json:"width"`
	Pool  bool `json:"pool"`
	// Layers is the length of the built layer stack, flatten included
	// (what per-layer attribution observes).
	Layers int `json:"layers"`
}

// Infos returns the registered architectures' metadata in ID order.
// Callers must not modify it.
func (z *Zoo) Infos() []SpecInfo { return z.infos }

// DefaultZoo registers the reference hypothesis space for an input shape:
// seven architectures spanning MLP depth/width, CNN conv count and
// channel width, and pooling on/off. All specs share the input shape and
// class count, so one dataset serves every candidate deployment.
func DefaultZoo(inH, inW, inC, classes int) (*Zoo, error) {
	z := NewZoo()
	mlp := func(name string, hidden ...int) Spec {
		return Spec{Name: name, Stack: mlpStack(inH, inW, inC, classes, hidden)}
	}
	cnn := func(name string, pool bool, channels ...int) Spec {
		return Spec{Name: name, Stack: convStack(inH, inW, inC, classes, 3, pool, channels)}
	}
	for _, s := range []Spec{
		mlp("mlp-64", 64),                    // shallow, narrow
		mlp("mlp-256", 256),                  // shallow, wide (width variant)
		mlp("mlp-128-64", 128, 64),           // depth variant
		cnn("cnn-8", true, 8),                // single conv block
		cnn("cnn-8-16", true, 8, 16),         // the paper's MNIST shape
		cnn("cnn-16-32", true, 16, 32),       // channel variant
		cnn("cnn-8-16-nopool", false, 8, 16), // pooling off
	} {
		if err := z.Register(s); err != nil {
			return nil, err
		}
	}
	return z, nil
}
