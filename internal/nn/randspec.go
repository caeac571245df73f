package nn

// Seeded random architecture generation: the hypothesis-free counterpart
// of DefaultZoo. The topology-recovery stage (internal/topo) must be
// scored against victims the attacker has *never profiled*, so it draws
// two disjoint zoos from this generator — a training zoo the per-segment
// classifiers and estimators are fitted on, and a held-out victim zoo the
// reconstruction is scored on. Generation is deterministic: the same
// ZooGenConfig always yields the same specs in the same order, so two
// processes (or the golden tests at different worker counts) agree on the
// exact hypothesis spaces.

import (
	"fmt"
	"math/rand"
	"strings"
)

// Hyper-parameter menus the random specs draw from. The values span the
// ranges the DefaultZoo covers and beyond, so held-out victims genuinely
// exercise extrapolation in the estimators.
var (
	randMLPWidths   = []int{24, 32, 48, 64, 96, 128, 192, 256}
	randCNNChannels = []int{4, 6, 8, 12, 16, 24, 32}
	randCNNKernels  = []int{3, 5}
)

// RandomSpec draws one random architecture spec for the given input shape
// and class count: an MLP with 1–3 hidden layers or a CNN with 1–3 conv
// blocks (random channel widths, kernel size 3 or 5, pooling on or off).
// The name encodes every hyper-parameter, so equal names mean equal
// architectures — which is what GenerateZoo dedups on.
func RandomSpec(rng *rand.Rand, inH, inW, inC, classes int) Spec {
	if rng.Intn(2) == 0 {
		return randomMLPSpec(rng, inH, inW, inC, classes)
	}
	return randomCNNSpec(rng, inH, inW, inC, classes)
}

func randomMLPSpec(rng *rand.Rand, inH, inW, inC, classes int) Spec {
	hidden := make([]int, 1+rng.Intn(3))
	parts := make([]string, len(hidden))
	for i := range hidden {
		hidden[i] = randMLPWidths[rng.Intn(len(randMLPWidths))]
		parts[i] = fmt.Sprintf("%d", hidden[i])
	}
	return Spec{Name: "mlp-r-" + strings.Join(parts, "-"), Stack: mlpStack(inH, inW, inC, classes, hidden)}
}

func randomCNNSpec(rng *rand.Rand, inH, inW, inC, classes int) Spec {
	channels := make([]int, 1+rng.Intn(3))
	parts := make([]string, len(channels))
	for i := range channels {
		channels[i] = randCNNChannels[rng.Intn(len(randCNNChannels))]
		parts[i] = fmt.Sprintf("%d", channels[i])
	}
	kernel := randCNNKernels[rng.Intn(len(randCNNKernels))]
	pool := rng.Intn(2) == 0
	suffix := "nopool"
	if pool {
		suffix = "pool"
	}
	return Spec{
		Name:  fmt.Sprintf("cnn-r-k%d-%s-%s", kernel, strings.Join(parts, "-"), suffix),
		Stack: convStack(inH, inW, inC, classes, kernel, pool, channels),
	}
}

// ZooGenConfig parameterizes deterministic random zoo generation.
type ZooGenConfig struct {
	// InH/InW/InC/Classes are shared by every generated spec.
	InH, InW, InC, Classes int
	// Size is the number of distinct architectures to register.
	Size int
	// Seed drives every random draw; equal configs yield equal zoos.
	Seed int64
	// Avoid lists spec names that must not appear (the disjointness
	// mechanism between a training zoo and a held-out victim zoo).
	Avoid map[string]bool
}

// GenerateZoo registers Size distinct random architectures drawn from
// ZooGenConfig.Seed. Specs whose stack is not realizable on the input
// (e.g. a deep pooled kernel-5 CNN on a small input) are resampled, as
// are name collisions with the zoo itself or with cfg.Avoid. When
// Size ≥ 2 the first two slots are forced to a pooled CNN and an MLP
// respectively, so any generated training zoo covers all four
// observable layer kinds (conv, relu, pool, dense).
func GenerateZoo(cfg ZooGenConfig) (*Zoo, error) {
	if cfg.Size <= 0 {
		return nil, fmt.Errorf("nn: zoo size must be positive, got %d", cfg.Size)
	}
	if cfg.InH <= 0 || cfg.InW <= 0 || cfg.InC <= 0 || cfg.Classes <= 1 {
		return nil, fmt.Errorf("nn: bad zoo shape %dx%dx%d/%d classes", cfg.InH, cfg.InW, cfg.InC, cfg.Classes)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	z := NewZoo()
	draw := func(slot int) Spec {
		switch {
		case slot == 0 && cfg.Size >= 2:
			s := randomCNNSpec(rng, cfg.InH, cfg.InW, cfg.InC, cfg.Classes)
			for !s.Stack.has("pool") {
				s = randomCNNSpec(rng, cfg.InH, cfg.InW, cfg.InC, cfg.Classes)
			}
			return s
		case slot == 1 && cfg.Size >= 2:
			return randomMLPSpec(rng, cfg.InH, cfg.InW, cfg.InC, cfg.Classes)
		default:
			return RandomSpec(rng, cfg.InH, cfg.InW, cfg.InC, cfg.Classes)
		}
	}
	const maxAttemptsPerSlot = 256
	for z.Len() < cfg.Size {
		slot := z.Len()
		registered := false
		for attempt := 0; attempt < maxAttemptsPerSlot; attempt++ {
			s := draw(slot)
			if cfg.Avoid[s.Name] {
				continue
			}
			if _, dup := z.ByName(s.Name); dup {
				continue
			}
			if err := z.Register(s); err != nil {
				continue // not realizable on this input shape: resample
			}
			registered = true
			break
		}
		if !registered {
			return nil, fmt.Errorf("nn: could not draw %d distinct buildable specs for %dx%dx%d (got %d)",
				cfg.Size, cfg.InH, cfg.InW, cfg.InC, z.Len())
		}
	}
	return z, nil
}

// Names returns the registered spec names in ID order — the Avoid set a
// disjoint second zoo is generated against.
func (z *Zoo) Names() map[string]bool {
	out := make(map[string]bool, z.Len())
	for _, s := range z.infos {
		out[s.Name] = true
	}
	return out
}
