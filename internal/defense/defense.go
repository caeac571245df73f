// Package defense implements the countermeasure direction from the
// paper's conclusion: "designing CNN architectures with indistinguishable
// CPU footprints while classifying different image categories".
//
// Three hardening levels are provided, each wrapping the instrumented
// classifier:
//
//   - DenseExecution: disable the sparsity-skipping optimization so the
//     amount of memory traffic no longer depends on activation sparsity.
//   - ConstantTime: additionally remove every data-dependent branch
//     (branchless ReLU/max), yielding an input-independent instruction and
//     branch stream.
//   - NoiseInjection: keep the leaky kernels but add randomized dummy
//     memory traffic after each classification to mask the signal.
package defense

import (
	"fmt"
	"math/rand"

	"repro/internal/instrument"
	"repro/internal/march"
	"repro/internal/march/mem"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// Level selects a hardening strategy.
type Level int

// Hardening levels.
const (
	// Baseline is the unprotected sparsity-skipping implementation.
	Baseline Level = iota
	// DenseExecution always executes the full weight walk.
	DenseExecution
	// ConstantTime is DenseExecution plus branchless kernels.
	ConstantTime
	// NoiseInjection keeps leaky kernels but masks them with dummy traffic.
	NoiseInjection
	// PaddedEnvelope is ConstantTime plus envelope padding: every
	// classification is topped up to the footprint envelope of a
	// configurable hypothesis set (Config.Envelope), hiding *which model*
	// is deployed in addition to what it is looking at.
	PaddedEnvelope
)

// String implements fmt.Stringer.
func (l Level) String() string {
	switch l {
	case Baseline:
		return "baseline"
	case DenseExecution:
		return "dense-execution"
	case ConstantTime:
		return "constant-time"
	case NoiseInjection:
		return "noise-injection"
	case PaddedEnvelope:
		return "padded-envelope"
	default:
		return fmt.Sprintf("level(%d)", int(l))
	}
}

// Config assembles a hardened classifier.
type Config struct {
	Level Level
	// Seed drives the dummy-traffic randomness.
	Seed int64
	// Runtime is passed through to the instrumented classifier.
	Runtime instrument.RuntimeModel
	// Envelope and EnvelopeIndex select the deployment's pad under
	// PaddedEnvelope: the precomputed hypothesis-set envelope and this
	// deployment's member index in it. Required at that level.
	Envelope      *Envelope
	EnvelopeIndex int
}

// noiseLines is the mean number of dummy cache lines a NoiseInjection
// deployment touches per classification.
const noiseLines = 2048

// kernelOptions returns the instrumented-kernel configuration a hardening
// level implies (without runtime model or seed): which sparsity and
// branchlessness story the deployed kernels execute. PaddedEnvelope runs
// the constant-time kernels — the pad is applied on top by Hardened.
func kernelOptions(level Level) (instrument.Options, error) {
	var opts instrument.Options
	switch level {
	case Baseline, NoiseInjection:
		opts.SparsitySkip = true
	case DenseExecution:
		opts.SparsitySkip = false
	case ConstantTime, PaddedEnvelope:
		opts.ConstantTime = true
	default:
		return instrument.Options{}, fmt.Errorf("defense: unknown level %d", int(level))
	}
	return opts, nil
}

// Reference deploys net the one way every noise-free reference
// measurement does (envelope footprints, layer evidence, topology traces
// and footprint checks): the level's kernels without the runtime model
// and without any defense traffic, on a fresh cold-reset SimHierarchy
// engine with no measurement noise. Its counters are exact and depend on
// the network and the inputs alone.
func Reference(net *nn.Network, level Level) (*instrument.Classifier, error) {
	opts, err := kernelOptions(level)
	if err != nil {
		return nil, err
	}
	opts.Runtime = instrument.NoRuntime()
	engine, err := march.NewEngine(march.Config{Hierarchy: instrument.SimHierarchy()})
	if err != nil {
		return nil, err
	}
	cl, err := instrument.New(net, engine, opts)
	if err != nil {
		return nil, err
	}
	engine.ColdReset()
	return cl, nil
}

// Hardened wraps an instrumented classifier with a defense level. It
// satisfies core.Target.
type Hardened struct {
	inner  *instrument.Classifier
	level  Level
	rng    *rand.Rand
	region mem.Region
	pad    march.PadSpec
	padded bool
}

// New builds a hardened classifier for net on engine.
func New(net *nn.Network, engine *march.Engine, cfg Config) (*Hardened, error) {
	opts, err := kernelOptions(cfg.Level)
	if err != nil {
		return nil, err
	}
	opts.Runtime = cfg.Runtime
	opts.Seed = cfg.Seed
	inner, err := instrument.New(net, engine, opts)
	if err != nil {
		return nil, err
	}
	h := &Hardened{inner: inner, level: cfg.Level, rng: rand.New(rand.NewSource(cfg.Seed))}
	if cfg.Level == PaddedEnvelope {
		if cfg.Envelope == nil {
			return nil, fmt.Errorf("defense: PaddedEnvelope needs a precomputed Envelope (see NewEnvelope)")
		}
		pad, err := cfg.Envelope.Pad(cfg.EnvelopeIndex)
		if err != nil {
			return nil, err
		}
		h.pad, h.padded = pad, true
	}
	if cfg.Level == NoiseInjection {
		// A scratch buffer the dummy loads sweep over; sized at 4× the LLC
		// so sweeps actually generate misses. It lands at the classifier's
		// activation-scratch base and shares simulated addresses with it —
		// the same aliasing the old per-classification arena reset produced
		// — which is fine: the sweep only needs deterministic addresses
		// that thrash the cache, not exclusive ownership.
		llc := engine.Hierarchy().Last().Config().Size
		region, err := engine.Arena().Alloc("defense.noise", llc*4)
		if err != nil {
			return nil, err
		}
		h.region = region
	}
	return h, nil
}

// ScratchTop exposes the inner classifier's activation-scratch ceiling:
// the first simulated address safe for a co-located tenant's
// allocations (see instrument.Classifier.ScratchTop).
func (h *Hardened) ScratchTop() mem.Addr { return h.inner.ScratchTop() }

// Engine exposes the simulated core (core.Target).
func (h *Hardened) Engine() *march.Engine { return h.inner.Engine() }

// Classify runs one classification with the defense applied (core.Target).
func (h *Hardened) Classify(img *tensor.Tensor) (int, error) {
	cls, err := h.inner.Classify(img)
	if err != nil {
		return 0, err
	}
	if h.level == NoiseInjection {
		h.injectNoise()
	}
	if h.padded {
		h.inner.Engine().PadExtended(h.pad)
	}
	return cls, nil
}

// injectNoise touches a random number of random lines in the scratch
// buffer, decoupling total cache traffic from the input.
func (h *Hardened) injectNoise() {
	eng := h.inner.Engine()
	n := noiseLines/2 + h.rng.Intn(noiseLines) // uniform in [noiseLines/2, 3·noiseLines/2)
	span := int(h.region.Size / 64)
	for i := 0; i < n; i++ {
		line := h.rng.Intn(span)
		eng.Load(h.region.Base+mem.Addr(line*64), 4)
	}
	eng.Ops(uint64(2 * n))
}

// Deploy is the one victim-deployment recipe every campaign stage
// shares: net on a fresh SimHierarchy engine whose measurement noise is
// seeded from seed (none when noNoise), hardened per cfg with its
// runtime-jitter and dummy-traffic randomness seeded from seed+1.
// Pipeline shards deploy with their shard seed, so every stateful
// structure of a deployment derives from that one value.
func Deploy(net *nn.Network, seed int64, noNoise bool, cfg Config) (*Hardened, error) {
	var noise *march.NoiseModel
	if !noNoise {
		noise = march.DefaultNoise(seed)
	}
	engine, err := march.NewEngine(march.Config{Hierarchy: instrument.SimHierarchy(), Noise: noise})
	if err != nil {
		return nil, err
	}
	cfg.Seed = seed + 1
	return New(net, engine, cfg)
}
