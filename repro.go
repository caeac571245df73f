// Package repro is the public API of the reproduction of "How Secure are
// Deep Learning Algorithms from Side-Channel based Reverse Engineering?"
// (Alam & Mukhopadhyay, DAC 2019).
//
// It ties the substrates together into the paper's two case studies:
//
//   - a Scenario bundles a synthetic dataset, a CNN trained on it, and an
//     instrumented execution of that CNN on a simulated core;
//   - Evaluate runs the paper's Evaluator (HPC collection + pairwise Welch
//     t-tests) against the scenario and reports alarms;
//   - the experiment helpers regenerate every table and figure of the
//     paper's evaluation section (see bench_test.go and cmd/figures).
//
// Quickstart:
//
//	s, err := repro.NewScenario(repro.ScenarioConfig{Dataset: repro.DatasetMNIST})
//	if err != nil { ... }
//	rep, err := s.Evaluate(repro.EvalConfig{})
//	if err != nil { ... }
//	if rep.Leaky() { fmt.Println("input privacy leak detected") }
package repro

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"sync"

	"repro/internal/archid"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/defense"
	"repro/internal/hpc"
	"repro/internal/instrument"
	"repro/internal/march"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/tensor"
)

// Dataset selects one of the paper's two case studies.
type Dataset string

// The two datasets of the paper's evaluation.
const (
	DatasetMNIST Dataset = "mnist"
	DatasetCIFAR Dataset = "cifar"
)

// Re-exported types so downstream users need only this package for the
// common workflow.
type (
	// Report is the evaluator's output (alarms, tests, distributions).
	Report = core.Report
	// Event is a hardware performance counter event.
	Event = march.Event
	// DefenseLevel selects a hardening strategy for the classifier.
	DefenseLevel = defense.Level
)

// Events (Figure 2(b) order).
const (
	EvBranches        = march.EvBranches
	EvBranchMisses    = march.EvBranchMisses
	EvBusCycles       = march.EvBusCycles
	EvCacheMisses     = march.EvCacheMisses
	EvCacheReferences = march.EvCacheReferences
	EvCycles          = march.EvCycles
	EvInstructions    = march.EvInstructions
	EvRefCycles       = march.EvRefCycles
)

// AllPaperEvents returns the eight events of the paper's Figure 2(b).
func AllPaperEvents() []Event { return march.AllEvents() }

// Defense levels.
const (
	DefenseBaseline       = defense.Baseline
	DefenseDense          = defense.DenseExecution
	DefenseConstantTime   = defense.ConstantTime
	DefenseNoiseInjection = defense.NoiseInjection
	// DefensePaddedEnvelope is constant-time kernels plus envelope padding
	// to the default zoo's footprint envelope — the hardening that hides
	// the *model*, not just the input (see internal/defense.PaddedEnvelope).
	DefensePaddedEnvelope = defense.PaddedEnvelope
)

// AllDefenses returns every supported hardening level in severity order.
func AllDefenses() []DefenseLevel {
	return []DefenseLevel{DefenseBaseline, DefenseDense, DefenseConstantTime,
		DefenseNoiseInjection, DefensePaddedEnvelope}
}

// ParseDefense resolves a defense-level name as printed by
// DefenseLevel.String() — the single mapping the CLIs share.
func ParseDefense(s string) (DefenseLevel, error) {
	for _, l := range AllDefenses() {
		if s == l.String() {
			return l, nil
		}
	}
	return 0, fmt.Errorf("repro: unknown defense %q (want baseline, dense-execution, constant-time, noise-injection or padded-envelope)", s)
}

// ParseClasses parses a comma-separated category-label list
// ("1,2,3,4") — the single -classes mapping the CLIs share.
func ParseClasses(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("repro: bad class list %q: %w", s, err)
		}
		if slices.Contains(out, n) {
			return nil, fmt.Errorf("repro: bad class list %q: category %d listed twice", s, n)
		}
		out = append(out, n)
	}
	return out, nil
}

// ScenarioConfig controls scenario construction. The zero value (plus a
// Dataset) reproduces the paper's setup.
type ScenarioConfig struct {
	Dataset Dataset
	// Seed drives dataset generation, weight init and noise; default 1.
	Seed int64
	// PerClassTrain / PerClassTest size the synthetic dataset; defaults
	// 120 / 60.
	PerClassTrain, PerClassTest int
	// Epochs of SGD training; default 2.
	Epochs int
	// LR is the SGD learning rate; defaults to 0.05 for MNIST and 0.01
	// for CIFAR (the larger 3-channel net diverges at 0.05).
	LR float64
	// Defense hardens the deployed classifier; default Baseline (leaky).
	Defense DefenseLevel
	// DisableRuntime removes the simulated framework overhead (pure
	// kernel measurements; used by ablations).
	DisableRuntime bool
	// DisableNoise removes measurement noise (deterministic counts).
	DisableNoise bool
	// TrainProgress, when non-nil, receives per-epoch training loss and
	// accuracy (used by cmd/train).
	TrainProgress func(epoch int, loss, acc float64)
}

func (c ScenarioConfig) withDefaults() ScenarioConfig {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.PerClassTrain <= 0 {
		c.PerClassTrain = 120
	}
	if c.PerClassTest <= 0 {
		c.PerClassTest = 60
	}
	if c.Epochs <= 0 {
		c.Epochs = 2
	}
	return c
}

// Scenario is one deployed case study: data, model, simulated core and the
// instrumented classifier running on it.
type Scenario struct {
	Config ScenarioConfig
	Arch   nn.Arch
	Train  *dataset.Set
	Test   *dataset.Set
	Net    *nn.Network
	Engine *march.Engine
	// Target is the classifier under evaluation (satisfies core.Target).
	Target core.Target
	// TestAccuracy of the trained model on the synthetic test split.
	TestAccuracy float64

	// Lazily-built padded-envelope deployment state: the hypothesis-set
	// envelope (default zoo + the scenario's own trained network) is
	// measured once and shared by the deployed target and every pipeline
	// shard that deploys at DefensePaddedEnvelope.
	envOnce sync.Once
	env     *defense.Envelope
	envIdx  int
	envErr  error
}

// deploymentEnvelope lazily measures the scenario's padded-envelope
// hypothesis set: the default zoo's candidate architectures plus the
// scenario's own trained network as the final member (so its pad is
// well-defined and non-negative too).
func (s *Scenario) deploymentEnvelope() (*defense.Envelope, int, error) {
	s.envOnce.Do(func() {
		zoo, err := s.ArchZoo()
		if err != nil {
			s.envErr = err
			return
		}
		nets, err := archid.Nets(zoo, s.Config.Seed, archid.SeedDomainWeights)
		if err != nil {
			s.envErr = err
			return
		}
		nets = append(nets, s.Net)
		s.envIdx = len(nets) - 1
		// One worker: measured serially, because shards and fabric worker
		// processes may each measure this set at the same time.
		s.env, s.envErr = defense.NewEnvelope(nets, s.Test.Inputs()[0], 1)
	})
	return s.env, s.envIdx, s.envErr
}

// NewScenario generates the dataset, trains the CNN, and deploys it
// instrumented on a simulated core.
func NewScenario(cfg ScenarioConfig) (*Scenario, error) {
	s, err := newScenarioData(cfg)
	if err != nil {
		return nil, err
	}
	net, err := s.trainNet()
	if err != nil {
		return nil, err
	}
	if s.TestAccuracy, err = nn.Accuracy(net, s.Test.Inputs(), s.Test.Labels()); err != nil {
		return nil, err
	}
	return s.deploy(net)
}

// trainNet builds the scenario's network from its seed and trains it on
// the training split.
func (s *Scenario) trainNet() (*nn.Network, error) {
	cfg := s.Config
	net, err := nn.Build(s.Arch, rand.New(rand.NewSource(cfg.Seed+1)))
	if err != nil {
		return nil, err
	}
	lr := cfg.LR
	if lr <= 0 {
		lr = 0.05
		if cfg.Dataset == DatasetCIFAR {
			lr = 0.01
		}
	}
	err = nn.Train(net, s.Train.Inputs(), s.Train.Labels(), nn.TrainConfig{
		Epochs: cfg.Epochs, BatchSize: 16, LR: lr, Momentum: 0.9, Seed: cfg.Seed + 2,
		Progress: cfg.TrainProgress,
	})
	if err != nil {
		return nil, err
	}
	return net, nil
}

// newScenarioData generates the scenario's dataset and resolves its
// architecture: everything but the network.
func newScenarioData(cfg ScenarioConfig) (*Scenario, error) {
	cfg = cfg.withDefaults()
	var (
		arch nn.Arch
		gen  func(dataset.Config) (*dataset.Set, *dataset.Set, error)
	)
	switch cfg.Dataset {
	case DatasetMNIST:
		arch = nn.MNISTArch()
		gen = dataset.MNISTLike
	case DatasetCIFAR:
		arch = nn.CIFARArch()
		gen = dataset.CIFARLike
	default:
		return nil, fmt.Errorf("repro: unknown dataset %q (want %q or %q)", cfg.Dataset, DatasetMNIST, DatasetCIFAR)
	}
	train, test, err := gen(dataset.Config{
		PerClassTrain: cfg.PerClassTrain,
		PerClassTest:  cfg.PerClassTest,
		Seed:          cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	return &Scenario{Config: cfg, Arch: arch, Train: train, Test: test}, nil
}

// deploy is the one deployment tail of a scenario, trained here or
// shipped to a fabric worker: the scenario's own deployment is the shard
// deployment at seed Config.Seed+3, so direct measurements and pipeline
// shards agree.
func (s *Scenario) deploy(net *nn.Network) (*Scenario, error) {
	s.Net = net
	var err error
	if s.Target, err = s.FactoryFor(s.Config.Defense)(s.Config.Seed + 3); err != nil {
		return nil, err
	}
	s.Engine = s.Target.Engine()
	return s, nil
}

// ClassPools groups the test images of the requested categories, the pools
// the Evaluator cycles through. Every campaign stage builds its pools
// here, so a repeated category label fails every stage the same way.
func (s *Scenario) ClassPools(classes ...int) (map[int][]*tensor.Tensor, error) {
	if len(classes) == 0 {
		classes = PaperClasses()
	}
	by := s.Test.ByClass()
	pools := map[int][]*tensor.Tensor{}
	for _, cls := range classes {
		if _, dup := pools[cls]; dup {
			return nil, fmt.Errorf("repro: category %d listed twice", cls)
		}
		idxs := by[cls]
		if len(idxs) == 0 {
			return nil, fmt.Errorf("repro: no test images for category %d", cls)
		}
		for _, i := range idxs {
			pools[cls] = append(pools[cls], s.Test.Samples[i].Image)
		}
	}
	return pools, nil
}

// PaperClasses returns the four categories used throughout the paper's
// evaluation ("without loss of generality, four different categories").
func PaperClasses() []int { return []int{1, 2, 3, 4} }

// EvalConfig controls an evaluation campaign. The zero value reproduces
// the paper's settings (cache-misses and branches, α = 0.05, four
// categories, 300 monitored classifications per category).
type EvalConfig struct {
	Classes      []int
	Events       []Event
	RunsPerClass int
	Alpha        float64
	// Workers fans the concurrent sharded pipeline's collection and
	// testing out over that many workers; 0 → GOMAXPROCS. Workers=1 is
	// the sequential reference execution of the same shard plan, and the
	// report is byte-identical at any value.
	Workers int
	// Seed is the pipeline's root seed, from which every shard's RNG seed
	// is derived; 0 uses the scenario seed.
	Seed int64
	// Processes distributes shard execution over that many shardworker OS
	// processes through the distributed audit fabric (internal/fabric);
	// 0 keeps execution in-process. The shard plan, derived seeds and
	// merge are identical either way, so reports are byte-for-byte the
	// same at any process count. Requires a shardworker binary (see
	// Fabric).
	Processes int
	// Fabric configures the fabric (worker binary, completion journal,
	// transport) when Processes ≥ 1.
	Fabric FabricConfig
	// Obs, when non-nil, records spans, counters and (with Processes ≥ 1)
	// worker-side telemetry for the campaign. Telemetry is observational
	// output only: the report is byte-for-byte identical with or without
	// it, at any worker or process count.
	Obs *obs.Recorder
}

// Evaluate runs the paper's Evaluator against the scenario.
func (s *Scenario) Evaluate(cfg EvalConfig) (*Report, error) {
	return s.EvaluateCtx(context.Background(), cfg)
}

// EvaluateCtx is Evaluate with cancellation. The campaign runs on the
// concurrent sharded pipeline (fresh per-shard engines, deterministic
// per-shard seeds), in-process or — with cfg.Processes ≥ 1 — on
// shardworker OS processes through the distributed audit fabric. Event
// sets wider than the HPC register file run exactly as EvaluateGrouped
// at the scenario's defense level; a set that fits one register group
// uses the root seed itself (cfg.Seed, or the scenario seed) as its
// pipeline root seed.
func (s *Scenario) EvaluateCtx(ctx context.Context, cfg EvalConfig) (*Report, error) {
	if len(cfg.Events) > hpc.DefaultCounters {
		return s.EvaluateGrouped(ctx, s.Config.Defense, cfg)
	}
	return s.evaluate(ctx, s.Config.Defense, cfg, func(root int64, _ int) int64 { return root })
}

// FactoryFor returns a pipeline factory that deploys the scenario's
// trained network at the given defense level on a fresh simulated core
// per shard, letting sweeps reuse one trained scenario across hardening
// strategies without retraining. The factory only reads the shared
// network weights; every stateful structure (engine, caches, predictor,
// noise and jitter RNGs) is rebuilt per shard from the shard seed.
func (s *Scenario) FactoryFor(level DefenseLevel) pipeline.TargetFactory {
	cfg := s.Config
	net := s.Net
	return func(seed int64) (core.Target, error) {
		d := defense.Config{Level: level, Runtime: instrument.DefaultRuntime()}
		if cfg.DisableRuntime {
			d.Runtime = instrument.NoRuntime()
		}
		if level == DefensePaddedEnvelope {
			var err error
			if d.Envelope, d.EnvelopeIndex, err = s.deploymentEnvelope(); err != nil {
				return nil, err
			}
		}
		return defense.Deploy(net, seed, cfg.DisableNoise, d)
	}
}

// Cached default scenarios: building one means generating data and
// training a CNN, so the experiment harness shares them.
var (
	defaultMu     sync.Mutex
	defaultCached = map[Dataset]*Scenario{}
)

// DefaultScenario returns the shared baseline scenario for a dataset,
// building it on first use.
func DefaultScenario(d Dataset) (*Scenario, error) {
	defaultMu.Lock()
	defer defaultMu.Unlock()
	if s, ok := defaultCached[d]; ok {
		return s, nil
	}
	s, err := NewScenario(ScenarioConfig{Dataset: d})
	if err != nil {
		return nil, err
	}
	defaultCached[d] = s
	return s, nil
}
