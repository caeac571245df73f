package repro

// The architecture-fingerprinting stage: the scenario where the secret is
// the *model*, not the input. The adversary of CSI-NN (Batina et al.)
// first asks which architecture is deployed at all; this stage answers
// how well the HPC side channel lets them — a model zoo of candidate
// architectures is deployed one per class label on the sharded pipeline,
// and the same template/kNN attackers that recover input categories
// recover the architecture id instead. It is the first scenario where the
// defense levels are scored on a different secret: per-kernel constant
// time alone does NOT help (each architecture's fixed footprint is its
// fingerprint), so the constant-time deployment additionally pads to the
// zoo-wide footprint envelope (see internal/archid).

import (
	"context"

	"repro/internal/archid"
	"repro/internal/march"
	"repro/internal/nn"
	"repro/internal/obs"
)

// ArchIDResult is the fingerprinting stage's output: attacker confusion
// matrices over architecture labels, zoo metadata and layer evidence.
type ArchIDResult = archid.Result

// ArchIDConfig controls an architecture-fingerprinting campaign. The zero
// value profiles 40 and attacks 20 classifications per architecture with
// the paper's base events over the scenario's default zoo.
type ArchIDConfig struct {
	Events []Event
	// ProfileRuns / AttackRuns are the adversary's per-architecture
	// profiling and held-out scoring budgets; defaults 40 / 20.
	ProfileRuns, AttackRuns int
	// K is the kNN neighbourhood size; default 5.
	K int
	// Workers is the pipeline worker count; 0 → GOMAXPROCS. It also fans
	// out the per-architecture reference measurements (layer evidence,
	// envelope footprints); results are byte-identical at any value.
	Workers int
	// Seed is the campaign root seed; 0 uses the scenario seed. Weight
	// construction and observations derive from it in domains disjoint
	// from the evaluation and input-recovery attack stages.
	Seed int64
	// MaxInputs caps the shared input pool taken from the scenario's test
	// split; 0 uses every test image.
	MaxInputs int
	// NoPad disables the constant-time envelope padding (ablation).
	NoPad bool
	// Processes distributes shard execution over that many shardworker OS
	// processes through the distributed audit fabric; 0 keeps execution
	// in-process. Results are byte-identical either way.
	Processes int
	// Fabric configures the fabric when Processes ≥ 1.
	Fabric FabricConfig
	// Obs, when non-nil, records campaign telemetry. Observational
	// output only — results are byte-identical with or without it.
	Obs *obs.Recorder
}

// ArchZoo returns the scenario's candidate-architecture hypothesis space:
// the default zoo over the scenario's input shape and class count.
func (s *Scenario) ArchZoo() (*nn.Zoo, error) {
	return nn.DefaultZoo(s.Arch.InH, s.Arch.InW, s.Arch.InC, s.Arch.Classes)
}

// ArchID runs the fingerprinting stage against the scenario's zoo at its
// configured defense level.
func (s *Scenario) ArchID(ctx context.Context, cfg ArchIDConfig) (*ArchIDResult, error) {
	return s.ArchIDGrouped(ctx, s.Config.Defense, cfg)
}

// ArchIDGrouped runs the fingerprinting stage at an explicit defense level
// over an arbitrarily wide event list. Event sets wider than the HPC
// register file are split into register-sized groups, each collected as
// its own pipeline session against the *same* deterministic zoo victims
// (weights derive from the root seed alone; only the observation seeds
// differ per session), and the per-run profiles are joined per
// (architecture, run). Results are bit-identical at any worker count.
func (s *Scenario) ArchIDGrouped(ctx context.Context, level DefenseLevel, cfg ArchIDConfig) (*ArchIDResult, error) {
	seed := cfg.Seed
	if seed == 0 {
		seed = s.Config.Seed
	}
	events := cfg.Events
	if len(events) == 0 {
		events = march.BaseEvents()
	}
	spec := s.workerSpec(StageArchID, level, events)
	spec.Seed, spec.ProfileRuns, spec.AttackRuns, spec.MaxInputs, spec.NoPad =
		seed, cfg.ProfileRuns, cfg.AttackRuns, cfg.MaxInputs, cfg.NoPad
	c, err := s.newCollector(spec, runOpts{workers: cfg.Workers, procs: cfg.Processes, fabric: cfg.Fabric, obs: cfg.Obs, k: cfg.K})
	if err != nil {
		return nil, err
	}
	byArch, err := c.profiles(ctx, nil)
	if err != nil {
		return nil, err
	}
	return c.camp.(*archid.Campaign).Score(events, byArch)
}
