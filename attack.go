package repro

// The attack stage: the exploitation counterpart of EvaluateCtx. Where the
// Evaluator reports that HPC distributions are *distinguishable*, the
// attack stage quantifies that they are *exploitable* — a profiling
// adversary (Gaussian template and kNN, following the paper's threat model
// and Wei et al.'s input-recovery direction) is trained on a deterministic
// profiling split and scored on held-out attack runs, all executed on the
// same concurrent sharded pipeline as the evaluation campaigns. Every
// observation derives from the root seed via core.DeriveSeed, so the
// confusion matrices are bit-for-bit identical at any worker count.

import (
	"context"
	"fmt"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/march"
	"repro/internal/obs"
)

// AttackResult is the attack stage's output: confusion matrices and
// accuracies of both attackers over the held-out observations.
type AttackResult = attack.Result

// ConfusionMatrix tallies attack outcomes, Matrix[true][predicted].
type ConfusionMatrix = attack.ConfusionMatrix

// AttackConfig controls an end-to-end attack campaign. The zero value
// profiles 100 classifications per category and attacks 60 held-out ones
// with the paper's base events on all four paper categories.
type AttackConfig struct {
	Classes []int
	Events  []Event
	// ProfileRuns is the adversary's profiling budget per class; default
	// 100.
	ProfileRuns int
	// AttackRuns is the number of held-out observations per class the
	// attackers are scored on; default 60.
	AttackRuns int
	// K is the kNN neighbourhood size; default 5 (clamped to the profiling
	// set).
	K int
	// Workers is the pipeline worker count; 0 → GOMAXPROCS. The attack
	// stage always runs on the concurrent sharded pipeline.
	Workers int
	// Seed is the campaign root seed; 0 uses the scenario seed. Attack
	// observations are derived in a separate seed domain from evaluation
	// campaigns, so the adversary never replays the Evaluator's traces.
	Seed int64
	// Processes distributes shard execution over that many shardworker OS
	// processes through the distributed audit fabric; 0 keeps execution
	// in-process. Confusion matrices are byte-identical either way.
	Processes int
	// Fabric configures the fabric when Processes ≥ 1.
	Fabric FabricConfig
	// Obs, when non-nil, records campaign telemetry. Observational
	// output only: results are byte-identical with or without it.
	Obs *obs.Recorder
}

func (c AttackConfig) withDefaults() AttackConfig {
	if len(c.Classes) == 0 {
		c.Classes = PaperClasses()
	}
	if len(c.Events) == 0 {
		c.Events = march.BaseEvents()
	}
	if c.ProfileRuns <= 0 {
		c.ProfileRuns = 100
	}
	if c.AttackRuns <= 0 {
		c.AttackRuns = 60
	}
	if c.K <= 0 {
		c.K = 5
	}
	return c
}

// Attack runs the attack stage against the scenario at its configured
// defense level.
func (s *Scenario) Attack(ctx context.Context, cfg AttackConfig) (*AttackResult, error) {
	return s.AttackGrouped(ctx, s.Config.Defense, cfg)
}

// AttackGrouped runs the attack stage at an explicit defense level over an
// arbitrarily wide event list. Event sets wider than the HPC register file
// cannot be counted in one session, so they are split into register-sized
// groups, each collected as its own pipeline campaign (with a
// group-derived root seed), and the per-run profiles are joined per
// (class, run) — the multi-session feature collection a real perf-bound
// adversary must perform. The profiling/attack split is positional over
// the deterministic merge, so results are identical at any worker count.
func (s *Scenario) AttackGrouped(ctx context.Context, level DefenseLevel, cfg AttackConfig) (*AttackResult, error) {
	cfg = cfg.withDefaults()
	// Fail bad budgets before any collection: profiling and attack runs
	// are per-class, and templates need at least two profiling samples.
	if cfg.ProfileRuns < 2 {
		return nil, fmt.Errorf("repro: attack needs at least 2 profiling runs per class, got %d", cfg.ProfileRuns)
	}
	root := cfg.Seed
	if root == 0 {
		root = s.Config.Seed
	}
	spec := s.workerSpec(StageAttack, level, cfg.Events)
	spec.Classes, spec.RunsPerClass = cfg.Classes, cfg.ProfileRuns+cfg.AttackRuns
	c, err := s.newCollector(spec, runOpts{workers: cfg.Workers, procs: cfg.Processes, fabric: cfg.Fabric, obs: cfg.Obs})
	if err != nil {
		return nil, err
	}
	// Domain 2 separates attack observations from evaluation campaigns
	// (EvaluateGrouped derives with domain 1).
	byClass, err := c.profiles(ctx, func(g int) int64 { return core.DeriveSeed(root, g, 2) })
	if err != nil {
		return nil, err
	}

	cfg.Obs.SetPhase("attack")
	defer cfg.Obs.Span("pipeline", "attack").End()
	profSet, atkSet, err := attack.Split(byClass, cfg.ProfileRuns)
	if err != nil {
		return nil, err
	}
	return attack.Evaluate(fmt.Sprintf("%s/%s", s.Config.Dataset, level), cfg.Events, profSet, atkSet, cfg.K)
}
