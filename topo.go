package repro

// The topology-recovery stage: the full reverse engineering the paper's
// title asks about. Where the archid stage recovers *which zoo member* is
// deployed, this stage reconstructs an architecture the attacker has
// never profiled — layer count, per-layer kinds and hyper-parameters —
// from the per-layer side-channel evidence stream, CSI-NN style. The
// attacker's segmenter, kind classifier and hyper-parameter estimators
// are fitted on a training zoo of random architectures that is disjoint
// from the held-out victim zoo by construction, and every recovered spec
// is rebuilt and validated against measured victim profiles collected
// through the concurrent sharded pipeline (see internal/topo).

import (
	"context"

	"repro/internal/march"
	"repro/internal/obs"
	"repro/internal/topo"
)

// TopoResult is the topology-recovery stage's output: per-victim
// reconstruction scorecards plus campaign aggregates.
type TopoResult = topo.Result

// TopoConfig controls a topology-recovery campaign. The zero value
// reconstructs 6 held-out victims with models trained on an 8-member zoo,
// observing 8 pipeline runs per victim on instructions + L1-dcache-loads.
type TopoConfig struct {
	// Events are the monitored pipeline events; default instructions and
	// L1-dcache-loads (the footprint-verification channels).
	Events []Event
	// TrainZoo / Holdout are the training and held-out zoo sizes;
	// defaults 8 / 6. The zoos are always disjoint.
	TrainZoo, Holdout int
	// Runs is the measured pipeline observations per victim; default 8.
	Runs int
	// Quantum is the trace-sampling quantum in instructions; default
	// topo.DefaultQuantum.
	Quantum uint64
	// Workers is the pipeline worker count; 0 → GOMAXPROCS. It also fans
	// out the per-network reference measurements (zoo traces, envelope
	// footprints, rebuilt-victim footprint checks); results are
	// byte-identical at any value.
	Workers int
	// Seed is the campaign root seed; 0 uses the scenario seed. Zoo
	// generation, weights and observations derive from it in domains
	// disjoint from every other stage.
	Seed int64
	// ShardRuns bounds measured runs per shard; 0 uses the pipeline
	// default.
	ShardRuns int
	// MaxInputs caps the shared input pool taken from the scenario's test
	// split; 0 uses every test image.
	MaxInputs int
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

// Topo runs the topology-recovery stage against held-out random victims
// at the scenario's configured defense level.
func (s *Scenario) Topo(ctx context.Context, cfg TopoConfig) (*TopoResult, error) {
	return s.TopoGrouped(ctx, s.Config.Defense, cfg)
}

// TopoGrouped runs the topology-recovery stage at an explicit defense
// level over an arbitrarily wide event list. Event sets wider than the
// HPC register file are split into register-sized groups, each collected
// as its own pipeline session against the *same* deterministic victims,
// and the per-run profiles are joined per (victim, run). Results are
// bit-identical at any worker count.
func (s *Scenario) TopoGrouped(ctx context.Context, level DefenseLevel, cfg TopoConfig) (*TopoResult, error) {
	seed := cfg.Seed
	if seed == 0 {
		seed = s.Config.Seed
	}
	events := cfg.Events
	if len(events) == 0 {
		events = []Event{EvInstructions, march.EvL1DLoads}
	}
	spec := s.workerSpec(StageTopo, level, events)
	spec.Seed, spec.MaxInputs, spec.TrainZoo, spec.Holdout, spec.Runs, spec.Quantum, spec.ShardRuns =
		seed, cfg.MaxInputs, cfg.TrainZoo, cfg.Holdout, cfg.Runs, cfg.Quantum, cfg.ShardRuns
	c, err := s.newCollector(spec, runOpts{workers: cfg.Workers, procs: cfg.Processes, fabric: cfg.Fabric, obs: cfg.Obs})
	if err != nil {
		return nil, err
	}
	byVictim, err := c.profiles(ctx, nil)
	if err != nil {
		return nil, err
	}
	return c.camp.(*topo.Campaign).Score(events, byVictim)
}
