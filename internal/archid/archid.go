// Package archid is the architecture-fingerprinting stage: the attack the
// paper's title promises but the input-recovery stages never ask — *which
// model architecture is running at all*. Following CSI-NN (Batina et al.),
// the adversary holds a hypothesis space of plausible deployments (the
// internal/nn model zoo), profiles each candidate's HPC footprint, and
// recovers the deployed architecture from a single observed
// classification's counters.
//
// The stage reuses the whole existing machinery with the *architecture id*
// as the class label: per-architecture profiles are collected through the
// concurrent sharded pipeline (one victim deployment per shard, built by a
// class-aware factory), split and scored by the same Gaussian-template and
// kNN attackers as the input-recovery stage, and every observation derives
// from the root seed — so results are bit-identical at any worker count.
//
// Unlike the input-recovery scenario, hardening the *kernels* is not
// enough here: a constant-time network still executes its own
// architecture's fixed instruction and memory stream, which fingerprints
// it perfectly. The constant-time deployment therefore additionally pads
// every classification to the zoo-wide footprint envelope (dummy
// arithmetic, retired no-op branches, LLC filler traffic, stall cycles) —
// the natural extension of the paper's "indistinguishable CPU footprint"
// countermeasure from the input secret to the model secret. Baseline,
// dense-execution and noise-injection deployments stay unpadded, so the
// stage quantifies exactly how much each level leaks about the model.
package archid

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/defense"
	"repro/internal/hpc"
	"repro/internal/instrument"
	"repro/internal/march"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/tensor"
)

// Seed-derivation domains (core.DeriveSeed's third argument), disjoint
// from the evaluation (0, 1) and attack (2, 3) stages.
const (
	// SeedDomainWeights derives the zoo's per-architecture weights (see
	// Nets); the scenario's padded-envelope hypothesis set reuses it.
	SeedDomainWeights  = 10
	seedDomainPipeline = 11 // collection campaign root
)

// Config controls an architecture-fingerprinting campaign. The zero value
// (plus a Zoo and Inputs) profiles 40 and attacks 20 classifications per
// architecture at the baseline level. The monitored events are
// per-session inputs to Collect and Score.
type Config struct {
	// Name identifies the campaign in the result ("mnist/baseline").
	Name string
	// Zoo is the hypothesis space of candidate architectures (≥2 specs).
	Zoo *nn.Zoo
	// Inputs is the shared image pool every candidate deployment
	// classifies; run r uses Inputs[r%len(Inputs)]. The secret is the
	// model, not the input, so all architectures see the same pool.
	Inputs []*tensor.Tensor
	// Level hardens every candidate deployment; default Baseline.
	Level defense.Level
	// ProfileRuns / AttackRuns are per-architecture observation budgets;
	// defaults 40 / 20.
	ProfileRuns, AttackRuns int
	// K is the kNN neighbourhood size; default 5 (clamped by the attacker).
	K int
	// Workers is the pipeline worker count; 0 → GOMAXPROCS. It also fans
	// out the per-victim noise-free reference measurements (layer
	// evidence, envelope footprints); results are byte-identical at any
	// value.
	Workers int
	// Seed is the campaign root seed; default 1. Weights, shard seeds,
	// noise and jitter all derive from it.
	Seed int64
	// DisableRuntime removes the simulated framework overhead.
	DisableRuntime bool
	// DisableNoise removes measurement noise (deterministic counts).
	DisableNoise bool
	// NoPad disables the envelope padding that ConstantTime and
	// PaddedEnvelope deployments otherwise apply (ablation: shows that
	// per-kernel constant time alone does not hide the architecture).
	NoPad bool
	// Obs, when non-nil, records campaign telemetry. Observational
	// output only — results are byte-identical with or without it.
	Obs *obs.Recorder
}

func (c Config) withDefaults() Config {
	if c.Name == "" {
		c.Name = fmt.Sprintf("archid/%s", c.Level)
	}
	if c.ProfileRuns <= 0 {
		c.ProfileRuns = 40
	}
	if c.AttackRuns <= 0 {
		c.AttackRuns = 20
	}
	if c.K <= 0 {
		c.K = 5
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

func (c Config) validate() error {
	if c.Zoo == nil || c.Zoo.Len() < 2 {
		n := 0
		if c.Zoo != nil {
			n = c.Zoo.Len()
		}
		return fmt.Errorf("archid: need a zoo of at least 2 architectures, got %d", n)
	}
	if len(c.Inputs) == 0 {
		return fmt.Errorf("archid: need at least one input image")
	}
	if c.ProfileRuns < 2 {
		return fmt.Errorf("archid: need at least 2 profiling runs per architecture, got %d", c.ProfileRuns)
	}
	if c.AttackRuns < 1 {
		return fmt.Errorf("archid: need at least 1 attack run per architecture, got %d", c.AttackRuns)
	}
	return nil
}

// SpecInfo is the metadata of one zoo architecture, derived from its
// stack, as reported in results and goldens.
type SpecInfo = nn.SpecInfo

// Result is the outcome of one fingerprinting campaign.
type Result struct {
	// Attack holds the confusion matrices and accuracies of both
	// attackers over the architecture labels.
	Attack *attack.Result
	// Specs are the zoo's architectures in ID (= class label) order.
	Specs []SpecInfo
	// Evidence is the per-architecture layer-level fingerprint an
	// instrumenting analyst additionally recovers (CSI-NN's layer counts).
	Evidence []LayerEvidence
	// Level is the hardening level every deployment ran at.
	Level defense.Level
	// Padded reports whether the constant-time envelope pad was applied.
	Padded bool
	// Seed is the resolved root seed the campaign derived every weight,
	// shard seed and noise stream from — the value that reproduces the
	// result at any worker count.
	Seed int64
}

// ChanceLevel is the accuracy of guessing the architecture uniformly.
func (r *Result) ChanceLevel() float64 { return r.Attack.ChanceLevel() }

// Nets builds every zoo member with weights derived deterministically
// from the campaign seed: spec i is constructed from
// DeriveSeed(seed, i, domain) alone, so any process replaying the
// campaign holds bit-identical victims. The fingerprinting zoo uses
// SeedDomainWeights; topology recovery builds its training and victim
// zoos in its own domains.
func Nets(zoo *nn.Zoo, seed int64, domain int) ([]*nn.Network, error) {
	if zoo == nil {
		return nil, fmt.Errorf("archid: nil zoo")
	}
	nets := make([]*nn.Network, zoo.Len())
	for _, s := range zoo.Infos() {
		net, err := zoo.Build(s.ID, core.DeriveSeed(seed, s.ID, domain))
		if err != nil {
			return nil, fmt.Errorf("archid: building %s: %w", s.Name, err)
		}
		nets[s.ID] = net
	}
	return nets, nil
}

// Deployment is the victim side of a model-recovery campaign, shared by
// the fingerprinting and topology-recovery stages: the deterministic
// victims (victim i is class label i), the level and envelope every
// shard deploys them at, and the budget of one collection session. It
// owns the stages' one collection path — Session, Collect, Pools and the
// class-aware factory — so every recovery shard deploys through
// defense.Deploy exactly as the scenario stages do. Multi-session
// campaigns (the per-register-group collections of a wide event set)
// reuse one Deployment, so sessions observe the same victims with
// disjoint observation seeds.
type Deployment struct {
	// Nets are the victims; class c deploys Nets[c].
	Nets []*nn.Network
	// Level is the resolved hardening every shard deploys at; Env is the
	// victims' footprint envelope, non-nil iff the deployment is padded
	// (see Pad).
	Level defense.Level
	Env   *defense.Envelope
	// Inputs is the shared pool: run r of every victim classifies
	// Inputs[r%len(Inputs)].
	Inputs []*tensor.Tensor
	// Runs is each victim's measured-run budget per session.
	Runs int
	// Seed and Domain derive session g's pipeline root seed,
	// DeriveSeed(Seed, g, Domain).
	Seed   int64
	Domain int
	// Workers is the pipeline worker count (0 → GOMAXPROCS).
	Workers int
	// Obs, when non-nil, records session telemetry.
	Obs *obs.Recorder
	// DisableRuntime and DisableNoise remove the simulated framework
	// overhead and the measurement noise from every deployment.
	DisableRuntime, DisableNoise bool
}

// Pad measures the victims' footprint envelope over Inputs[0] and
// switches the deployment to the PaddedEnvelope level, topping every
// victim up to it (envelope member index = class).
func (d *Deployment) Pad() error {
	env, err := defense.NewEnvelope(d.Nets, d.Inputs[0], d.Workers)
	if err != nil {
		return err
	}
	d.Level, d.Env = defense.PaddedEnvelope, env
	return nil
}

// Padded reports whether the victims are envelope-padded.
func (d *Deployment) Padded() bool { return d.Env != nil }

// Collect runs one collection session on the concurrent sharded pipeline
// and returns the labelled per-run profiles, byVictim[class][run]. Each
// shard deploys a fresh instance of its class's victim through the
// class-aware factory.
func (d *Deployment) Collect(ctx context.Context, events []march.Event, session int) (map[int][]hpc.Profile, error) {
	p, factory, err := d.Session(events, session)
	if err != nil {
		return nil, err
	}
	return p.CollectProfilesByClass(ctx, factory, d.Pools())
}

// Session builds one collection session: its pipeline (session-derived
// root seed over the per-victim run budget) and the class-aware factory
// that deploys a shard's victim. The distributed fabric splits the two
// across processes — the coordinator plans shards and merges payloads
// with the pipeline, a shardworker process executes plans with the
// factory — and both sides rebuild identical state from the campaign
// configuration alone, which keeps fabric campaigns byte-identical to
// in-process ones.
func (d *Deployment) Session(events []march.Event, session int) (*pipeline.Pipeline, pipeline.ClassTargetFactory, error) {
	if len(events) == 0 || len(events) > hpc.DefaultCounters {
		return nil, nil, fmt.Errorf("archid: a session counts 1..%d events, got %d (split wide sets into register groups)",
			hpc.DefaultCounters, len(events))
	}
	ev, err := core.NewEvaluator(core.Config{Events: events, RunsPerClass: d.Runs, Obs: d.Obs})
	if err != nil {
		return nil, nil, err
	}
	p, err := pipeline.New(ev, pipeline.Config{
		Workers:  d.Workers,
		RootSeed: core.DeriveSeed(d.Seed, session, d.Domain),
		Obs:      d.Obs,
	})
	if err != nil {
		return nil, nil, err
	}
	return p, d.factory(), nil
}

// Pools returns the per-victim input pools of a collection session:
// every victim classifies the shared pool.
func (d *Deployment) Pools() map[int][]*tensor.Tensor {
	perClass := make(map[int][]*tensor.Tensor, len(d.Nets))
	for id := range d.Nets {
		perClass[id] = d.Inputs
	}
	return perClass
}

// factory builds the class-aware target factory: a shard deploys victim
// `class` at the resolved level, padded to its envelope member when the
// deployment is padded, with every stateful structure seeded from the
// shard seed.
func (d *Deployment) factory() pipeline.ClassTargetFactory {
	nets, level, env, noNoise, noRuntime := d.Nets, d.Level, d.Env, d.DisableNoise, d.DisableRuntime
	return func(class int, seed int64) (core.Target, error) {
		if class < 0 || class >= len(nets) {
			return nil, fmt.Errorf("archid: no victim %d", class)
		}
		rt := instrument.DefaultRuntime()
		if noRuntime {
			rt = instrument.NoRuntime()
		}
		return defense.Deploy(nets[class], seed, noNoise, defense.Config{
			Level:         level,
			Runtime:       rt,
			Envelope:      env,
			EnvelopeIndex: class,
		})
	}
}

// Campaign is the precomputed per-campaign state: the zoo victims'
// Deployment (envelope-padded under ConstantTime/PaddedEnvelope unless
// NoPad) and their layer evidence. Multi-session campaigns reuse one
// Campaign so the victims are built (and the envelope measured) exactly
// once.
type Campaign struct {
	Deployment
	cfg      Config
	evidence []LayerEvidence
}

// NewCampaign validates the configuration and precomputes the victims,
// envelope and evidence. Padded deployments run at PaddedEnvelope; the
// NoPad ablation of PaddedEnvelope falls back to the bare constant-time
// kernels.
func NewCampaign(cfg Config) (*Campaign, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	nets, err := Nets(cfg.Zoo, cfg.Seed, SeedDomainWeights)
	if err != nil {
		return nil, err
	}
	c := &Campaign{cfg: cfg, Deployment: Deployment{
		Nets:           nets,
		Level:          cfg.Level,
		Inputs:         cfg.Inputs,
		Runs:           cfg.ProfileRuns + cfg.AttackRuns,
		Seed:           cfg.Seed,
		Domain:         seedDomainPipeline,
		Workers:        cfg.Workers,
		Obs:            cfg.Obs,
		DisableRuntime: cfg.DisableRuntime,
		DisableNoise:   cfg.DisableNoise,
	}}
	switch {
	case (cfg.Level == defense.ConstantTime || cfg.Level == defense.PaddedEnvelope) && !cfg.NoPad:
		if err := c.Pad(); err != nil {
			return nil, err
		}
	case cfg.Level == defense.PaddedEnvelope:
		c.Level = defense.ConstantTime
	}
	if c.evidence, err = evidenceForNets(cfg.Zoo, nets, cfg.Inputs[0], cfg.Workers); err != nil {
		return nil, err
	}
	return c, nil
}

// Score fits and scores both attackers on collected profiles (events must
// list the joined feature order when profiles were merged across
// sessions) and attaches the zoo metadata and layer evidence.
func (c *Campaign) Score(events []march.Event, byArch map[int][]hpc.Profile) (*Result, error) {
	profSet, atkSet, err := attack.Split(byArch, c.cfg.ProfileRuns)
	if err != nil {
		return nil, err
	}
	res, err := attack.Evaluate(c.cfg.Name, events, profSet, atkSet, c.cfg.K)
	if err != nil {
		return nil, err
	}
	return &Result{
		Attack:   res,
		Specs:    c.cfg.Zoo.Infos(),
		Evidence: c.evidence,
		Level:    c.cfg.Level,
		Padded:   c.Padded(),
		Seed:     c.cfg.Seed,
	}, nil
}

// LayerEvidence is the per-architecture layer-level fingerprint recovered
// from instrumented execution (the CSI-NN observation: layer counts and
// kinds are visible in the side channel). It is computed on a noise-free
// reference deployment, so it is deterministic.
type LayerEvidence struct {
	ArchID int
	Name   string
	// Layers is the number of instrumented layers observed (the runtime
	// pseudo-layer excluded); Kinds is the layer-kind histogram.
	Layers int
	Kinds  map[string]int
	// PerLayer lists each layer's instruction and L1-load footprint in
	// execution order — the trace CSI-NN reads layer boundaries from.
	PerLayer []LayerProfile
}

// LayerProfile is one layer's deterministic event footprint.
type LayerProfile struct {
	Index        int    `json:"index"`
	Kind         string `json:"kind"`
	Instructions uint64 `json:"instructions"`
	L1DLoads     uint64 `json:"l1d_loads"`
}

// evidenceForNets computes the layer evidence for every zoo architecture
// by replaying one attributed classification of input on a noise-free
// baseline deployment of each already-built victim, one victim per job
// over workers goroutines (pipeline.Each). Each job fills only its own
// slot, so the evidence is identical at any worker count.
func evidenceForNets(zoo *nn.Zoo, nets []*nn.Network, input *tensor.Tensor, workers int) ([]LayerEvidence, error) {
	specs := zoo.Infos()
	out := make([]LayerEvidence, len(specs))
	err := pipeline.Each(workers, len(specs), func(_, i int) error {
		s := specs[i]
		cl, err := defense.Reference(nets[s.ID], defense.Baseline)
		if err != nil {
			return fmt.Errorf("archid: instrumenting %s: %w", s.Name, err)
		}
		_, attribution, err := cl.ClassifyWithAttribution(input)
		if err != nil {
			return fmt.Errorf("archid: attributing %s: %w", s.Name, err)
		}
		layers, kinds := instrument.SummarizeAttribution(attribution)
		ev := LayerEvidence{ArchID: s.ID, Name: s.Name, Layers: layers, Kinds: kinds}
		for _, lc := range attribution {
			if lc.Index < 0 {
				continue
			}
			ev.PerLayer = append(ev.PerLayer, LayerProfile{
				Index:        lc.Index,
				Kind:         lc.Kind,
				Instructions: lc.Counts.Get(march.EvInstructions),
				L1DLoads:     lc.Counts.Get(march.EvL1DLoads),
			})
		}
		out[i] = ev
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ArchID < out[j].ArchID })
	return out, nil
}
