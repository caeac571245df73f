package topo

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/archid"
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
// from the evaluation (0, 1), attack (2, 3), sweep (4) and archid
// (10, 11) stages.
const (
	seedDomainTrainZoo       = 20 // training-zoo spec generation
	seedDomainHoldoutZoo     = 21 // held-out victim-zoo spec generation
	seedDomainTrainWeights   = 22 // per-training-member weight construction
	seedDomainHoldoutWeights = 23 // per-victim weight construction
	seedDomainPipeline       = 24 // collection campaign root
	seedDomainRebuild        = 25 // recovered-spec verification weights
)

// Config controls a topology-recovery campaign. The zero value (plus an
// input shape, class count and Inputs) reconstructs 6 held-out victims
// with models trained on an 8-member zoo at the baseline level. The
// monitored events are per-session inputs to Collect and Score.
type Config struct {
	// Name identifies the campaign in the result ("mnist-topo/baseline").
	Name string
	// InH/InW/InC/Classes describe the victims' (public) input interface;
	// both zoos are generated over it.
	InH, InW, InC, Classes int
	// Inputs is the shared image pool; pipeline run r of every victim
	// classifies Inputs[r%len(Inputs)].
	Inputs []*tensor.Tensor
	// Level hardens every victim deployment; default Baseline.
	// PaddedEnvelope pads every victim to the holdout zoo's envelope.
	Level defense.Level
	// TrainSize / HoldoutSize are the zoo sizes; defaults 8 / 6. The two
	// zoos are disjoint by construction: no held-out victim architecture
	// ever appears in the training zoo.
	TrainSize, HoldoutSize int
	// Runs is the measured pipeline observations per victim; default 8.
	Runs int
	// Quantum is the trace-sampling quantum in instructions; default
	// DefaultQuantum.
	Quantum uint64
	// Workers is the pipeline worker count; 0 → GOMAXPROCS. It also fans
	// out the per-network noise-free reference measurements (training
	// and victim traces, envelope footprints, rebuilt-victim footprint
	// checks); results are byte-identical at any value.
	Workers int
	// Seed is the campaign root seed; default 1. Zoo generation, weights,
	// shard seeds and noise all derive from it.
	Seed int64
	// DisableRuntime removes the simulated framework overhead.
	DisableRuntime bool
	// DisableNoise removes measurement noise (deterministic counts).
	DisableNoise bool
	// Obs, when non-nil, records campaign telemetry. Observational
	// output only — results are byte-identical with or without it.
	Obs *obs.Recorder
}

func (c Config) withDefaults() Config {
	if c.Name == "" {
		c.Name = fmt.Sprintf("topo/%s", c.Level)
	}
	if c.TrainSize <= 0 {
		c.TrainSize = 8
	}
	if c.HoldoutSize <= 0 {
		c.HoldoutSize = 6
	}
	if c.Runs <= 0 {
		c.Runs = 8
	}
	if c.Quantum == 0 {
		c.Quantum = DefaultQuantum
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

func (c Config) validate() error {
	if c.InH <= 0 || c.InW <= 0 || c.InC <= 0 || c.Classes <= 1 {
		return fmt.Errorf("topo: bad victim input shape %dx%dx%d/%d classes", c.InH, c.InW, c.InC, c.Classes)
	}
	if len(c.Inputs) == 0 {
		return fmt.Errorf("topo: need at least one input image")
	}
	if c.TrainSize < 2 {
		return fmt.Errorf("topo: need a training zoo of at least 2 architectures, got %d", c.TrainSize)
	}
	if c.HoldoutSize < 1 {
		return fmt.Errorf("topo: need at least 1 held-out victim, got %d", c.HoldoutSize)
	}
	if c.Runs < 2 {
		return fmt.Errorf("topo: need at least 2 measured runs per victim, got %d", c.Runs)
	}
	return nil
}

// LayerGuess is one recovered layer: the classified kind, the regressed
// primary hyper-parameter (conv channels / dense width), the snapped
// kernel size (conv only), and the segment footprint it was read from.
type LayerGuess struct {
	Kind         string `json:"kind"`
	Param        int    `json:"param,omitempty"`
	Kernel       int    `json:"kernel,omitempty"`
	Samples      int    `json:"samples"`
	Instructions uint64 `json:"instructions"`
	L1Loads      uint64 `json:"l1_loads"`
}

// VictimResult is the per-victim reconstruction scorecard.
type VictimResult struct {
	ArchID int    `json:"id"`
	Name   string `json:"name"`
	// True and Recovered are the ground-truth and reconstructed layer
	// stacks (observable layers only; flatten is invisible).
	True      []LayerTruth `json:"true_layers"`
	Recovered []LayerGuess `json:"recovered_layers"`
	// ExactCount reports len(Recovered) == len(True); BoundaryMatch
	// whether the segmenter reproduced the attribution's boundaries
	// sample-exactly.
	ExactCount    bool `json:"exact_count"`
	BoundaryMatch bool `json:"boundary_match"`
	// KindAccuracy is position-aligned kind agreement over
	// max(len(True), len(Recovered)) slots.
	KindAccuracy float64 `json:"kind_accuracy"`
	// ParamRelErr is the mean relative error of the regressed
	// hyper-parameters over kind-matched slots (conv: channels and
	// kernel; dense: width); -1 when no such slot exists.
	ParamRelErr float64 `json:"param_rel_err"`
	// FootprintRelErr is the reconstruct-then-validate check: the
	// recovered spec is rebuilt and its deterministic footprint compared
	// against the victim's measured pipeline profiles on the verification
	// event; -1 when the recovered stack does not build.
	FootprintRelErr float64 `json:"footprint_rel_err"`
}

// Result is the outcome of one topology-recovery campaign.
type Result struct {
	Name    string        `json:"name"`
	Level   defense.Level `json:"level"`
	Padded  bool          `json:"padded"`
	Seed    int64         `json:"seed"`
	Quantum uint64        `json:"quantum"`
	// Events are the pipeline session events (joined order for
	// multi-session campaigns).
	Events []march.Event `json:"events"`
	// TrainSpecs / HoldoutSpecs are the two disjoint hypothesis spaces.
	TrainSpecs   []nn.SpecInfo `json:"train_specs"`
	HoldoutSpecs []nn.SpecInfo `json:"holdout_specs"`
	// Kinds are the layer kinds the classifier discriminates; ChanceKind
	// is 1/len(Kinds).
	Kinds      []string `json:"kinds"`
	ChanceKind float64  `json:"chance_kind"`
	// Victims are the per-victim scorecards in architecture-id order.
	Victims []VictimResult `json:"victims"`
	// Aggregates over the holdout zoo. ExactCountRate is the fraction of
	// victims whose layer count was recovered exactly; MeanKindAccuracy
	// averages the per-victim kind accuracies; the error means average
	// the non-sentinel per-victim values (-1 when none exist).
	ExactCountRate      float64 `json:"exact_count_rate"`
	MeanKindAccuracy    float64 `json:"mean_kind_accuracy"`
	MeanParamRelErr     float64 `json:"mean_param_rel_err"`
	MeanFootprintRelErr float64 `json:"mean_footprint_rel_err"`
}

// Campaign is the precomputed per-campaign state: the two disjoint zoos,
// the held-out victims' archid.Deployment (envelope-padded at
// PaddedEnvelope), the training networks and fitted attacker models, the
// victim traces and their reconstructions. Multi-session campaigns reuse
// one Campaign so the zoos are generated (and the models fitted) exactly
// once; only the pipeline collection is per-session.
type Campaign struct {
	archid.Deployment
	cfg       Config
	trainZoo  *nn.Zoo
	holdZoo   *nn.Zoo
	trainNets []*nn.Network
	kindModel *KindModel
	est       estimators
	truths    [][]LayerTruth
	recovered [][]LayerGuess
	boundary  []bool // per-victim segmenter-vs-attribution agreement
}

// NewCampaign validates the configuration, generates the disjoint zoos,
// fits the attacker models on the training zoo and reconstructs every
// held-out victim from its flat trace.
func NewCampaign(cfg Config) (*Campaign, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	c := &Campaign{cfg: cfg}
	var err error
	c.trainZoo, err = nn.GenerateZoo(nn.ZooGenConfig{
		InH: cfg.InH, InW: cfg.InW, InC: cfg.InC, Classes: cfg.Classes,
		Size: cfg.TrainSize, Seed: core.DeriveSeed(cfg.Seed, 0, seedDomainTrainZoo),
	})
	if err != nil {
		return nil, fmt.Errorf("topo: training zoo: %w", err)
	}
	c.holdZoo, err = nn.GenerateZoo(nn.ZooGenConfig{
		InH: cfg.InH, InW: cfg.InW, InC: cfg.InC, Classes: cfg.Classes,
		Size: cfg.HoldoutSize, Seed: core.DeriveSeed(cfg.Seed, 0, seedDomainHoldoutZoo),
		Avoid: c.trainZoo.Names(),
	})
	if err != nil {
		return nil, fmt.Errorf("topo: holdout zoo: %w", err)
	}
	if c.trainNets, err = archid.Nets(c.trainZoo, cfg.Seed, seedDomainTrainWeights); err != nil {
		return nil, err
	}
	holdNets, err := archid.Nets(c.holdZoo, cfg.Seed, seedDomainHoldoutWeights)
	if err != nil {
		return nil, err
	}
	c.Deployment = archid.Deployment{
		Nets:           holdNets,
		Level:          cfg.Level,
		Inputs:         cfg.Inputs,
		Runs:           cfg.Runs,
		Seed:           cfg.Seed,
		Domain:         seedDomainPipeline,
		Workers:        cfg.Workers,
		Obs:            cfg.Obs,
		DisableRuntime: cfg.DisableRuntime,
		DisableNoise:   cfg.DisableNoise,
	}
	if cfg.Level == defense.PaddedEnvelope {
		if err := c.Pad(); err != nil {
			return nil, err
		}
	}
	traces, err := c.referenceTraces()
	if err != nil {
		return nil, err
	}
	if err := c.fitModels(traces[:len(c.trainNets)]); err != nil {
		return nil, err
	}
	c.reconstructVictims(traces[len(c.trainNets):])
	return c, nil
}

// referenceTraces extracts, in one fan-out over the campaign's workers
// (pipeline.Each), the attributed trace of every training member and —
// unless the victims are envelope-padded — of every held-out victim:
// the victims' traces do not depend on the fitted models. The training
// members' traces come first, then the victims'.
func (c *Campaign) referenceTraces() ([]*Trace, error) {
	nets := c.trainNets
	if c.Env == nil {
		nets = append(nets[:len(nets):len(nets)], c.Nets...)
	}
	traces := make([]*Trace, len(nets))
	err := pipeline.Each(c.cfg.Workers, len(nets), func(_, i int) error {
		var err error
		traces[i], err = extractTrace(nets[i], c.cfg.Level, c.cfg.Inputs[0], c.cfg.Quantum)
		return err
	})
	return traces, err
}

// fitModels fits the kind classifier and hyper-parameter estimators on
// the training members' attributed traces.
func (c *Campaign) fitModels(traces []*Trace) error {
	var segs []trainSegment
	for id, net := range c.trainNets {
		trace := traces[id]
		truth := trueTopology(net)
		if len(truth) != len(trace.Kinds) {
			return fmt.Errorf("topo: training member %d: %d observable layers but %d traced segments",
				id, len(truth), len(trace.Kinds))
		}
		start := 0
		for i, end := range trace.Boundaries {
			if trace.Kinds[i] != truth[i].Kind {
				return fmt.Errorf("topo: training member %d layer %d: trace kind %q vs truth %q",
					id, i, trace.Kinds[i], truth[i].Kind)
			}
			seg := finishSegment(trace.Samples, start, end)
			segs = append(segs, trainSegment{
				kind:   truth[i].Kind,
				counts: seg.Counts,
				param:  truth[i].Param,
				kernel: truth[i].Kernel,
				inVol:  truth[i].InVol,
			})
			start = end
		}
	}
	var err error
	if c.kindModel, err = trainKindModel(segs); err != nil {
		return err
	}
	c.est = fitEstimators(segs)
	return nil
}

// reconstructVictims segments every held-out victim's flat trace (its
// extracted one, or the envelope's when padded, where traces is empty),
// classifies each segment and regresses its hyper-parameters.
func (c *Campaign) reconstructVictims(traces []*Trace) {
	c.truths = make([][]LayerTruth, len(c.Nets))
	c.recovered = make([][]LayerGuess, len(c.Nets))
	c.boundary = make([]bool, len(c.Nets))
	for id, net := range c.Nets {
		c.truths[id] = trueTopology(net)
		var trace *Trace
		if c.Env != nil {
			trace = paddedTrace(c.Env, c.cfg.Quantum)
		} else {
			trace = traces[id]
		}
		segs := SegmentTrace(trace.Samples)
		c.boundary[id] = equalInts(boundariesOf(segs), trace.Boundaries)
		c.recovered[id] = c.reconstruct(segs)
	}
}

// reconstruct turns recovered segments into a layer stack: kinds first
// (so shape propagation can look ahead), then hyper-parameters, walking
// the (publicly known) input shape through the estimated layers so each
// estimator sees its segment's input volume. Conv-channel and dense-width
// estimates are refined through the following relu segment when one was
// recovered: the relu's calibrated element throughput reveals the
// preceding layer's output volume, which pins the channel count (given
// the kernel guess) and the width directly.
func (c *Campaign) reconstruct(segs []Segment) []LayerGuess {
	kinds := make([]string, len(segs))
	for i, s := range segs {
		kinds[i] = c.kindModel.Predict(s.Counts)
	}
	// nextVol estimates segment i+1's element volume via the relu
	// throughput calibration; 0 when unavailable.
	nextVol := func(i int) int {
		if i+1 >= len(segs) || kinds[i+1] != "relu" || c.est.reluVolPerInstr <= 0 {
			return 0
		}
		instr := segs[i+1].Counts.Get(march.EvInstructions)
		return int(float64(instr)*c.est.reluVolPerInstr + 0.5)
	}
	h, w, ch := c.cfg.InH, c.cfg.InW, c.cfg.InC
	guesses := make([]LayerGuess, 0, len(segs))
	for i, s := range segs {
		inVol := h * w * ch
		g := LayerGuess{
			Kind:         kinds[i],
			Samples:      s.End - s.Start,
			Instructions: s.Counts.Get(march.EvInstructions),
			L1Loads:      s.Counts.Get(march.EvL1DLoads),
		}
		switch kinds[i] {
		case "conv":
			oc, structural := c.est.convFromStructure(s.Counts, inVol)
			if !structural {
				oc = c.est.convChannels.predict(s.Counts, inVol)
			}
			k := snapOddKernel(c.est.convKernel.predict(s.Counts, inVol))
			if outVol := nextVol(i); outVol > 0 && oc >= 1 {
				// The relu-calibrated output volume pins the spatial map:
				// pick the odd kernel whose output area best matches
				// outVol/outC, then re-derive the channel count from it.
				k = bestKernel(h, w, float64(outVol)/float64(oc))
				oh, ow := h-k+1, w-k+1
				if refined := (outVol + oh*ow/2) / (oh * ow); refined >= 1 {
					oc = refined
				}
			}
			for k > 1 && (h-k+1 < 1 || w-k+1 < 1) {
				k -= 2 // keep the propagated geometry realizable
			}
			g.Param, g.Kernel = oc, k
			h, w, ch = maxInt(h-k+1, 1), maxInt(w-k+1, 1), g.Param
		case "pool":
			h, w = maxInt(h/2, 1), maxInt(w/2, 1)
		case "dense":
			g.Param = c.est.denseWidth.predict(s.Counts, inVol)
			if outVol := nextVol(i); outVol > 0 {
				g.Param = outVol
			}
			h, w, ch = 1, 1, g.Param
		}
		guesses = append(guesses, g)
	}
	return guesses
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// bestKernel returns the odd kernel size whose valid output area
// (h−k+1)·(w−k+1) is closest to the target area.
func bestKernel(h, w int, area float64) int {
	best, bestDiff := 1, math.Inf(1)
	for k := 1; k <= h && k <= w; k += 2 {
		diff := math.Abs(float64((h-k+1)*(w-k+1)) - area)
		if diff < bestDiff {
			best, bestDiff = k, diff
		}
	}
	return best
}

// Score assembles the campaign result from collected profiles (events
// must list the joined feature order when profiles were merged across
// sessions): per-victim scorecards, the reconstruct-then-validate
// footprint check, and the aggregates.
func (c *Campaign) Score(events []march.Event, byVictim map[int][]hpc.Profile) (*Result, error) {
	res := &Result{
		Name:         c.cfg.Name,
		Level:        c.cfg.Level,
		Padded:       c.Padded(),
		Seed:         c.cfg.Seed,
		Quantum:      c.cfg.Quantum,
		Events:       append([]march.Event(nil), events...),
		TrainSpecs:   c.trainZoo.Infos(),
		HoldoutSpecs: c.holdZoo.Infos(),
		Kinds:        c.kindModel.Kinds(),
	}
	res.ChanceKind = 1 / float64(len(res.Kinds))
	verifyEvent, verifiable := verificationEvent(events)
	footErr := make([]float64, len(c.Nets))
	footOK := make([]bool, len(c.Nets))
	if verifiable {
		// One rebuild-and-measure per victim, fanned out; each job fills
		// only its own slots.
		pipeline.Each(c.cfg.Workers, len(c.Nets), func(_, id int) error {
			footErr[id], footOK[id] = c.verifyFootprint(id, c.recovered[id], byVictim[id], verifyEvent)
			return nil
		})
	}
	var exact, kindSum, paramSum, footSum float64
	paramN, footN := 0, 0
	for id := range c.Nets {
		spec, _ := c.holdZoo.ByID(id)
		v := VictimResult{
			ArchID:          id,
			Name:            spec.Name,
			True:            c.truths[id],
			Recovered:       c.recovered[id],
			BoundaryMatch:   c.boundary[id],
			ParamRelErr:     -1,
			FootprintRelErr: -1,
		}
		v.ExactCount = len(v.Recovered) == len(v.True)
		v.KindAccuracy = kindAccuracy(v.True, v.Recovered)
		if err, ok := paramRelErr(v.True, v.Recovered); ok {
			v.ParamRelErr = err
			paramSum += err
			paramN++
		}
		if footOK[id] {
			v.FootprintRelErr = footErr[id]
			footSum += footErr[id]
			footN++
		}
		if v.ExactCount {
			exact++
		}
		kindSum += v.KindAccuracy
		res.Victims = append(res.Victims, v)
	}
	n := float64(len(c.Nets))
	res.ExactCountRate = exact / n
	res.MeanKindAccuracy = kindSum / n
	res.MeanParamRelErr = -1
	if paramN > 0 {
		res.MeanParamRelErr = paramSum / float64(paramN)
	}
	res.MeanFootprintRelErr = -1
	if footN > 0 {
		res.MeanFootprintRelErr = footSum / float64(footN)
	}
	return res, nil
}

// verificationEvent picks the footprint-check channel: L1 loads when
// profiled (runtime- and noise-free in the simulation, so the check is
// sharp), else the first profiled event the rebuild can account for. The
// cycle-family events are never usable — their measured values mix
// base-CPI, stall penalties and the runtime model's cycle contribution,
// none of which the kernel-level rebuild (plus runtimeMean, which covers
// only retirement and LLC counters) can reproduce — so a cycle-only
// session reports no verification at all rather than condemning a
// perfect reconstruction with a spurious ~100% error.
func verificationEvent(events []march.Event) (march.Event, bool) {
	usable := func(e march.Event) bool {
		switch e {
		case march.EvCycles, march.EvBusCycles, march.EvRefCycles:
			return false
		}
		return true
	}
	for _, e := range events {
		if e == march.EvL1DLoads {
			return e, true
		}
	}
	for _, e := range events {
		if usable(e) {
			return e, true
		}
	}
	return 0, false
}

// kindAccuracy scores position-aligned kind agreement over
// max(len(truth), len(rec)) slots: missing or surplus recovered layers
// count as misses.
func kindAccuracy(truth []LayerTruth, rec []LayerGuess) float64 {
	n := len(truth)
	if len(rec) > n {
		n = len(rec)
	}
	if n == 0 {
		return 1
	}
	match := 0
	for i := 0; i < len(truth) && i < len(rec); i++ {
		if truth[i].Kind == rec[i].Kind {
			match++
		}
	}
	return float64(match) / float64(n)
}

// paramRelErr averages the relative error of the regressed
// hyper-parameters over kind-matched positions (conv contributes channel
// and kernel errors, dense the width error). ok is false when no
// kind-matched parametric position exists.
func paramRelErr(truth []LayerTruth, rec []LayerGuess) (float64, bool) {
	sum, n := 0.0, 0
	relErr := func(got, want int) float64 {
		d := float64(got - want)
		if d < 0 {
			d = -d
		}
		return d / float64(want)
	}
	for i := 0; i < len(truth) && i < len(rec); i++ {
		if truth[i].Kind != rec[i].Kind {
			continue
		}
		switch truth[i].Kind {
		case "conv":
			sum += relErr(rec[i].Param, truth[i].Param)
			sum += relErr(rec[i].Kernel, truth[i].Kernel)
			n += 2
		case "dense":
			sum += relErr(rec[i].Param, truth[i].Param)
			n++
		}
	}
	if n == 0 {
		return 0, false
	}
	return sum / float64(n), true
}

// verifyFootprint closes the reconstruct-then-validate loop: the recovered
// stack is rebuilt (fresh deterministic weights), its per-run kernel
// footprint measured over the same input cycle the pipeline used, and the
// mean compared against the victim's measured profiles on the
// verification event. ok is false when the recovered stack does not build
// or no profiles exist.
func (c *Campaign) verifyFootprint(victim int, rec []LayerGuess, profiles []hpc.Profile, event march.Event) (float64, bool) {
	if len(profiles) == 0 {
		return 0, false
	}
	measured := 0.0
	for _, p := range profiles {
		measured += p.Get(event)
	}
	measured /= float64(len(profiles))
	net, err := buildRecovered(rec, c.cfg.InH, c.cfg.InW, c.cfg.InC, c.cfg.Classes,
		core.DeriveSeed(c.cfg.Seed, victim, seedDomainRebuild))
	if err != nil {
		return 0, false
	}
	expected, err := c.expectedFootprint(net, event)
	if err != nil {
		return 0, false
	}
	denom := measured
	if denom < 1 {
		denom = 1
	}
	diff := measured - expected
	if diff < 0 {
		diff = -diff
	}
	return diff / denom, true
}

// expectedFootprint measures the rebuilt candidate's mean per-run count of
// one event over the pipeline's input cycle (kernel region plus the
// runtime model's mean contribution when the campaign runs with runtime).
func (c *Campaign) expectedFootprint(net *nn.Network, event march.Event) (float64, error) {
	cl, err := defense.Reference(net, c.cfg.Level)
	if err != nil {
		return 0, err
	}
	engine := cl.Engine()
	for i := 0; i < traceWarmup; i++ {
		if _, err := cl.Classify(c.cfg.Inputs[0]); err != nil {
			return 0, err
		}
	}
	distinct := len(c.cfg.Inputs)
	if distinct > c.cfg.Runs {
		distinct = c.cfg.Runs
	}
	total := 0.0
	for i := 0; i < distinct; i++ {
		// weight = how many of the campaign's runs classify input i.
		weight := c.cfg.Runs/len(c.cfg.Inputs) + boolToInt(i < c.cfg.Runs%len(c.cfg.Inputs))
		before := engine.Counts()
		if _, err := cl.Classify(c.cfg.Inputs[i]); err != nil {
			return 0, err
		}
		delta := engine.Counts().Sub(before)
		total += float64(delta.Get(event)) * float64(weight)
	}
	mean := total / float64(c.cfg.Runs)
	return mean + runtimeMean(c.cfg, event), nil
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// runtimeMean is the runtime model's mean contribution to one event — the
// part of the measured profiles the kernel-level rebuild cannot account
// for. Zero for events the Background model never touches (the per-level
// L1/TLB events in particular, which is why L1 loads verify sharply).
func runtimeMean(cfg Config, event march.Event) float64 {
	if cfg.DisableRuntime {
		return 0
	}
	rt := instrument.DefaultRuntime()
	switch event {
	case march.EvInstructions:
		return float64(rt.Ops + rt.Branches)
	case march.EvBranches:
		return float64(rt.Branches)
	case march.EvBranchMisses:
		return float64(rt.BranchMisses)
	case march.EvCacheReferences, march.EvLLCLoads:
		return float64(rt.CacheRefs)
	case march.EvCacheMisses, march.EvLLCLoadMisses:
		return float64(rt.CacheMisses)
	default:
		return 0
	}
}

// buildRecovered materializes a recovered layer stack as a network with
// fresh deterministic weights — the candidate the attacker profiles to
// validate the reconstruction. Stacks that are not realizable (a conv
// after a dense collapse, pooling a degenerate map, an unknown kind)
// fail, which the scorer reports as an unverifiable reconstruction.
func buildRecovered(guesses []LayerGuess, inH, inW, inC, classes int, seed int64) (*nn.Network, error) {
	if len(guesses) == 0 {
		return nil, fmt.Errorf("topo: empty recovered stack")
	}
	rng := rand.New(rand.NewSource(seed))
	h, w, ch := inH, inW, inC
	flat := false
	var layers []nn.Layer
	for i, g := range guesses {
		switch g.Kind {
		case "conv":
			if flat {
				return nil, fmt.Errorf("topo: recovered conv at %d after dense collapse", i)
			}
			k := g.Kernel
			if k < 1 {
				k = 1
			}
			if h-k+1 < 1 || w-k+1 < 1 || g.Param < 1 {
				return nil, fmt.Errorf("topo: recovered conv at %d does not fit %dx%d", i, h, w)
			}
			conv, err := nn.NewConv2D(tensor.ConvGeom{InH: h, InW: w, InC: ch, K: k, Stride: 1, Pad: 0, OutC: g.Param}, rng)
			if err != nil {
				return nil, err
			}
			layers = append(layers, conv)
			s := conv.OutShape()
			h, w, ch = s[0], s[1], s[2]
		case "relu":
			if flat {
				layers = append(layers, nn.NewReLU([]int{ch}))
			} else {
				layers = append(layers, nn.NewReLU([]int{h, w, ch}))
			}
		case "pool":
			if flat {
				return nil, fmt.Errorf("topo: recovered pool at %d after dense collapse", i)
			}
			p, err := nn.NewMaxPool2([]int{h, w, ch})
			if err != nil {
				return nil, err
			}
			layers = append(layers, p)
			s := p.OutShape()
			h, w, ch = s[0], s[1], s[2]
		case "dense":
			in := ch
			if !flat {
				fl := nn.NewFlatten([]int{h, w, ch})
				layers = append(layers, fl)
				in = fl.OutShape()[0]
				flat = true
			}
			if g.Param < 1 {
				return nil, fmt.Errorf("topo: recovered dense at %d has width %d", i, g.Param)
			}
			d, err := nn.NewDense(in, g.Param, rng)
			if err != nil {
				return nil, err
			}
			layers = append(layers, d)
			h, w, ch = 1, 1, g.Param
		default:
			return nil, fmt.Errorf("topo: recovered unknown layer kind %q at %d", g.Kind, i)
		}
	}
	return &nn.Network{InShape: []int{inH, inW, inC}, Layers: layers, Classes: classes}, nil
}
