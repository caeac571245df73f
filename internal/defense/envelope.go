package defense

// Envelope padding, promoted from internal/archid to a first-class
// hardening level: per-kernel constant time makes each network's footprint
// input-independent, but every architecture still executes its *own* fixed
// instruction and memory stream — which identifies it exactly. The
// PaddedEnvelope level therefore tops every classification up to the
// footprint envelope of a configurable hypothesis set (dummy arithmetic,
// retired no-op branches, LLC filler traffic, external L1/dTLB traffic and
// stall cycles) until the deterministic part of the counters matches the
// envelope for every member. What remains observable is measurement noise
// and runtime jitter — identically distributed across the set.
//
// The envelope is computed once per hypothesis set from the deterministic
// steady-state kernel footprint of each member (no noise, no runtime
// model), decomposed into the engine's independent counter components so
// the per-component maxima are simultaneously reachable by non-negative
// pads. Padded per-run deltas are then exactly equal across the set for
// every directly-counted event — including the per-level L1 and dTLB
// events that the original archid pad left observable as a residual
// channel; bus-cycles and ref-cycles, being ratio-derived from the
// absolute cycle counter, can wobble by ±1 count from truncation at each
// deployment's own absolute offset — five orders of magnitude below the
// measurement noise.

import (
	"fmt"

	"repro/internal/march"
	"repro/internal/nn"
	"repro/internal/pipeline"
	"repro/internal/tensor"
)

// padWarmup is the number of unmeasured classifications before the
// footprint measurement — matches the evaluator's steady-state warm-up
// discipline (constant-time streams reach their periodic fixed point
// within one run; a margin is kept anyway).
const padWarmup = 4

// components is the independent-counter decomposition of a footprint:
// instructions split into non-branch ops and branches; each cache level's
// references split into hits and misses (references = hits + misses, so
// maximizing references and misses independently could demand a pad with
// more misses than references — hits and misses are the independent
// pair); and the stall-cycle residue of the cycle counter (cycles minus
// the base-CPI contribution of the instructions).
type components struct {
	ops, branches, branchMisses uint64
	llcHits, llcMisses          uint64
	l1Hits, l1Misses            uint64
	tlbHits, tlbMisses          uint64
	extra                       uint64
}

func decompose(delta march.Counts, extra uint64) components {
	instr := delta.Get(march.EvInstructions)
	br := delta.Get(march.EvBranches)
	return components{
		ops:          instr - br,
		branches:     br,
		branchMisses: delta.Get(march.EvBranchMisses),
		llcHits:      delta.Get(march.EvCacheReferences) - delta.Get(march.EvCacheMisses),
		llcMisses:    delta.Get(march.EvCacheMisses),
		l1Hits:       delta.Get(march.EvL1DLoads) - delta.Get(march.EvL1DLoadMisses),
		l1Misses:     delta.Get(march.EvL1DLoadMisses),
		tlbHits:      delta.Get(march.EvDTLBLoads) - delta.Get(march.EvDTLBLoadMisses),
		tlbMisses:    delta.Get(march.EvDTLBLoadMisses),
		extra:        extra,
	}
}

func maxComponents(a, b components) components {
	m := func(x, y uint64) uint64 {
		if x > y {
			return x
		}
		return y
	}
	return components{
		ops:          m(a.ops, b.ops),
		branches:     m(a.branches, b.branches),
		branchMisses: m(a.branchMisses, b.branchMisses),
		llcHits:      m(a.llcHits, b.llcHits),
		llcMisses:    m(a.llcMisses, b.llcMisses),
		l1Hits:       m(a.l1Hits, b.l1Hits),
		l1Misses:     m(a.l1Misses, b.l1Misses),
		tlbHits:      m(a.tlbHits, b.tlbHits),
		tlbMisses:    m(a.tlbMisses, b.tlbMisses),
		extra:        m(a.extra, b.extra),
	}
}

// pad converts an envelope/footprint component pair into the PadSpec that
// tops the footprint up to the envelope. Hit/miss pairs recombine into
// reference counts so every pad stays non-negative by construction.
func (env components) pad(c components) march.PadSpec {
	llcPadHits := env.llcHits - c.llcHits
	llcPadMisses := env.llcMisses - c.llcMisses
	l1PadHits := env.l1Hits - c.l1Hits
	l1PadMisses := env.l1Misses - c.l1Misses
	tlbPadHits := env.tlbHits - c.tlbHits
	tlbPadMisses := env.tlbMisses - c.tlbMisses
	return march.PadSpec{
		Ops:          env.ops - c.ops,
		Branches:     env.branches - c.branches,
		BranchMisses: env.branchMisses - c.branchMisses,
		LLCRefs:      llcPadHits + llcPadMisses,
		LLCMisses:    llcPadMisses,
		L1Loads:      l1PadHits + l1PadMisses,
		L1Misses:     l1PadMisses,
		TLBLoads:     tlbPadHits + tlbPadMisses,
		TLBMisses:    tlbPadMisses,
		StallCycles:  env.extra - c.extra,
	}
}

// kernelFootprint measures the deterministic steady-state footprint of one
// constant-time deployment: the Reference deployment, warm-up, then one
// measured classification. Constant-time streams are input-independent,
// so any input yields the same counts. The stall-cycle residue is read
// from the engine directly (Engine.StallCycles): reconstructing it from
// Counts would alias the base-CPI truncation.
func kernelFootprint(net *nn.Network, input *tensor.Tensor) (march.Counts, uint64, error) {
	target, err := Reference(net, ConstantTime)
	if err != nil {
		return march.Counts{}, 0, err
	}
	engine := target.Engine()
	for i := 0; i < padWarmup; i++ {
		if _, err := target.Classify(input); err != nil {
			return march.Counts{}, 0, fmt.Errorf("defense: envelope warm-up: %w", err)
		}
	}
	before, stallBefore := engine.Counts(), engine.StallCycles()
	if _, err := target.Classify(input); err != nil {
		return march.Counts{}, 0, fmt.Errorf("defense: envelope measurement: %w", err)
	}
	after, stallAfter := engine.Counts(), engine.StallCycles()
	return after.Sub(before), stallAfter - stallBefore, nil
}

// Envelope is the precomputed footprint envelope of a hypothesis set: the
// component-wise maximum of the members' deterministic constant-time
// footprints, plus each member's pad up to it. Multi-session campaigns
// build one Envelope and share it across every pipeline shard, so the
// member footprints are measured exactly once.
type Envelope struct {
	pads []march.PadSpec
	env  components
}

// NewEnvelope measures every hypothesis member's constant-time footprint
// on the reference input, one member per job over workers goroutines
// (pipeline.Each: 0 → GOMAXPROCS, 1 → a serial loop), and returns the
// envelope, identical at any worker count. Members deployed under
// PaddedEnvelope select their pad by index (Config.EnvelopeIndex); a
// deployment whose network is not a hypothesis member must be included in
// nets so its pad is well-defined and non-negative.
func NewEnvelope(nets []*nn.Network, input *tensor.Tensor, workers int) (*Envelope, error) {
	if len(nets) == 0 {
		return nil, fmt.Errorf("defense: envelope needs at least one hypothesis network")
	}
	if input == nil {
		return nil, fmt.Errorf("defense: envelope needs a reference input")
	}
	comps := make([]components, len(nets))
	err := pipeline.Each(workers, len(nets), func(_, i int) error {
		delta, extra, err := kernelFootprint(nets[i], input)
		if err != nil {
			return err
		}
		comps[i] = decompose(delta, extra)
		return nil
	})
	if err != nil {
		return nil, err
	}
	var env components
	for _, c := range comps {
		env = maxComponents(env, c)
	}
	pads := make([]march.PadSpec, len(nets))
	for i, c := range comps {
		pads[i] = env.pad(c)
	}
	return &Envelope{pads: pads, env: env}, nil
}

// Pad returns member i's per-classification pad.
func (e *Envelope) Pad(i int) (march.PadSpec, error) {
	if i < 0 || i >= len(e.pads) {
		return march.PadSpec{}, fmt.Errorf("defense: envelope has no member %d (len %d)", i, len(e.pads))
	}
	return e.pads[i], nil
}

// Counts returns the envelope's deterministic per-classification totals
// for the directly-counted events — the footprint every padded member
// presents. Cycle-family events (cycles, bus-cycles, ref-cycles) are
// derived from the timing model at measurement time and are left zero.
func (e *Envelope) Counts() march.Counts {
	var c march.Counts
	c[march.EvInstructions] = e.env.ops + e.env.branches
	c[march.EvBranches] = e.env.branches
	c[march.EvBranchMisses] = e.env.branchMisses
	c[march.EvCacheReferences] = e.env.llcHits + e.env.llcMisses
	c[march.EvCacheMisses] = e.env.llcMisses
	c[march.EvL1DLoads] = e.env.l1Hits + e.env.l1Misses
	c[march.EvL1DLoadMisses] = e.env.l1Misses
	c[march.EvLLCLoads] = e.env.llcHits + e.env.llcMisses
	c[march.EvLLCLoadMisses] = e.env.llcMisses
	c[march.EvDTLBLoads] = e.env.tlbHits + e.env.tlbMisses
	c[march.EvDTLBLoadMisses] = e.env.tlbMisses
	return c
}
