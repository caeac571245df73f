// Package topo is the topology-recovery subsystem: the full CSI-NN-style
// reverse engineering the archid stage stops short of. Where archid asks
// "which zoo member is deployed?", topo reconstructs the architecture of a
// victim the attacker has *never profiled* — layer count, per-layer kinds
// and hyper-parameters — from the per-layer side-channel evidence stream
// (instrument.ClassifyWithAttribution).
//
// The pipeline has three attacker-side stages, each fitted on a *training*
// zoo of random architectures that is provably disjoint from the held-out
// victim zoo (nn.GenerateZoo with an Avoid set):
//
//  1. a segmenter that finds layer boundaries in the flat event trace —
//     change-point detection over per-quantum instruction/L1-load
//     signatures, validated against the known-boundary attribution;
//  2. a per-segment layer-kind classifier (conv / relu / pool / dense)
//     riding the existing attack.Model interface (the Gaussian template
//     attacker over per-op rate features);
//  3. per-kind hyper-parameter estimators that regress width /
//     channel-count / kernel-size from segment footprint magnitudes.
//
// Recovered specs are rebuilt and verified against measured victim
// profiles collected through the concurrent sharded pipeline
// (pipeline.CollectProfilesByClass, class = victim id), closing the
// reconstruct-then-validate loop. Everything derives from the campaign
// root seed, so results are bit-identical at any worker count.
package topo

import (
	"fmt"

	"repro/internal/defense"
	"repro/internal/instrument"
	"repro/internal/march"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// traceWarmup matches the envelope/pad steady-state discipline: unmeasured
// classifications before the attributed one, so the trace reflects the
// warm periodic footprint rather than cold-cache transients.
const traceWarmup = 4

// DefaultQuantum is the default trace-sampling quantum: the (approximate)
// number of retired instructions per trace sample. It is coarse enough
// that a sample's counter deltas are far above quantization wobble, and
// fine enough that even the smallest observable layer contributes at
// least one sample.
const DefaultQuantum = 5000

// Trace is the flat side-channel trace of one classification, as an
// interval-sampling observer records it: per-quantum counter deltas with
// no layer boundaries marked. Boundaries and Kinds carry the ground truth
// (the sample index where each observable layer ends, and its kind) —
// they are used to validate the segmenter and to label training segments,
// never by the victim-side reconstruction.
type Trace struct {
	Samples    []march.Counts
	Boundaries []int
	Kinds      []string
}

// extractTrace runs one attributed classification of input on a fresh
// noise-free engine (runtime disabled — the trace covers the kernel
// region) with the kernels the hardening level implies, then subdivides
// each observable layer's attribution into fixed-quantum samples. Layers
// with zero retired instructions (flatten) are invisible to the side
// channel and contribute no samples — exactly as CSI-NN's observer sees
// them. Counter totals are preserved exactly: per-sample integer division
// pushes each remainder onto the leading samples.
func extractTrace(net *nn.Network, level defense.Level, input *tensor.Tensor, quantum uint64) (*Trace, error) {
	cl, err := defense.Reference(net, level)
	if err != nil {
		return nil, fmt.Errorf("topo: instrumenting victim: %w", err)
	}
	for i := 0; i < traceWarmup; i++ {
		if _, err := cl.Classify(input); err != nil {
			return nil, fmt.Errorf("topo: trace warm-up: %w", err)
		}
	}
	_, attribution, err := cl.ClassifyWithAttribution(input)
	if err != nil {
		return nil, fmt.Errorf("topo: attributed classification: %w", err)
	}
	t := &Trace{}
	for _, lc := range attribution {
		if lc.Index < 0 {
			continue // runtime pseudo-layer: outside the kernel region
		}
		instr := lc.Counts.Get(march.EvInstructions)
		if instr == 0 {
			continue // invisible layer (flatten): no retired work to sample
		}
		m := int(instr / quantum)
		if m < 1 {
			m = 1
		}
		appendQuantized(t, lc.Counts, m)
		t.Boundaries = append(t.Boundaries, len(t.Samples))
		t.Kinds = append(t.Kinds, instrument.NormalizeKind(lc.Kind))
	}
	return t, nil
}

// appendQuantized splits one layer's counter totals into m samples whose
// sums reproduce the totals exactly.
func appendQuantized(t *Trace, totals march.Counts, m int) {
	for k := 0; k < m; k++ {
		var s march.Counts
		for e := range totals {
			base := totals[e] / uint64(m)
			if uint64(k) < totals[e]%uint64(m) {
				base++
			}
			s[e] = base
		}
		t.Samples = append(t.Samples, s)
	}
}

// paddedTrace is the trace an interval-sampling observer records from an
// envelope-padded deployment. The PaddedEnvelope serving loop schedules
// real and dummy work in fixed-size quanta so that *every* interval
// presents the same envelope-rate mix — the time-resolved extension of
// the counter-level equalization march.Engine.PadExtended performs per
// classification. The observable is therefore a homogeneous stream whose
// totals equal the envelope for every victim: no change points, no layer
// boundaries, no per-segment signatures. Ground-truth boundaries are
// deliberately absent (the trace genuinely has none).
func paddedTrace(env *defense.Envelope, quantum uint64) *Trace {
	totals := env.Counts()
	instr := totals.Get(march.EvInstructions)
	m := int(instr / quantum)
	if m < 1 {
		m = 1
	}
	t := &Trace{}
	appendQuantized(t, totals, m)
	return t
}

// LayerTruth is the ground-truth description of one observable layer of a
// victim: its kind, its primary hyper-parameter (conv output channels /
// dense output width; zero for relu and pool), its kernel size (conv
// only) and its input volume (known to the scorer, estimated by the
// attacker through shape propagation).
type LayerTruth struct {
	Kind   string `json:"kind"`
	Param  int    `json:"param,omitempty"`
	Kernel int    `json:"kernel,omitempty"`
	InVol  int    `json:"-"`
}

// trueTopology lists a network's observable layers — flatten is skipped,
// matching what the side-channel trace exposes.
func trueTopology(net *nn.Network) []LayerTruth {
	var out []LayerTruth
	shape := append([]int(nil), net.InShape...)
	for _, l := range net.Layers {
		inVol := tensor.Volume(shape)
		switch lt := l.(type) {
		case *nn.Conv2D:
			out = append(out, LayerTruth{Kind: "conv", Param: lt.Geom.OutC, Kernel: lt.Geom.K, InVol: inVol})
		case *nn.Dense:
			out = append(out, LayerTruth{Kind: "dense", Param: lt.Out, InVol: inVol})
		case *nn.ReLU:
			out = append(out, LayerTruth{Kind: "relu", InVol: inVol})
		case *nn.MaxPool2:
			out = append(out, LayerTruth{Kind: "pool", InVol: inVol})
		case *nn.Flatten:
			// invisible: no simulated work
		default:
			out = append(out, LayerTruth{Kind: instrument.UnknownKind, InVol: inVol})
		}
		shape = l.OutShape()
	}
	return out
}
