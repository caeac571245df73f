package topo

// The segmenter: change-point detection over the flat trace. Each sample's
// *signature* is its vector of per-instruction event rates (loads per
// instruction, branches per instruction, ...), which is what
// distinguishes kernel kinds independently of layer size. A layer
// boundary is declared between two consecutive samples whose signatures
// differ by more than a relative threshold on any rate — with an absolute
// floor so the ±1-count quantization wobble of tiny rates (branch misses
// at ~10⁻⁴ per instruction) cannot fire spurious cuts.

import "repro/internal/march"

// signatureEvents are the rate numerators of a sample signature. The
// denominator is always retired instructions.
var signatureEvents = []march.Event{
	march.EvL1DLoads,
	march.EvL1DLoadMisses,
	march.EvCacheReferences,
	march.EvCacheMisses,
	march.EvBranches,
	march.EvBranchMisses,
	march.EvDTLBLoads,
}

// Segment is one contiguous run of trace samples attributed to a single
// recovered layer, with the summed counter footprint reconstruction and
// estimation read magnitudes from.
type Segment struct {
	Start, End int // sample range [Start, End)
	Counts     march.Counts
}

// The change-point thresholds. relThreshold is the relative rate change
// that declares a boundary (a 25% shift in any per-instruction rate);
// absThreshold is the absolute rate change floor: changes smaller than it
// are quantization wobble, never boundaries.
const (
	relThreshold = 0.25
	absThreshold = 0.002
)

// signature returns the per-instruction rates of one sample.
func signature(c march.Counts) []float64 {
	instr := float64(c.Get(march.EvInstructions))
	if instr < 1 {
		instr = 1
	}
	out := make([]float64, len(signatureEvents))
	for i, e := range signatureEvents {
		out[i] = float64(c.Get(e)) / instr
	}
	return out
}

// boundary reports whether two consecutive sample signatures belong to
// different layers.
func boundary(a, b []float64) bool {
	for i := range a {
		diff := a[i] - b[i]
		if diff < 0 {
			diff = -diff
		}
		if diff < absThreshold {
			continue
		}
		hi := a[i]
		if b[i] > hi {
			hi = b[i]
		}
		if diff > relThreshold*hi {
			return true
		}
	}
	return false
}

// SegmentTrace cuts a flat trace at its change points and returns the
// recovered segments with summed footprints. An empty trace yields no
// segments; a homogeneous trace (an envelope-padded deployment) yields
// exactly one.
func SegmentTrace(samples []march.Counts) []Segment {
	if len(samples) == 0 {
		return nil
	}
	var segs []Segment
	start := 0
	prev := signature(samples[0])
	for i := 1; i < len(samples); i++ {
		cur := signature(samples[i])
		if boundary(prev, cur) {
			segs = append(segs, finishSegment(samples, start, i))
			start = i
		}
		prev = cur
	}
	segs = append(segs, finishSegment(samples, start, len(samples)))
	return segs
}

func finishSegment(samples []march.Counts, start, end int) Segment {
	s := Segment{Start: start, End: end}
	for _, c := range samples[start:end] {
		for e := range s.Counts {
			s.Counts[e] += c[e]
		}
	}
	return s
}

// boundariesOf lists the end index of every segment — comparable against
// a Trace's ground-truth Boundaries for segmenter validation.
func boundariesOf(segs []Segment) []int {
	out := make([]int, len(segs))
	for i, s := range segs {
		out[i] = s.End
	}
	return out
}

// equalInts reports element-wise equality.
func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
