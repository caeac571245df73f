package stats

// Sequential hypothesis testing for the streaming leakage monitor: the
// batch tests of this package decide once, after a fixed trace budget;
// an online detector instead re-examines the evidence as observations
// stream in and stops the moment an event×pair crosses significance.
// Two pieces make that sound and reproducible:
//
//   - incremental test state (SeqMannWhitney, SeqWelch) that absorbs one
//     observation at a time and can be interrogated at any point. The
//     batch MannWhitneyU is SeqMannWhitney's Test over sorted copies of
//     its samples, so a monitor run to exhaustion reproduces the batch
//     p-values exactly;
//   - an alpha-spending boundary (SpendingBoundary) that schedules how
//     much of the overall significance level each interim look may
//     consume, so repeated testing does not silently inflate the
//     false-positive rate.

import (
	"fmt"
	"math"
	"sort"
)

// SeqMannWhitney is the incremental form of MannWhitneyU: observations
// are inserted one at a time and Test recomputes the tie-corrected
// rank-sum statistic over everything seen so far. Both samples are kept
// sorted, so a look costs one linear merge walk instead of a fresh
// sort.
type SeqMannWhitney struct {
	a, b []float64 // ascending
}

// insertSorted places v into its ascending position.
func insertSorted(s []float64, v float64) []float64 {
	i := sort.SearchFloat64s(s, v)
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

// AddA absorbs one observation of the first sample.
func (s *SeqMannWhitney) AddA(v float64) { s.a = insertSorted(s.a, v) }

// AddB absorbs one observation of the second sample.
func (s *SeqMannWhitney) AddB(v float64) { s.b = insertSorted(s.b, v) }

// Na returns the first sample's current size.
func (s *SeqMannWhitney) Na() int { return len(s.a) }

// Nb returns the second sample's current size.
func (s *SeqMannWhitney) Nb() int { return len(s.b) }

// Test runs the tie-corrected rank-sum test over everything absorbed so
// far. The merged walk visits tie groups in ascending value order and,
// within a group, adds the shared mid-rank once per first-sample member.
func (s *SeqMannWhitney) Test() (MannWhitneyResult, error) {
	na, nb := len(s.a), len(s.b)
	if na < 2 || nb < 2 {
		return MannWhitneyResult{}, fmt.Errorf("stats: Mann-Whitney needs ≥2 samples per group, got %d and %d", na, nb)
	}
	n := float64(na + nb)
	var rankSumA float64
	var tieTerm float64
	i, j, pos := 0, 0, 0
	for i < na || j < nb {
		var v float64
		if j >= nb || (i < na && s.a[i] <= s.b[j]) {
			v = s.a[i]
		} else {
			v = s.b[j]
		}
		ca, cb := 0, 0
		for i < na && s.a[i] == v {
			i++
			ca++
		}
		for j < nb && s.b[j] == v {
			j++
			cb++
		}
		// Ranks pos+1 .. pos+ca+cb share the mid-rank.
		t := float64(ca + cb)
		mid := float64(pos+1+pos+ca+cb) / 2
		if t > 1 {
			tieTerm += t*t*t - t
		}
		for k := 0; k < ca; k++ {
			rankSumA += mid
		}
		pos += ca + cb
	}

	u := rankSumA - float64(na)*float64(na+1)/2
	mean := float64(na) * float64(nb) / 2
	varU := float64(na) * float64(nb) / 12 * ((n + 1) - tieTerm/(n*(n-1)))
	if varU <= 0 {
		// All observations identical: no evidence of difference.
		return MannWhitneyResult{U: u, Z: 0, P: 1}, nil
	}
	// Continuity correction toward the mean.
	d := u - mean
	switch {
	case d > 0.5:
		d -= 0.5
	case d < -0.5:
		d += 0.5
	default:
		d = 0
	}
	z := d / math.Sqrt(varU)
	p := 2 * (1 - NormalCDF(math.Abs(z)))
	if p > 1 {
		p = 1
	}
	return MannWhitneyResult{U: u, Z: z, P: p}, nil
}

// SeqWelch is the incremental form of WelchTTest. It retains the raw
// observations in arrival order and recomputes the batch test at each
// look: Welch's statistic is cheap (two passes over the samples) and
// recomputing — instead of maintaining running moments — keeps the
// exhaustion result bit-identical to the batch path, whose Mean and
// Variance sum in index order.
type SeqWelch struct {
	a, b []float64 // arrival order
}

// AddA absorbs one observation of the first sample.
func (s *SeqWelch) AddA(v float64) { s.a = append(s.a, v) }

// AddB absorbs one observation of the second sample.
func (s *SeqWelch) AddB(v float64) { s.b = append(s.b, v) }

// Na returns the first sample's current size.
func (s *SeqWelch) Na() int { return len(s.a) }

// Nb returns the second sample's current size.
func (s *SeqWelch) Nb() int { return len(s.b) }

// Test runs Welch's t-test over everything absorbed so far.
func (s *SeqWelch) Test() (TTestResult, error) {
	return WelchTTest(s.a, s.b)
}

// SpendingBoundary schedules how the overall significance level Alpha
// is spent across interim looks, Pocock-style: the cumulative alpha
// available at information fraction t ∈ [0, 1] is
//
//	α(t) = Alpha · ln(1 + (e−1)·t)
//
// which rises steeply early (the monitor may stop on strong evidence
// after few traces) and reaches exactly Alpha at t = 1. Looks consume
// the schedule through an AlphaSpender.
type SpendingBoundary struct {
	// Alpha is the overall significance level (the batch campaign's α).
	Alpha float64
}

// Spent returns the cumulative alpha available at information fraction
// t (clamped to [0, 1]).
func (sb SpendingBoundary) Spent(t float64) float64 {
	if t <= 0 {
		return 0
	}
	if t > 1 {
		t = 1
	}
	return sb.Alpha * math.Log(1+(math.E-1)*t)
}

// AlphaSpender doles the schedule out to successive looks of one
// hypothesis: the look at information fraction t may spend the
// *increment* Spent(t) − Spent(t_prev), and the increment is consumed
// whether or not the look rejects. Because the increments sum to at
// most Alpha over any look sequence, the union bound gives a rigorous
// per-hypothesis false-positive guarantee — P(any look rejects under
// the null) ≤ Σ increments ≤ Alpha — regardless of how many looks the
// monitor takes or how correlated they are. (The price is conservatism:
// early stopping needs evidence strong enough to clear a fraction of
// Alpha. A campaign that never crosses the boundary still ends in the
// batch report, whose alarms apply the full batch Alpha.)
type AlphaSpender struct {
	// Boundary is the spending schedule.
	Boundary SpendingBoundary

	spent float64
}

// Cross evaluates one look: the p-value at information fraction t is
// compared against the alpha increment this look is allotted, and the
// increment is consumed either way.
func (as *AlphaSpender) Cross(p, t float64) bool {
	cum := as.Boundary.Spent(t)
	inc := cum - as.spent
	if inc <= 0 {
		return false
	}
	as.spent = cum
	return p < inc
}
