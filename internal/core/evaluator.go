// Package core implements the paper's primary contribution: the Evaluator
// that decides whether a deployed CNN classifier leaks its input category
// through Hardware Performance Counters.
//
// The Evaluator (paper §4) operates with administrative privilege but no
// knowledge of the model internals:
//
//  1. It monitors HPC events during classifications of each input
//     category individually, producing per-category distributions of each
//     event.
//  2. It runs a Welch t-test on every pair of category distributions per
//     event at 95% confidence.
//  3. It raises an alarm when a null hypothesis is rejected — the event
//     distinguishes the categories, so an adversary could recover the
//     input category from the side channel.
package core

import (
	"fmt"

	"repro/internal/hpc"
	"repro/internal/march"
	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/tensor"
)

// Target is the classifier under evaluation: the Evaluator can trigger
// classifications and observe the hardware they run on, nothing else.
type Target interface {
	// Classify runs one inference on the target's simulated core.
	Classify(img *tensor.Tensor) (int, error)
	// Engine exposes the simulated core the PMU attaches to.
	Engine() *march.Engine
}

// Method selects the hypothesis test the Evaluator applies.
type Method int

// Hypothesis-testing methods.
const (
	// MethodWelch is the paper's test: Welch's unequal-variance t-test.
	MethodWelch Method = iota
	// MethodMannWhitney is a nonparametric extension: the rank-sum test,
	// robust to the non-Gaussian tails HPC counts can have.
	MethodMannWhitney
)

// String implements fmt.Stringer.
func (m Method) String() string {
	switch m {
	case MethodWelch:
		return "welch-t"
	case MethodMannWhitney:
		return "mann-whitney-u"
	default:
		return fmt.Sprintf("method(%d)", int(m))
	}
}

// Config controls an evaluation campaign.
type Config struct {
	// Events to monitor; default cache-misses and branches (the paper's
	// Tables 1 and 2).
	Events []march.Event
	// Method selects the hypothesis test; default MethodWelch (the
	// paper's choice).
	Method Method
	// Alpha is the significance level; default 0.05 (95% confidence).
	Alpha float64
	// RunsPerClass is how many classifications are observed per category;
	// default 100.
	RunsPerClass int
	// WarmupRuns are unmeasured classifications before collection so the
	// simulated caches and predictors reach steady state; default 3.
	WarmupRuns int
	// Registers bounds simultaneously-counted events (PMU constraint);
	// default hpc.DefaultCounters.
	Registers int
	// Batch is the window size: the number of measured runs per Window
	// that pipeline.Stream cuts from a delivered shard, and therefore the
	// look cadence of a streaming monitor. Collection never reads it, so
	// it never changes an observation. Default 1.
	Batch int
	// HolmCorrection additionally reports family-wise-corrected decisions
	// across all pairs of one event (an extension beyond the paper).
	HolmCorrection bool
	// Obs receives collection telemetry (profiles collected, engine
	// load/store tallies). Telemetry is observational output only — it
	// never influences collection — and the field is excluded from JSON
	// so Report.Config round-trips unchanged whether or not a recorder
	// was attached.
	Obs *obs.Recorder `json:"-"`
}

func (c Config) withDefaults() Config {
	if len(c.Events) == 0 {
		c.Events = march.BaseEvents()
	}
	if c.Alpha <= 0 || c.Alpha >= 1 {
		c.Alpha = 0.05
	}
	if c.RunsPerClass <= 0 {
		c.RunsPerClass = 100
	}
	if c.WarmupRuns < 0 {
		c.WarmupRuns = 0
	} else if c.WarmupRuns == 0 {
		c.WarmupRuns = 3
	}
	if c.Registers <= 0 {
		c.Registers = hpc.DefaultCounters
	}
	if c.Batch <= 0 {
		c.Batch = 1
	}
	return c
}

// Distributions holds the per-event, per-category observations collected
// in step 1 of the paper's methodology.
type Distributions struct {
	Events  []march.Event
	Classes []int
	// Samples[event][class] is the observed event-count series.
	Samples map[march.Event]map[int][]float64
}

// Get returns one distribution (nil if absent).
func (d *Distributions) Get(e march.Event, class int) []float64 {
	if m, ok := d.Samples[e]; ok {
		return m[class]
	}
	return nil
}

// Summary returns descriptive statistics for one distribution.
func (d *Distributions) Summary(e march.Event, class int) stats.Summary {
	return stats.Summarize(d.Get(e, class))
}

// PairTest is one t-test between two category distributions of one event.
type PairTest struct {
	Event          march.Event
	ClassA, ClassB int
	Result         stats.TTestResult
	EffectSize     float64 // Cohen's d
	// HolmReject is the family-wise-corrected decision (only meaningful
	// when Config.HolmCorrection was set).
	HolmReject bool
}

// Distinguishable reports rejection at the configured alpha.
func (p PairTest) Distinguishable(alpha float64) bool { return p.Result.Significant(alpha) }

// Alarm is raised for every distinguishable pair — the Evaluator's output.
type Alarm struct {
	Event          march.Event
	ClassA, ClassB int
	T, P           float64
}

// String renders the alarm message.
func (a Alarm) String() string {
	return fmt.Sprintf("ALARM: event %s distinguishes category %d from category %d (t=%.4f, p=%.4g)",
		a.Event, a.ClassA, a.ClassB, a.T, a.P)
}

// Report is the complete result of an evaluation campaign.
type Report struct {
	Name   string
	Config Config
	Dists  *Distributions
	Tests  []PairTest
	Alarms []Alarm
}

// Leaky reports whether any alarm was raised.
func (r *Report) Leaky() bool { return len(r.Alarms) > 0 }

// TestsFor returns the pair tests of one event in (ClassA, ClassB) order.
func (r *Report) TestsFor(e march.Event) []PairTest {
	var out []PairTest
	for _, t := range r.Tests {
		if t.Event == e {
			out = append(out, t)
		}
	}
	return out
}

// AlarmsFor returns the alarms of one event.
func (r *Report) AlarmsFor(e march.Event) []Alarm {
	var out []Alarm
	for _, a := range r.Alarms {
		if a.Event == e {
			out = append(out, a)
		}
	}
	return out
}

// Evaluator runs the paper's methodology against a target.
type Evaluator struct {
	cfg Config
}

// NewEvaluator validates the configuration and builds an evaluator.
func NewEvaluator(cfg Config) (*Evaluator, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Events) > cfg.Registers {
		return nil, fmt.Errorf("core: %d events exceed the %d available HPC registers; monitor fewer events per campaign",
			len(cfg.Events), cfg.Registers)
	}
	seen := map[march.Event]bool{}
	for _, e := range cfg.Events {
		if seen[e] {
			return nil, fmt.Errorf("core: duplicate event %s", e)
		}
		seen[e] = true
	}
	return &Evaluator{cfg: cfg}, nil
}

// Test performs step 2 on collected distributions: Welch t-tests for every
// category pair of every event. It is the sequential execution of the
// campaign's TestJobs; the concurrent pipeline batches the same jobs
// across workers and finalizes them identically.
func (ev *Evaluator) Test(d *Distributions) ([]PairTest, error) {
	jobs, err := TestJobs(d)
	if err != nil {
		return nil, err
	}
	tests := make([]PairTest, len(jobs))
	for i, j := range jobs {
		t, err := ev.RunTestJob(d, j)
		if err != nil {
			return nil, err
		}
		tests[i] = t
	}
	return ev.FinalizeTests(tests), nil
}

// runTest applies the configured hypothesis test, normalizing the result
// into the TTestResult shape (for Mann-Whitney, T carries the z-score and
// DF is zero).
func (ev *Evaluator) runTest(a, b []float64) (stats.TTestResult, error) {
	switch ev.cfg.Method {
	case MethodMannWhitney:
		r, err := stats.MannWhitneyU(a, b)
		if err != nil {
			return stats.TTestResult{}, err
		}
		return stats.TTestResult{T: r.Z, DF: 0, P: r.P}, nil
	default:
		return stats.WelchTTest(a, b)
	}
}
