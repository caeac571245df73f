package repro

import (
	"context"
	"fmt"
	"io"

	"repro/internal/hpc"
	"repro/internal/march"
	"repro/internal/report"
	"repro/internal/stats"
)

// Figure1 computes the average number of cache-misses per category — the
// data behind Figure 1(a) (MNIST) and 1(b) (CIFAR-10). It returns the
// per-category means in the order of cfg.Classes. Set cfg.Workers to run
// the collection campaign on the concurrent sharded pipeline; the means
// are reproducible for a fixed cfg.Seed at any worker count.
func Figure1(ctx context.Context, s *Scenario, cfg EvalConfig) ([]float64, *Report, error) {
	cfg.Events = []Event{EvCacheMisses}
	rep, err := s.EvaluateCtx(ctx, cfg)
	if err != nil {
		return nil, nil, err
	}
	means := make([]float64, len(rep.Dists.Classes))
	for i, cls := range rep.Dists.Classes {
		means[i] = stats.Mean(rep.Dists.Get(EvCacheMisses, cls))
	}
	return means, rep, nil
}

// RenderFigure1 prints the Figure 1 bar chart for a prepared report.
func RenderFigure1(w io.Writer, title string, rep *Report) error {
	labels := make([]string, len(rep.Dists.Classes))
	values := make([]float64, len(rep.Dists.Classes))
	for i, cls := range rep.Dists.Classes {
		labels[i] = fmt.Sprintf("category %d", cls)
		values[i] = stats.Mean(rep.Dists.Get(EvCacheMisses, cls))
	}
	return report.BarChart(w, title, labels, values, 50)
}

// Figure2b reproduces the perf-stat dump of all eight hardware events for
// a single classification (Figure 2(b)). Eight events exceed the six
// programmable HPC registers, so the PMU multiplexes across `groups`
// classifications of the same image and reports the scaled
// per-classification estimate — exactly perf's enabled/running scaling.
func Figure2b(s *Scenario) (hpc.Profile, string, error) {
	pmu, err := hpc.NewPMU(s.Engine, hpc.DefaultCounters)
	if err != nil {
		return nil, "", err
	}
	events := march.AllEvents()
	if err := pmu.Program(events...); err != nil {
		return nil, "", err
	}
	groups := (len(events) + pmu.Registers() - 1) / pmu.Registers()
	pools, err := s.ClassPools(1)
	if err != nil {
		return nil, "", err
	}
	img := pools[1][0]
	var classifyErr error
	prof, err := pmu.Measure(groups, func(int) {
		if _, err := s.Target.Classify(img); err != nil {
			classifyErr = err
		}
	})
	if err != nil {
		return nil, "", err
	}
	if classifyErr != nil {
		return nil, "", classifyErr
	}
	// Scale the multi-classification interval down to one classification.
	perRun := hpc.Profile{}
	for e, v := range prof {
		perRun[e] = v / float64(groups)
	}
	return perRun, hpc.FormatStat(perRun), nil
}

// FigureDistributions regenerates the Figure 3/4 panels: per-category
// distributions of one event rendered as ASCII histograms.
func FigureDistributions(w io.Writer, title string, rep *Report, e Event) error {
	return report.HistogramPanel(w, title, rep, e, 40, 7)
}

// TableTTests renders the Table 1/2 layout (t and p per category pair for
// cache-misses and branches).
func TableTTests(w io.Writer, rep *Report) error {
	return report.TTable(w, rep, march.BaseEvents()...)
}

// RenderAlarms prints the evaluator's alarms.
func RenderAlarms(w io.Writer, rep *Report) { report.Alarms(w, rep) }

// RenderSummary prints per-class descriptive statistics.
func RenderSummary(w io.Writer, rep *Report) { report.SummaryTable(w, rep) }

// WriteCSV exports the raw distributions for external plotting.
func WriteCSV(w io.Writer, rep *Report) error { return report.CSV(w, rep) }

// ShapeCheck verifies the qualitative reproduction targets for a Table 1/2
// style report and returns human-readable findings:
//
//   - cache-misses must distinguish every category pair (the paper's
//     headline result);
//   - branches must leave most pairs indistinguishable (at most half
//     significant).
//
// It returns ok=false if either target fails — used by the experiment
// tests and EXPERIMENTS.md generation.
func ShapeCheck(rep *Report) (ok bool, findings []string) {
	alpha := rep.Config.Alpha
	cm := rep.TestsFor(EvCacheMisses)
	cmSig := 0
	for _, t := range cm {
		if t.Distinguishable(alpha) {
			cmSig++
		}
	}
	br := rep.TestsFor(EvBranches)
	brSig := 0
	for _, t := range br {
		if t.Distinguishable(alpha) {
			brSig++
		}
	}
	ok = true
	if len(cm) > 0 {
		findings = append(findings, fmt.Sprintf("cache-misses: %d/%d pairs distinguishable", cmSig, len(cm)))
		if cmSig != len(cm) {
			ok = false
			findings = append(findings, "FAIL: paper's Tables 1–2 separate every pair via cache-misses")
		}
	}
	if len(br) > 0 {
		findings = append(findings, fmt.Sprintf("branches: %d/%d pairs distinguishable", brSig, len(br)))
		if brSig > len(br)/2 {
			ok = false
			findings = append(findings, "FAIL: paper's Tables 1–2 leave most branch pairs indistinguishable")
		}
	}
	return ok, findings
}
