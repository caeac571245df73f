package repro

import (
	"context"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/march"
	"repro/internal/stats"
)

// smallScenario builds a fast MNIST scenario for facade tests.
func smallScenario(t *testing.T) *Scenario {
	t.Helper()
	s, err := NewScenario(ScenarioConfig{
		Dataset:       DatasetMNIST,
		PerClassTrain: 20,
		PerClassTest:  10,
		Epochs:        1,
		Seed:          5,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewScenarioUnknownDataset(t *testing.T) {
	if _, err := NewScenario(ScenarioConfig{Dataset: "svhn"}); err == nil {
		t.Fatal("unknown dataset accepted")
	}
}

func TestScenarioConfigDefaults(t *testing.T) {
	c := ScenarioConfig{Dataset: DatasetMNIST}.withDefaults()
	if c.Seed != 1 || c.PerClassTrain != 120 || c.PerClassTest != 60 || c.Epochs != 2 {
		t.Fatalf("defaults = %+v", c)
	}
}

func TestSmallScenarioEndToEnd(t *testing.T) {
	s := smallScenario(t)
	if s.TestAccuracy < 0.5 {
		t.Fatalf("test accuracy %.3f too low even for the small config", s.TestAccuracy)
	}
	rep, err := s.EvaluateCtx(context.Background(), EvalConfig{Classes: []int{1, 2}, RunsPerClass: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Tests) != 2 { // 1 pair × 2 events
		t.Fatalf("tests = %d, want 2", len(rep.Tests))
	}
	var b strings.Builder
	if err := TableTTests(&b, rep); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "t1,2") {
		t.Fatalf("table missing pair:\n%s", b.String())
	}
	b.Reset()
	if err := RenderFigure1(&b, "fig1", rep); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "category 1") {
		t.Fatalf("figure 1 malformed:\n%s", b.String())
	}
	b.Reset()
	if err := FigureDistributions(&b, "fig3", rep, EvCacheMisses); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "category 2") {
		t.Fatalf("figure 3 malformed:\n%s", b.String())
	}
	b.Reset()
	if err := WriteCSV(&b, rep); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(b.String(), "event,class,run,value") {
		t.Fatal("CSV header missing")
	}
	b.Reset()
	RenderAlarms(&b, rep)
	RenderSummary(&b, rep)
	if b.Len() == 0 {
		t.Fatal("alarm/summary rendering empty")
	}
}

func TestClassPools(t *testing.T) {
	s := smallScenario(t)
	pools, err := s.ClassPools(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(pools) != 2 || len(pools[1]) == 0 || len(pools[3]) == 0 {
		t.Fatalf("pools = %v", len(pools))
	}
	if _, err := s.ClassPools(99); err == nil {
		t.Fatal("missing class accepted")
	}
	// Default classes are the paper's four.
	def, err := s.ClassPools()
	if err != nil {
		t.Fatal(err)
	}
	if len(def) != 4 {
		t.Fatalf("default pools = %d classes, want 4", len(def))
	}
}

func TestPaperClasses(t *testing.T) {
	got := PaperClasses()
	want := []int{1, 2, 3, 4}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("PaperClasses = %v", got)
		}
	}
}

func TestFigure2bSmall(t *testing.T) {
	s := smallScenario(t)
	prof, out, err := Figure2b(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(prof) != len(march.AllEvents()) {
		t.Fatalf("profile has %d events, want %d", len(prof), len(march.AllEvents()))
	}
	for _, e := range march.AllEvents() {
		if !strings.Contains(out, e.String()) {
			t.Fatalf("output missing %s:\n%s", e, out)
		}
	}
	// perf-style Indian grouping must appear for the big counters.
	if !strings.Contains(out, ",") {
		t.Fatalf("no digit grouping in:\n%s", out)
	}
	if prof.Get(EvInstructions) <= prof.Get(EvBranches) {
		t.Fatal("instructions not above branches")
	}
}

func TestFigure1ReturnsMeans(t *testing.T) {
	s := smallScenario(t)
	// Workers: 2 routes the figure's campaign through the sharded pipeline.
	means, rep, err := Figure1(context.Background(), s, EvalConfig{Classes: []int{1, 2}, RunsPerClass: 8, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(means) != 2 {
		t.Fatalf("means = %v", means)
	}
	for i, cls := range rep.Dists.Classes {
		if want := stats.Mean(rep.Dists.Get(EvCacheMisses, cls)); means[i] != want {
			t.Fatalf("mean[%d] = %v, want %v", i, means[i], want)
		}
	}
}

// fakeShapeReport builds a report with chosen p-values for ShapeCheck.
func fakeShapeReport(cmPs, brPs []float64) *Report {
	rep := &Report{Config: core.Config{Alpha: 0.05}}
	rep.Dists = &core.Distributions{Events: []Event{EvCacheMisses, EvBranches}}
	add := func(e Event, ps []float64) {
		for i, p := range ps {
			var t core.PairTest
			t.Event = e
			t.ClassA, t.ClassB = 1, i+2
			t.Result = stats.TTestResult{T: 5, DF: 10, P: p}
			rep.Tests = append(rep.Tests, t)
		}
	}
	add(EvCacheMisses, cmPs)
	add(EvBranches, brPs)
	return rep
}

func TestShapeCheck(t *testing.T) {
	// Paper shape: all cache pairs significant, few branch pairs.
	ok, _ := ShapeCheck(fakeShapeReport(
		[]float64{0.001, 0.0001, 0.01},
		[]float64{0.3, 0.04, 0.6},
	))
	if !ok {
		t.Fatal("paper-shaped report rejected")
	}
	// Cache pair insignificant → fail.
	ok, findings := ShapeCheck(fakeShapeReport(
		[]float64{0.001, 0.2, 0.01},
		[]float64{0.3, 0.4, 0.6},
	))
	if ok {
		t.Fatalf("missing cache separation accepted: %v", findings)
	}
	// Branches too discriminative → fail.
	ok, _ = ShapeCheck(fakeShapeReport(
		[]float64{0.001, 0.0001, 0.01},
		[]float64{0.001, 0.04, 0.01},
	))
	if ok {
		t.Fatal("over-discriminative branches accepted")
	}
}

func TestDefaultScenarioCached(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the full default scenario")
	}
	a, err := DefaultScenario(DatasetMNIST)
	if err != nil {
		t.Fatal(err)
	}
	b, err := DefaultScenario(DatasetMNIST)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("DefaultScenario rebuilt instead of caching")
	}
}

func TestEvaluateDefenseQuietsAlarms(t *testing.T) {
	// End-to-end: constant-time deployment of the small scenario must not
	// produce cache-miss alarms even where the baseline does.
	leaky := smallScenario(t)
	leakyRep, err := leaky.EvaluateCtx(context.Background(), EvalConfig{Classes: []int{1, 2, 3, 4}, RunsPerClass: 40})
	if err != nil {
		t.Fatal(err)
	}
	hard, err := NewScenario(ScenarioConfig{
		Dataset:       DatasetMNIST,
		PerClassTrain: 20,
		PerClassTest:  10,
		Epochs:        1,
		Seed:          5,
		Defense:       DefenseConstantTime,
	})
	if err != nil {
		t.Fatal(err)
	}
	hardRep, err := hard.EvaluateCtx(context.Background(), EvalConfig{Classes: []int{1, 2, 3, 4}, RunsPerClass: 40})
	if err != nil {
		t.Fatal(err)
	}
	if len(hardRep.AlarmsFor(EvCacheMisses)) >= len(leakyRep.AlarmsFor(EvCacheMisses)) &&
		len(leakyRep.AlarmsFor(EvCacheMisses)) > 0 {
		t.Fatalf("defense did not reduce cache alarms: baseline %d, constant-time %d",
			len(leakyRep.AlarmsFor(EvCacheMisses)), len(hardRep.AlarmsFor(EvCacheMisses)))
	}
}

// TestDuplicateClassLabelsRejected: a repeated category label would pair
// a class with itself and spend the monitor's alpha twice on one
// hypothesis, so every stage rejects it up front (they all build their
// pools through ClassPools).
func TestDuplicateClassLabelsRejected(t *testing.T) {
	s := smallScenario(t)
	ctx := context.Background()
	classes := []int{1, 1, 2}
	for _, tc := range []struct {
		stage string
		run   func() error
	}{
		{"evaluate", func() error {
			_, err := s.EvaluateCtx(ctx, EvalConfig{Classes: classes, RunsPerClass: 4})
			return err
		}},
		{"attack", func() error {
			_, err := s.Attack(ctx, AttackConfig{Classes: classes, ProfileRuns: 4, AttackRuns: 2})
			return err
		}},
		{"monitor", func() error {
			_, err := s.MonitorCtx(ctx, MonitorConfig{Classes: classes, Budget: 4, NoStop: true})
			return err
		}},
	} {
		if err := tc.run(); err == nil || !strings.Contains(err.Error(), "category 1 listed twice") {
			t.Errorf("%s: repeated class label not rejected: %v", tc.stage, err)
		}
	}
}

// TestDuplicateEventsRejected: an event repeated across register groups
// would be counted by two sessions, the second overwriting the first's
// samples, so every stage rejects it before collecting anything.
func TestDuplicateEventsRejected(t *testing.T) {
	s := smallScenario(t)
	ctx := context.Background()
	events := []Event{EvBranches, EvCycles, EvInstructions, EvCacheMisses, EvBusCycles, EvRefCycles, EvBranches}
	for _, tc := range []struct {
		stage string
		run   func() error
	}{
		{"evaluate", func() error {
			_, err := s.EvaluateCtx(ctx, EvalConfig{Classes: []int{1, 2}, Events: events, RunsPerClass: 4})
			return err
		}},
		{"attack", func() error {
			_, err := s.Attack(ctx, AttackConfig{Classes: []int{1, 2}, Events: events, ProfileRuns: 4, AttackRuns: 2})
			return err
		}},
		{"archid", func() error {
			_, err := s.ArchID(ctx, ArchIDConfig{Events: events, ProfileRuns: 2, AttackRuns: 1, MaxInputs: 2})
			return err
		}},
		{"topo", func() error {
			_, err := s.Topo(ctx, TopoConfig{Events: events, TrainZoo: 2, Holdout: 2, Runs: 2, MaxInputs: 2})
			return err
		}},
	} {
		if err := tc.run(); err == nil || !strings.Contains(err.Error(), "branches listed twice") {
			t.Errorf("%s: repeated event not rejected: %v", tc.stage, err)
		}
	}
}

// TestScenarioTargetIsShardDeployment pins the deployment invariant every
// stage relies on: the scenario's own Target is exactly the deployment a
// pipeline shard builds with the seed cfg.Seed+3 — same engine noise,
// same runtime jitter, same pad — so one classification of the same
// image counts identically on both.
func TestScenarioTargetIsShardDeployment(t *testing.T) {
	for _, level := range []DefenseLevel{DefenseBaseline, DefensePaddedEnvelope} {
		t.Run(level.String(), func(t *testing.T) {
			s, err := NewScenario(ScenarioConfig{
				Dataset:       DatasetMNIST,
				PerClassTrain: 20,
				PerClassTest:  10,
				Epochs:        1,
				Seed:          5,
				Defense:       level,
			})
			if err != nil {
				t.Fatal(err)
			}
			shard, err := s.FactoryFor(s.Config.Defense)(s.Config.Seed + 3)
			if err != nil {
				t.Fatal(err)
			}
			img := s.Test.Samples[0].Image
			var counts [2]march.Counts
			for i, target := range []core.Target{s.Target, shard} {
				if _, err := target.Classify(img); err != nil {
					t.Fatal(err)
				}
				counts[i] = target.Engine().Counts()
			}
			if counts[0] != counts[1] {
				t.Fatalf("scenario target counts %v, shard deployment counts %v", counts[0], counts[1])
			}
		})
	}
}
