package repro

// Golden-report regression test: a small end-to-end campaign with a fixed
// seed is serialized to testdata/golden_report.json and compared on every
// run, so refactors of the collection/test machinery cannot silently
// shift the paper's leakage verdicts. Regenerate deliberately with:
//
//	go test -run TestGoldenReport -update .

import (
	"context"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden test files")

const goldenPath = "testdata/golden_report.json"

// goldenTest is the serialized form of one pair test. T and P are stored
// rounded (see roundSig) and compared with a small relative tolerance, so
// the file stays stable across compiler FP scheduling differences while
// still pinning the statistics to ~6 significant digits.
type goldenTest struct {
	Event       string  `json:"event"`
	ClassA      int     `json:"class_a"`
	ClassB      int     `json:"class_b"`
	T           float64 `json:"t"`
	P           float64 `json:"p"`
	Significant bool    `json:"significant"`
}

type goldenReport struct {
	Name    string       `json:"name"`
	Classes []int        `json:"classes"`
	Alarms  int          `json:"alarms"`
	Tests   []goldenTest `json:"tests"`
}

// goldenCampaign runs the fixed campaign the golden file pins: the
// default-size MNIST scenario at seed 5, 2 classes, base events, on the
// pipeline with 2 workers and root seed 17. The configuration is chosen
// so the paper's asymmetric verdict is visible — cache-misses raise an
// alarm, branches stay quiet — and the pipeline's determinism guarantee
// makes the worker count irrelevant to the result.
func goldenCampaign(t *testing.T) *Report {
	t.Helper()
	s, err := NewScenario(ScenarioConfig{
		Dataset: DatasetMNIST,
		Seed:    5,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.EvaluateCtx(context.Background(), EvalConfig{
		Classes:      []int{1, 2},
		RunsPerClass: 60,
		Workers:      2,
		Seed:         17,
	})
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func roundSig(v float64) float64 {
	if v == 0 || math.IsNaN(v) || math.IsInf(v, 0) {
		return v
	}
	scale := math.Pow(10, 8-math.Ceil(math.Log10(math.Abs(v))))
	return math.Round(v*scale) / scale
}

func toGolden(rep *Report) goldenReport {
	g := goldenReport{
		Name:    rep.Name,
		Classes: rep.Dists.Classes,
		Alarms:  len(rep.Alarms),
	}
	for _, pt := range rep.Tests {
		g.Tests = append(g.Tests, goldenTest{
			Event:       pt.Event.String(),
			ClassA:      pt.ClassA,
			ClassB:      pt.ClassB,
			T:           roundSig(pt.Result.T),
			P:           roundSig(pt.Result.P),
			Significant: pt.Distinguishable(rep.Config.Alpha),
		})
	}
	return g
}

// closeEnough compares a regenerated statistic against the golden value
// with a relative tolerance well below anything that could flip a
// leakage verdict, but above FP-scheduling jitter.
func closeEnough(a, b float64) bool {
	if a == b {
		return true
	}
	diff := math.Abs(a - b)
	mag := math.Max(math.Abs(a), math.Abs(b))
	return diff <= 1e-6*mag
}

func TestGoldenReport(t *testing.T) {
	got := toGolden(goldenCampaign(t))

	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden report rewritten: %s", goldenPath)
		return
	}

	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden file (run `go test -run TestGoldenReport -update .` to create it): %v", err)
	}
	var want goldenReport
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("corrupt golden file: %v", err)
	}

	if got.Name != want.Name {
		t.Errorf("name = %q, want %q", got.Name, want.Name)
	}
	if len(got.Classes) != len(want.Classes) {
		t.Fatalf("classes = %v, want %v", got.Classes, want.Classes)
	}
	if got.Alarms != want.Alarms {
		t.Errorf("alarm count = %d, want %d — the leakage verdict shifted", got.Alarms, want.Alarms)
	}
	if len(got.Tests) != len(want.Tests) {
		t.Fatalf("test count = %d, want %d", len(got.Tests), len(want.Tests))
	}
	for i := range want.Tests {
		g, w := got.Tests[i], want.Tests[i]
		if g.Event != w.Event || g.ClassA != w.ClassA || g.ClassB != w.ClassB {
			t.Errorf("test %d identity = %s t%d,%d, want %s t%d,%d", i, g.Event, g.ClassA, g.ClassB, w.Event, w.ClassA, w.ClassB)
			continue
		}
		if !closeEnough(g.T, w.T) || !closeEnough(g.P, w.P) {
			t.Errorf("test %d (%s t%d,%d): t=%v p=%v, want t=%v p=%v", i, g.Event, g.ClassA, g.ClassB, g.T, g.P, w.T, w.P)
		}
		if g.Significant != w.Significant {
			t.Errorf("test %d (%s t%d,%d): significance %v, want %v — a leakage verdict flipped",
				i, g.Event, g.ClassA, g.ClassB, g.Significant, w.Significant)
		}
	}
}

// TestGoldenReportByteInvariantAcrossWorkers is the counter-invariance
// regression for the optimized simulation hot path: the exact golden
// campaign is executed at workers=1 and workers=8 and both serialized
// reports must be byte-for-byte identical to each other and pass the
// golden comparison. Any fast path that changed a single simulated counter
// — a memo replay, a batched range, a reused buffer — fails here.
func TestGoldenReportByteInvariantAcrossWorkers(t *testing.T) {
	s, err := NewScenario(ScenarioConfig{
		Dataset: DatasetMNIST,
		Seed:    5,
	})
	if err != nil {
		t.Fatal(err)
	}
	marshal := func(workers int) []byte {
		rep, err := s.EvaluateCtx(context.Background(), EvalConfig{
			Classes:      []int{1, 2},
			RunsPerClass: 60,
			Workers:      workers,
			Seed:         17,
		})
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.MarshalIndent(toGolden(rep), "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	one, eight := marshal(1), marshal(8)
	if string(one) != string(eight) {
		t.Fatalf("workers=1 and workers=8 serialized reports differ:\n--- workers=1 ---\n%s\n--- workers=8 ---\n%s", one, eight)
	}
	// Both must also reproduce the committed golden file (modulo the FP
	// rounding tolerance the golden comparison allows).
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden file: %v", err)
	}
	var want goldenReport
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("corrupt golden file: %v", err)
	}
	var got goldenReport
	if err := json.Unmarshal(one, &got); err != nil {
		t.Fatal(err)
	}
	if got.Alarms != want.Alarms || len(got.Tests) != len(want.Tests) {
		t.Fatalf("report shape diverged from golden: alarms %d/%d, tests %d/%d",
			got.Alarms, want.Alarms, len(got.Tests), len(want.Tests))
	}
	for i := range want.Tests {
		g, w := got.Tests[i], want.Tests[i]
		if g.Event != w.Event || g.ClassA != w.ClassA || g.ClassB != w.ClassB ||
			!closeEnough(g.T, w.T) || !closeEnough(g.P, w.P) || g.Significant != w.Significant {
			t.Fatalf("test %d diverged from golden: got %+v, want %+v", i, g, w)
		}
	}
}

// TestGoldenReportWorkerInvariance re-runs the golden campaign with a
// different worker count and asserts the exact same statistics — the
// public-API form of the pipeline's determinism guarantee.
func TestGoldenReportWorkerInvariance(t *testing.T) {
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
	run := func(workers int) *Report {
		rep, err := s.EvaluateCtx(context.Background(), EvalConfig{
			Classes:      []int{1, 2},
			RunsPerClass: 30,
			Workers:      workers,
			Seed:         17,
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(1), run(8)
	if len(a.Tests) != len(b.Tests) {
		t.Fatalf("test counts differ: %d vs %d", len(a.Tests), len(b.Tests))
	}
	for i := range a.Tests {
		if a.Tests[i].Result != b.Tests[i].Result {
			t.Fatalf("workers=1 and workers=8 disagree at test %d: %+v vs %+v",
				i, a.Tests[i].Result, b.Tests[i].Result)
		}
	}
	if len(a.Alarms) != len(b.Alarms) {
		t.Fatalf("alarm counts differ: %d vs %d", len(a.Alarms), len(b.Alarms))
	}
}
