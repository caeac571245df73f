package repro

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"
)

// smallSweepConfig keeps the grid cheap: a weakly-trained scenario, two
// defenses, two budgets, one event set.
func smallSweepConfig() SweepConfig {
	return SweepConfig{
		Datasets:     []Dataset{DatasetMNIST},
		Defenses:     []DefenseLevel{DefenseBaseline, DefenseConstantTime},
		TraceBudgets: []int{8, 12},
		EventSets:    []string{"base"},
		Classes:      []int{1, 2},
		Workers:      2,
		CellParallel: 2,
		Seed:         3,
		Attack:       true,
		ArchID:       true,
		Topo:         true,
		TopoHoldout:  4,
		Scenario: ScenarioConfig{
			PerClassTrain: 20,
			PerClassTest:  10,
			Epochs:        1,
			Seed:          5,
		},
	}
}

func TestSweepGridShape(t *testing.T) {
	var seen []SweepResult
	grid, err := SweepProgress(context.Background(), smallSweepConfig(), func(r SweepResult) {
		seen = append(seen, r)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(grid.Results) != 4 { // 2 defenses × 2 budgets
		t.Fatalf("grid has %d cells, want 4", len(grid.Results))
	}
	if len(seen) != 4 {
		t.Fatalf("progress reported %d cells, want 4", len(seen))
	}
	for i, r := range grid.Results {
		if r.Dataset != "mnist" || r.Tests != 2 { // 1 pair × 2 events
			t.Fatalf("cell %d malformed: %+v", i, r)
		}
		if r.MinP < 0 || r.MinP > 1 {
			t.Fatalf("cell %d: min_p %v outside [0,1]", i, r.MinP)
		}
		if r.Leaky != (r.Alarms > 0) {
			t.Fatalf("cell %d: leaky=%v with %d alarms", i, r.Leaky, r.Alarms)
		}
		// Attack-stage columns: budget/2 clamps to the 10-run minimum here.
		if r.AttackRuns != 10 {
			t.Fatalf("cell %d: attack_runs %d, want 10", i, r.AttackRuns)
		}
		if r.TemplateAcc < 0 || r.TemplateAcc > 1 || r.KNNAcc < 0 || r.KNNAcc > 1 {
			t.Fatalf("cell %d: accuracies outside [0,1]: %+v", i, r)
		}
		// ArchID-stage columns follow the same budget derivation.
		if r.ArchIDRuns != 10 {
			t.Fatalf("cell %d: archid_runs %d, want 10", i, r.ArchIDRuns)
		}
		if r.ArchIDTemplateAcc < 0 || r.ArchIDTemplateAcc > 1 || r.ArchIDKNNAcc < 0 || r.ArchIDKNNAcc > 1 {
			t.Fatalf("cell %d: archid accuracies outside [0,1]: %+v", i, r)
		}
		// Topo-stage columns: the held-out victim count is the configured
		// one, and the recovery rates are well-formed probabilities.
		if r.TopoVictims != 4 {
			t.Fatalf("cell %d: topo_victims %d, want 4", i, r.TopoVictims)
		}
		if r.TopoExactRate < 0 || r.TopoExactRate > 1 || r.TopoKindAcc < 0 || r.TopoKindAcc > 1 {
			t.Fatalf("cell %d: topo rates outside [0,1]: %+v", i, r)
		}
		// The defense levels score differently on the model secret: the
		// baseline cells fingerprint the architecture nearly perfectly,
		// the (envelope-padded) constant-time cells sit near the 1/7
		// chance level.
		const chance = 1.0 / 7
		switch r.Defense {
		case "baseline":
			if r.ArchIDTemplateAcc < 3*chance {
				t.Fatalf("cell %d: baseline archid recovery %.3f below 3x chance", i, r.ArchIDTemplateAcc)
			}
		case "constant-time":
			if r.ArchIDTemplateAcc > 2.5*chance {
				t.Fatalf("cell %d: padded constant-time archid recovery %.3f above 2.5x chance", i, r.ArchIDTemplateAcc)
			}
		}
	}
	// Grid order is deterministic: defense-major, then budget.
	if grid.Results[0].Defense != "baseline" || grid.Results[0].Runs != 8 ||
		grid.Results[3].Defense != "constant-time" || grid.Results[3].Runs != 12 {
		t.Fatalf("grid order wrong: %+v", grid.Results)
	}

	var csv strings.Builder
	if err := grid.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csv.String()), "\n")
	if len(lines) != 5 || !strings.HasPrefix(lines[0], "dataset,defense,runs,events") {
		t.Fatalf("CSV malformed:\n%s", csv.String())
	}
	if !strings.Contains(lines[0], "template_acc,knn_acc") {
		t.Fatalf("CSV header missing attack accuracy columns:\n%s", lines[0])
	}
	if !strings.Contains(lines[0], "archid_runs,archid_template_acc,archid_knn_acc") {
		t.Fatalf("CSV header missing archid columns:\n%s", lines[0])
	}
	if !strings.Contains(lines[0], "topo_victims,topo_exact_rate,topo_kind_acc") {
		t.Fatalf("CSV header missing topo columns:\n%s", lines[0])
	}

	var js strings.Builder
	if err := grid.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	var decoded SweepGrid
	if err := json.Unmarshal([]byte(js.String()), &decoded); err != nil {
		t.Fatalf("JSON does not round-trip: %v", err)
	}
	if len(decoded.Results) != 4 {
		t.Fatalf("JSON decoded %d cells, want 4", len(decoded.Results))
	}
}

// TestSweepCSVAttackColumnsEmptyWhenDisabled: grids evaluated without the
// attack or archid stages must leave those accuracy columns blank, not
// report 0%.
func TestSweepCSVAttackColumnsEmptyWhenDisabled(t *testing.T) {
	g := &SweepGrid{Results: []SweepResult{
		{Dataset: "mnist", Defense: "baseline", Runs: 10, EventSet: "base", MinP: 1},
		{Dataset: "mnist", Defense: "baseline", Runs: 10, EventSet: "base", MinP: 1, AttackRuns: 10, TemplateAcc: 0.5, KNNAcc: 0.25},
		{Dataset: "mnist", Defense: "baseline", Runs: 10, EventSet: "base", MinP: 1,
			AttackRuns: 10, TemplateAcc: 0.5, KNNAcc: 0.25,
			ArchIDRuns: 12, ArchIDTemplateAcc: 0.875, ArchIDKNNAcc: 0.75,
			TopoVictims: 5, TopoExactRate: 1, TopoKindAcc: 0.9375},
	}}
	var b strings.Builder
	if err := g.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if !strings.Contains(lines[1], ",,,,,,") {
		t.Fatalf("disabled stages should leave blank columns: %s", lines[1])
	}
	if !strings.Contains(lines[2], ",10,0.5,0.25,,,,,,,") {
		t.Fatalf("attack-only row should fill attack columns and leave archid/topo blank: %s", lines[2])
	}
	if !strings.Contains(lines[3], ",10,0.5,0.25,12,0.875,0.75,5,1,0.9375,") {
		t.Fatalf("all stages enabled should fill all columns: %s", lines[3])
	}
}

// TestSweepDeterministicAcrossParallelism: cell results — including the
// attack-stage accuracy columns — must not depend on how many cells or
// workers run concurrently.
func TestSweepDeterministicAcrossParallelism(t *testing.T) {
	a := smallSweepConfig()
	b := smallSweepConfig()
	b.CellParallel = 1
	b.Workers = 1
	ga, err := Sweep(context.Background(), a)
	if err != nil {
		t.Fatal(err)
	}
	gb, err := Sweep(context.Background(), b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ga.Results {
		ra, rb := ga.Results[i], gb.Results[i]
		ra.WallMS, rb.WallMS = 0, 0
		if ra != rb {
			t.Fatalf("cell %d differs across parallelism:\n  %+v\n  %+v", i, ra, rb)
		}
	}
}

func TestSweepCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Sweep(ctx, smallSweepConfig()); err == nil {
		t.Fatal("cancelled sweep returned no error")
	}
}

func TestSweepBadEventSet(t *testing.T) {
	cfg := smallSweepConfig()
	cfg.EventSets = []string{"no-such-event"}
	if _, err := Sweep(context.Background(), cfg); err == nil {
		t.Fatal("bad event spec accepted")
	}
}

func TestParseClasses(t *testing.T) {
	got, err := ParseClasses(" 1, 2,3 ")
	if err != nil || len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Fatalf("ParseClasses = %v, %v", got, err)
	}
	if _, err := ParseClasses("1,x"); err == nil {
		t.Fatal("bad class list accepted")
	}
	if _, err := ParseClasses("1,2,1"); err == nil || !strings.Contains(err.Error(), "listed twice") {
		t.Fatalf("repeated class label not rejected: %v", err)
	}
}

func TestParseDefense(t *testing.T) {
	for _, l := range AllDefenses() {
		got, err := ParseDefense(l.String())
		if err != nil || got != l {
			t.Fatalf("ParseDefense(%q) = %v, %v", l.String(), got, err)
		}
	}
	if _, err := ParseDefense("bogus"); err == nil {
		t.Fatal("unknown defense accepted")
	}
}

// FuzzParseDefense: ParseDefense never panics, and a name it accepts is
// exactly the level's printed name.
func FuzzParseDefense(f *testing.F) {
	for _, l := range AllDefenses() {
		f.Add(l.String())
	}
	for _, s := range []string{"", "bogus", " baseline", "Baseline", "baseline,baseline", "level(9)"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		l, err := ParseDefense(s)
		if err == nil && l.String() != s {
			t.Fatalf("ParseDefense(%q) = %v, which prints as %q", s, l, l.String())
		}
	})
}

// TestEvaluateGroupedWideEventSet: an event set wider than the register
// file must split into register-sized campaign groups and still cover
// every event with the full pair-test matrix.
func TestEvaluateGroupedWideEventSet(t *testing.T) {
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
	events := AllPaperEvents()
	rep, err := s.EvaluateGrouped(context.Background(), DefenseBaseline, EvalConfig{
		Classes:      []int{1, 2},
		Events:       events,
		RunsPerClass: 6,
		Workers:      2,
		Seed:         3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Tests) != len(events) { // 1 pair × 8 events
		t.Fatalf("tests = %d, want %d", len(rep.Tests), len(events))
	}
	for _, e := range events {
		if got := len(rep.Dists.Get(e, 1)); got != 6 {
			t.Fatalf("event %s has %d samples, want 6", e, got)
		}
	}
}

// TestEvaluateCtxWideEventSet: EvaluateCtx splits an event set wider than
// the register file into register groups itself, producing exactly the
// bytes EvaluateGrouped gives at the scenario's own defense level.
func TestEvaluateCtxWideEventSet(t *testing.T) {
	s := attackScenario(t)
	cfg := EvalConfig{
		Classes:      []int{1, 2},
		Events:       AllPaperEvents(),
		RunsPerClass: 6,
		Workers:      2,
		Seed:         3,
	}
	got, err := s.EvaluateCtx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := s.EvaluateGrouped(context.Background(), s.Config.Defense, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if g, w := mustJSON(t, got), mustJSON(t, want); !bytes.Equal(g, w) {
		t.Fatalf("EvaluateCtx differs from EvaluateGrouped:\n--- EvaluateCtx ---\n%s\n--- EvaluateGrouped ---\n%s", g, w)
	}
}
