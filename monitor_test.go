package repro

// Streaming-monitor acceptance tests: a monitored campaign run to
// exhaustion must reproduce the batch Evaluate report byte-for-byte on
// the existing golden campaign (at any worker and process count), and an
// early-stopped campaign's detection — event, pair, statistics and trace
// cost — must be a pure function of the configuration, pinned by
// testdata/golden_monitor.json.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/pipeline"
)

var (
	monitorScenarioOnce sync.Once
	monitorScenarioVal  *Scenario
	monitorScenarioErr  error
)

// monitorScenario is the golden campaign's scenario (MNIST, seed 5),
// built once and shared across the monitor tests.
func monitorScenario(t *testing.T) *Scenario {
	t.Helper()
	monitorScenarioOnce.Do(func() {
		monitorScenarioVal, monitorScenarioErr = NewScenario(ScenarioConfig{
			Dataset: DatasetMNIST,
			Seed:    5,
		})
	})
	if monitorScenarioErr != nil {
		t.Fatal(monitorScenarioErr)
	}
	return monitorScenarioVal
}

// goldenMonitorConfig is the early-stopping campaign the monitor golden
// pins: the golden report campaign's classes, budget and seed with the
// default boundary.
func goldenMonitorConfig() MonitorConfig {
	return MonitorConfig{
		Classes: []int{1, 2},
		Budget:  60,
		Seed:    17,
	}
}

// TestMonitorExhaustionMatchesBatchEvaluate: with early stopping off,
// the streamed campaign's final report must be byte-identical to the
// batch Evaluate of the same budget on the un-regenerated golden
// campaign — at one worker and at eight.
func TestMonitorExhaustionMatchesBatchEvaluate(t *testing.T) {
	s := monitorScenario(t)
	batch, err := s.EvaluateCtx(context.Background(), EvalConfig{
		Classes:      []int{1, 2},
		RunsPerClass: 60,
		Workers:      2,
		Seed:         17,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := mustJSON(t, batch)
	for _, workers := range []int{1, 8} {
		cfg := goldenMonitorConfig()
		cfg.Workers = workers
		cfg.NoStop = true
		rep, err := s.MonitorCtx(context.Background(), cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if rep.Stopped || rep.Detection != nil {
			t.Fatalf("workers=%d: NoStop campaign stopped early", workers)
		}
		if rep.TracesSeen != 120 {
			t.Fatalf("workers=%d: consumed %d traces, want the full 120", workers, rep.TracesSeen)
		}
		if rep.Report == nil {
			t.Fatalf("workers=%d: exhausted campaign missing batch report", workers)
		}
		if got := mustJSON(t, rep.Report); !bytes.Equal(got, want) {
			t.Fatalf("workers=%d: streamed exhaustion report differs from batch Evaluate bytes", workers)
		}
	}
}

// TestMonitorExhaustionByteInvariantAcrossProcesses: the same campaign
// streamed from shardworker OS processes produces the identical report
// bytes.
func TestMonitorExhaustionByteInvariantAcrossProcesses(t *testing.T) {
	s := monitorScenario(t)
	cfg := goldenMonitorConfig()
	cfg.NoStop = true
	inproc, err := s.MonitorCtx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := mustJSON(t, inproc.Report)

	cfg = goldenMonitorConfig()
	cfg.NoStop = true
	cfg.Processes = 2
	cfg.Fabric = fabricCfg(t)
	rep, err := s.MonitorCtx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := mustJSON(t, rep.Report); !bytes.Equal(got, want) {
		t.Fatal("processes=2 exhaustion report differs from in-process bytes")
	}
}

// TestMonitorEarlyStopDeterministicAcrossParallelism: the detection — the
// leaking event, the distinguished pair, the p-value and above all the
// trace count at the stop — must be identical at every worker count and
// when streamed from worker processes, at the default one-run windows
// and at a window size of 4 (where every stream cuts whole shards into
// 4-run windows and the monitor looks every fourth run).
func TestMonitorEarlyStopDeterministicAcrossParallelism(t *testing.T) {
	s := monitorScenario(t)
	run := func(cfg MonitorConfig) *MonitorReport {
		t.Helper()
		rep, err := s.MonitorCtx(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Stopped || rep.Detection == nil {
			t.Fatal("golden monitor campaign did not detect; the baseline deployment must leak within budget")
		}
		return rep
	}
	for _, tc := range []struct {
		batch   int
		workers []int
	}{
		{batch: 0, workers: []int{2, 8}},
		{batch: 4, workers: []int{2}},
	} {
		cfg := goldenMonitorConfig()
		cfg.Batch = tc.batch
		want := mustJSON(t, run(cfg))
		for _, workers := range tc.workers {
			cfg := cfg
			cfg.Workers = workers
			if got := mustJSON(t, run(cfg)); !bytes.Equal(got, want) {
				t.Fatalf("batch=%d workers=%d detection differs:\n%s\nvs workers=1\n%s", tc.batch, workers, got, want)
			}
		}
		cfg.Processes = 2
		cfg.Fabric = fabricCfg(t)
		if got := mustJSON(t, run(cfg)); !bytes.Equal(got, want) {
			t.Fatalf("batch=%d processes=2 detection differs:\n%s\nvs in-process\n%s", tc.batch, got, want)
		}
	}
}

const goldenMonitorPath = "testdata/golden_monitor.json"

type goldenDetection struct {
	Event      string  `json:"event"`
	ClassA     int     `json:"class_a"`
	ClassB     int     `json:"class_b"`
	P          float64 `json:"p"`
	Stat       float64 `json:"stat"`
	PairTraces int     `json:"pair_traces"`
	Traces     int     `json:"traces"`
}

type goldenMonitor struct {
	Name       string           `json:"name"`
	Stopped    bool             `json:"stopped"`
	TracesSeen int              `json:"traces_seen"`
	Detection  *goldenDetection `json:"detection,omitempty"`
}

func toGoldenMonitor(rep *MonitorReport) goldenMonitor {
	g := goldenMonitor{Name: rep.Name, Stopped: rep.Stopped, TracesSeen: rep.TracesSeen}
	if d := rep.Detection; d != nil {
		g.Detection = &goldenDetection{
			Event:      d.EventName,
			ClassA:     d.ClassA,
			ClassB:     d.ClassB,
			P:          roundSig(d.P),
			Stat:       roundSig(d.Stat),
			PairTraces: d.PairTraces,
			Traces:     d.Traces,
		}
	}
	return g
}

// TestGoldenMonitor pins the early-stop outcome — most importantly the
// first-detection trace count — of the golden monitor campaign.
// Regenerate deliberately with:
//
//	go test -run TestGoldenMonitor -update .
func TestGoldenMonitor(t *testing.T) {
	s := monitorScenario(t)
	rep, err := s.MonitorCtx(context.Background(), goldenMonitorConfig())
	if err != nil {
		t.Fatal(err)
	}
	got := toGoldenMonitor(rep)

	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenMonitorPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenMonitorPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", goldenMonitorPath)
		return
	}

	data, err := os.ReadFile(goldenMonitorPath)
	if err != nil {
		t.Fatalf("reading golden file (regenerate with -update): %v", err)
	}
	var want goldenMonitor
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if got.Name != want.Name || got.Stopped != want.Stopped || got.TracesSeen != want.TracesSeen {
		t.Fatalf("monitor outcome drifted:\ngot  %+v\nwant %+v", got, want)
	}
	if (got.Detection == nil) != (want.Detection == nil) {
		t.Fatalf("detection presence drifted:\ngot  %+v\nwant %+v", got, want)
	}
	if got.Detection != nil {
		gd, wd := got.Detection, want.Detection
		if gd.Event != wd.Event || gd.ClassA != wd.ClassA || gd.ClassB != wd.ClassB ||
			gd.PairTraces != wd.PairTraces || gd.Traces != wd.Traces {
			t.Fatalf("detection drifted:\ngot  %+v\nwant %+v", *gd, *wd)
		}
		if !closeEnough(gd.P, wd.P) || !closeEnough(gd.Stat, wd.Stat) {
			t.Fatalf("detection statistics drifted:\ngot  %+v\nwant %+v", *gd, *wd)
		}
	}
}

// TestMonitorMannWhitneyExhaustion: the rank-sum monitor run to
// exhaustion scores its report with the batch Mann-Whitney — the
// sequential state's bit-identity guarantee surfaces end to end as a
// deterministic report.
func TestMonitorMannWhitneyExhaustion(t *testing.T) {
	s := monitorScenario(t)
	run := func(workers int) []byte {
		cfg := goldenMonitorConfig()
		cfg.Workers = workers
		cfg.NoStop = true
		cfg.MannWhitney = true
		rep, err := s.MonitorCtx(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Report == nil {
			t.Fatal("exhausted campaign missing report")
		}
		return mustJSON(t, rep.Report)
	}
	if !bytes.Equal(run(1), run(8)) {
		t.Fatal("Mann-Whitney exhaustion report differs across worker counts")
	}
}

// TestMonitorTenantMode: the co-residency campaign completes, labels its
// report, and is deterministic — the quantum interleaving of victim and
// co-tenant is part of the reproducible simulation, not a scheduling
// accident.
func TestMonitorTenantMode(t *testing.T) {
	s := monitorScenario(t)
	cfg := MonitorConfig{
		Classes: []int{1, 2},
		Budget:  12,
		Seed:    17,
		Tenants: 2,
		NoStop:  true,
	}
	rep, err := s.MonitorCtx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Name != "mnist/baseline+cotenant" {
		t.Fatalf("tenant campaign name %q", rep.Name)
	}
	if rep.TracesSeen != 24 || rep.Report == nil {
		t.Fatalf("tenant campaign incomplete: %d traces, report %v", rep.TracesSeen, rep.Report != nil)
	}
	want := mustJSON(t, rep)
	cfg.Workers = 4
	rep2, err := s.MonitorCtx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := mustJSON(t, rep2); !bytes.Equal(got, want) {
		t.Fatal("tenant campaign differs across worker counts")
	}
	solo := cfg
	solo.Tenants = 0
	solo.Workers = 1
	soloRep, err := s.MonitorCtx(context.Background(), solo)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(mustJSON(t, soloRep.Report.Dists), mustJSON(t, rep.Report.Dists)) {
		t.Fatal("co-tenant left no trace in the victim's measured distributions")
	}
}

// TestMonitorCancelledTyped: a cancelled monitor campaign surfaces
// *pipeline.Cancelled wrapping the context error, so the CLI can
// distinguish interruption from an empty result.
func TestMonitorCancelledTyped(t *testing.T) {
	s := monitorScenario(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := s.MonitorCtx(ctx, goldenMonitorConfig())
	var c *pipeline.Cancelled
	if !errors.As(err, &c) {
		t.Fatalf("err = %v, want *pipeline.Cancelled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled in the chain", err)
	}
}
