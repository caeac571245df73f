package repro

// Integration tests exercising cross-module flows end to end: the process
// registry + PMU attach path (the perf-stat deployment), per-classification
// samples over a real classification stream, and the template attack
// against the hardened classifier.

import (
	"context"
	"testing"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/hpc"
	"repro/internal/march"
	"repro/internal/pipeline"
)

// TestIntegrationPerfStatDeployment wires the full perf-stat path: spawn
// the classifier as a simulated process, attach a PMU by pid, observe one
// classification with 8 events multiplexed onto 6 registers.
func TestIntegrationPerfStatDeployment(t *testing.T) {
	s := smallScenario(t)
	registry := hpc.NewRegistry()
	proc, err := registry.Spawn("cnn-classifier", s.Engine)
	if err != nil {
		t.Fatal(err)
	}
	pmu, err := registry.Attach(proc.PID, hpc.DefaultCounters)
	if err != nil {
		t.Fatal(err)
	}
	events := march.AllEvents()
	if err := pmu.Program(events...); err != nil {
		t.Fatal(err)
	}
	if !pmu.Multiplexed() {
		t.Fatal("8 events on 6 registers must multiplex")
	}
	pools, err := s.ClassPools(1)
	if err != nil {
		t.Fatal(err)
	}
	groups := 2
	prof, err := pmu.Measure(groups, func(i int) {
		if _, err := s.Target.Classify(pools[1][i%len(pools[1])]); err != nil {
			t.Error(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range events {
		if prof.Get(e) <= 0 {
			t.Fatalf("event %s observed zero activity", e)
		}
	}
	out := hpc.FormatStat(prof)
	if out == "" {
		t.Fatal("empty perf-stat output")
	}
}

// TestIntegrationSamplingOverClassifications exercises the perf-record
// analogue: per-classification samples of a running service show the
// class-dependent signal sample-by-sample.
func TestIntegrationSamplingOverClassifications(t *testing.T) {
	s := smallScenario(t)
	pmu, err := hpc.NewPMU(s.Engine, hpc.DefaultCounters)
	if err != nil {
		t.Fatal(err)
	}
	if err := pmu.Program(EvCacheMisses, EvInstructions); err != nil {
		t.Fatal(err)
	}
	pools, err := s.ClassPools(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Interleave the two categories; every sample is one classification
	// in its own counter interval.
	imgs := append(pools[1][:4], pools[2][:4]...)
	for i, img := range imgs {
		sample, err := pmu.Measure(1, func(int) {
			if _, err := s.Target.Classify(img); err != nil {
				t.Error(err)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if sample.Get(EvInstructions) <= 0 {
			t.Fatalf("sample %d observed no instructions", i)
		}
	}
}

// TestIntegrationAttackVsDefense: the template attack's accuracy must drop
// toward chance when the classifier is hardened.
func TestIntegrationAttackVsDefense(t *testing.T) {
	run := func(defense DefenseLevel) float64 {
		s, err := NewScenario(ScenarioConfig{
			Dataset:        DatasetMNIST,
			PerClassTrain:  20,
			PerClassTest:   10,
			Epochs:         1,
			Seed:           5,
			Defense:        defense,
			DisableNoise:   true, // structural signal only: sharpest contrast
			DisableRuntime: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		pools, err := s.ClassPools(1, 2)
		if err != nil {
			t.Fatal(err)
		}
		events := []march.Event{march.EvCacheMisses, march.EvBranches}
		pmu, err := hpc.NewPMU(s.Engine, hpc.DefaultCounters)
		if err != nil {
			t.Fatal(err)
		}
		if err := pmu.Program(events...); err != nil {
			t.Fatal(err)
		}
		profiler, err := attack.NewProfiler(events)
		if err != nil {
			t.Fatal(err)
		}
		for cls, imgs := range pools {
			for i := 0; i < 20; i++ {
				prof, err := pmu.MeasureOnce(func() { s.Target.Classify(imgs[i%len(imgs)]) })
				if err != nil {
					t.Fatal(err)
				}
				profiler.Add(cls, prof)
			}
		}
		atk, err := profiler.Build()
		if err != nil {
			t.Fatal(err)
		}
		cm := attack.NewConfusionMatrix([]int{1, 2})
		for cls, imgs := range pools {
			for i := 0; i < 15; i++ {
				prof, err := pmu.MeasureOnce(func() { s.Target.Classify(imgs[(i*2+1)%len(imgs)]) })
				if err != nil {
					t.Fatal(err)
				}
				pred, _ := atk.Classify(prof)
				cm.Record(cls, pred)
			}
		}
		return cm.Accuracy()
	}
	baseline := run(DefenseBaseline)
	hardened := run(DefenseConstantTime)
	if baseline < 0.7 {
		t.Fatalf("baseline attack accuracy %.2f too weak for the contrast test", baseline)
	}
	if hardened > baseline-0.15 {
		t.Fatalf("hardening did not hurt the attack: baseline %.2f, constant-time %.2f", baseline, hardened)
	}
}

// TestIntegrationMannWhitneyFacade: the nonparametric method must agree
// with the default Welch campaign on a leaky small scenario.
func TestIntegrationMannWhitneyFacade(t *testing.T) {
	s := smallScenario(t)
	pools, err := s.ClassPools(1, 2, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, method := range []core.Method{core.MethodWelch, core.MethodMannWhitney} {
		ev, err := core.NewEvaluator(core.Config{RunsPerClass: 30, Method: method})
		if err != nil {
			t.Fatal(err)
		}
		// One shard per class on the one scenario target, in class order.
		p, err := pipeline.New(ev, pipeline.Config{Workers: 1, ShardRuns: 30})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := p.Evaluate(context.Background(), "facade-"+method.String(), func(int64) (core.Target, error) { return s.Target, nil }, pools)
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Tests) != 12 { // 6 pairs × 2 events
			t.Fatalf("%s: tests = %d, want 12", method, len(rep.Tests))
		}
	}
}
