package repro

// The benchmark harness regenerates every table and figure of the paper's
// evaluation section, plus the ablations DESIGN.md calls out. Run with:
//
//	go test -bench=. -benchmem
//
// Heavy campaign benches print the regenerated table/figure once; the
// per-operation micro benches quantify the simulation costs.

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"testing"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/hpc"
	"repro/internal/instrument"
	"repro/internal/march"
	"repro/internal/march/branch"
	"repro/internal/march/cache"
	"repro/internal/march/mem"
	"repro/internal/pipeline"
	"repro/internal/stats"
	"repro/internal/tensor"
)

// headline caches the full Table 1/2 campaign reports so the figure
// benches re-render from the same distributions instead of re-collecting.
var (
	headlineMu   sync.Mutex
	headlineReps = map[Dataset]*Report{}

	printedMu sync.Mutex
	printed   = map[string]bool{}
)

// printOnce returns true the first time label is seen; the benchmark
// framework re-invokes bench functions with growing b.N, and regenerated
// tables should be printed only once per process.
func printOnce(label string) bool {
	printedMu.Lock()
	defer printedMu.Unlock()
	if printed[label] {
		return false
	}
	printed[label] = true
	return true
}

func headlineReport(b *testing.B, d Dataset) *Report {
	b.Helper()
	headlineMu.Lock()
	defer headlineMu.Unlock()
	if rep, ok := headlineReps[d]; ok {
		return rep
	}
	s, err := DefaultScenario(d)
	if err != nil {
		b.Fatal(err)
	}
	rep, err := s.EvaluateCtx(context.Background(), EvalConfig{})
	if err != nil {
		b.Fatal(err)
	}
	headlineReps[d] = rep
	return rep
}

// runTableBench runs the full campaign per iteration and prints the
// regenerated table once.
func runTableBench(b *testing.B, d Dataset, label string) {
	s, err := DefaultScenario(d)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := s.EvaluateCtx(context.Background(), EvalConfig{})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 && printOnce(label) {
			b.StopTimer()
			fmt.Printf("\n=== %s (regenerated) ===\n", label)
			if err := TableTTests(os.Stdout, rep); err != nil {
				b.Fatal(err)
			}
			ok, findings := ShapeCheck(rep)
			for _, f := range findings {
				fmt.Println("  ", f)
			}
			fmt.Printf("   shape matches paper: %v\n", ok)
			headlineMu.Lock()
			headlineReps[d] = rep
			headlineMu.Unlock()
			b.StartTimer()
		}
	}
}

// BenchmarkTable1MNISTTTests regenerates Table 1: Welch t-tests on
// cache-misses and branches over MNIST categories 1-4.
func BenchmarkTable1MNISTTTests(b *testing.B) {
	runTableBench(b, DatasetMNIST, "Table 1: MNIST t-tests")
}

// BenchmarkTable2CIFARTTests regenerates Table 2 for CIFAR-10.
func BenchmarkTable2CIFARTTests(b *testing.B) {
	runTableBench(b, DatasetCIFAR, "Table 2: CIFAR-10 t-tests")
}

// figure1Bench renders the Figure 1 bar chart from the headline
// distributions.
func figure1Bench(b *testing.B, d Dataset, title string) {
	rep := headlineReport(b, d)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		means := make([]float64, len(rep.Dists.Classes))
		for j, cls := range rep.Dists.Classes {
			means[j] = stats.Mean(rep.Dists.Get(EvCacheMisses, cls))
		}
		if i == 0 && printOnce(title) {
			b.StopTimer()
			fmt.Printf("\n=== %s (regenerated) ===\n", title)
			if err := RenderFigure1(os.Stdout, title, rep); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
	}
}

// BenchmarkFigure1aMNISTAvgCacheMisses regenerates Figure 1(a).
func BenchmarkFigure1aMNISTAvgCacheMisses(b *testing.B) {
	figure1Bench(b, DatasetMNIST, "Figure 1(a): avg cache-misses per category, MNIST")
}

// BenchmarkFigure1bCIFARAvgCacheMisses regenerates Figure 1(b).
func BenchmarkFigure1bCIFARAvgCacheMisses(b *testing.B) {
	figure1Bench(b, DatasetCIFAR, "Figure 1(b): avg cache-misses per category, CIFAR-10")
}

// BenchmarkFigure2bPerfStat regenerates Figure 2(b): the perf-stat dump of
// all 8 events for one classification (8 events multiplexed onto 6
// registers).
func BenchmarkFigure2bPerfStat(b *testing.B) {
	s, err := DefaultScenario(DatasetMNIST)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, out, err := Figure2b(s)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 && printOnce("fig2b") {
			b.StopTimer()
			fmt.Printf("\n=== Figure 2(b): perf stat for one classification (regenerated) ===\n%s", out)
			b.StartTimer()
		}
	}
}

// figureDistBench renders a Figure 3/4 histogram panel.
func figureDistBench(b *testing.B, d Dataset, e Event, title string) {
	rep := headlineReport(b, d)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i == 0 && printOnce(title) {
			b.StopTimer()
			fmt.Printf("\n=== %s (regenerated) ===\n", title)
			if err := FigureDistributions(os.Stdout, title, rep, e); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			continue
		}
		var sink nullWriter
		if err := FigureDistributions(&sink, title, rep, e); err != nil {
			b.Fatal(err)
		}
	}
}

type nullWriter struct{}

func (nullWriter) Write(p []byte) (int, error) { return len(p), nil }

// BenchmarkFigure3aMNISTCacheMissDistributions regenerates Figure 3(a).
func BenchmarkFigure3aMNISTCacheMissDistributions(b *testing.B) {
	figureDistBench(b, DatasetMNIST, EvCacheMisses, "Figure 3(a): cache-misses distributions, MNIST")
}

// BenchmarkFigure3bMNISTBranchDistributions regenerates Figure 3(b).
func BenchmarkFigure3bMNISTBranchDistributions(b *testing.B) {
	figureDistBench(b, DatasetMNIST, EvBranches, "Figure 3(b): branches distributions, MNIST")
}

// BenchmarkFigure4aCIFARCacheMissDistributions regenerates Figure 4(a).
func BenchmarkFigure4aCIFARCacheMissDistributions(b *testing.B) {
	figureDistBench(b, DatasetCIFAR, EvCacheMisses, "Figure 4(a): cache-misses distributions, CIFAR-10")
}

// BenchmarkFigure4bCIFARBranchDistributions regenerates Figure 4(b).
func BenchmarkFigure4bCIFARBranchDistributions(b *testing.B) {
	figureDistBench(b, DatasetCIFAR, EvBranches, "Figure 4(b): branches distributions, CIFAR-10")
}

// BenchmarkAblationDefenseVsBaseline reruns the Table 1 campaign at every
// defense level — the countermeasure evaluation from the paper's
// conclusion. Alarm counts per level are printed.
func BenchmarkAblationDefenseVsBaseline(b *testing.B) {
	levels := []DefenseLevel{DefenseBaseline, DefenseDense, DefenseConstantTime, DefenseNoiseInjection}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i > 0 || !printOnce("ablation-defense") {
			break
		}
		b.StopTimer()
		fmt.Printf("\n=== Ablation: defenses vs baseline (MNIST, 120 runs/category) ===\n")
		fmt.Printf("%-18s%10s%16s%12s\n", "defense", "alarms", "cache-misses", "branches")
		b.StartTimer()
		for _, level := range levels {
			s, err := NewScenario(ScenarioConfig{
				Dataset: DatasetMNIST, Defense: level, Seed: 3,
				PerClassTrain: 60, PerClassTest: 30,
			})
			if err != nil {
				b.Fatal(err)
			}
			rep, err := s.EvaluateCtx(context.Background(), EvalConfig{RunsPerClass: 120})
			if err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			fmt.Printf("%-18s%10d%16d%12d\n", level, len(rep.Alarms),
				len(rep.AlarmsFor(EvCacheMisses)), len(rep.AlarmsFor(EvBranches)))
			b.StartTimer()
		}
	}
}

// BenchmarkAblationCacheGeometry sweeps the LLC size and reports the
// strongest cache-miss |t| across category pairs: the leak requires the
// working set to exceed the LLC.
func BenchmarkAblationCacheGeometry(b *testing.B) {
	s, err := DefaultScenario(DatasetMNIST)
	if err != nil {
		b.Fatal(err)
	}
	pools, err := s.ClassPools(1, 2, 3, 4)
	if err != nil {
		b.Fatal(err)
	}
	sizes := []uint64{16 << 10, 32 << 10, 64 << 10, 256 << 10}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i > 0 || !printOnce("ablation-geometry") {
			break
		}
		b.StopTimer()
		fmt.Printf("\n=== Ablation: LLC size vs leakage (MNIST, 80 runs/category) ===\n")
		fmt.Printf("%-12s%18s%22s\n", "LLC", "max |t| (misses)", "significant pairs")
		b.StartTimer()
		for _, size := range sizes {
			h, err := cache.NewHierarchy(
				cache.Config{Name: "L1D", Size: 4 << 10, LineSize: 64, Assoc: 4, Policy: cache.TreePLRU},
				cache.Config{Name: "L2", Size: 16 << 10, LineSize: 64, Assoc: 4, Policy: cache.TreePLRU},
				cache.Config{Name: "LLC", Size: size, LineSize: 64, Assoc: 8, Policy: cache.LRU},
			)
			if err != nil {
				b.Fatal(err)
			}
			eng, err := march.NewEngine(march.Config{Hierarchy: h, Noise: march.DefaultNoise(9)})
			if err != nil {
				b.Fatal(err)
			}
			cls, err := instrument.New(s.Net, eng, instrument.Options{SparsitySkip: true, Runtime: instrument.DefaultRuntime(), Seed: 5})
			if err != nil {
				b.Fatal(err)
			}
			ev, err := core.NewEvaluator(core.Config{Events: []Event{EvCacheMisses}, RunsPerClass: 80})
			if err != nil {
				b.Fatal(err)
			}
			// One shard per class on the one classifier, in class order.
			p, err := pipeline.New(ev, pipeline.Config{Workers: 1, ShardRuns: 80})
			if err != nil {
				b.Fatal(err)
			}
			rep, err := p.Evaluate(context.Background(), "geom", func(int64) (core.Target, error) { return cls, nil }, pools)
			if err != nil {
				b.Fatal(err)
			}
			maxT, sig := 0.0, 0
			for _, t := range rep.Tests {
				at := t.Result.T
				if at < 0 {
					at = -at
				}
				if at > maxT {
					maxT = at
				}
				if t.Distinguishable(0.05) {
					sig++
				}
			}
			b.StopTimer()
			fmt.Printf("%-12s%18.2f%19d/6\n", fmt.Sprintf("%dKiB", size>>10), maxT, sig)
			b.StartTimer()
		}
	}
}

// BenchmarkAblationSampleSize shows the √n growth of the t-statistic with
// the number of monitored classifications.
func BenchmarkAblationSampleSize(b *testing.B) {
	s, err := DefaultScenario(DatasetMNIST)
	if err != nil {
		b.Fatal(err)
	}
	sizes := []int{25, 50, 100, 200}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i > 0 || !printOnce("ablation-samplesize") {
			break
		}
		b.StopTimer()
		fmt.Printf("\n=== Ablation: sample size vs t-statistic (MNIST, strongest pair) ===\n")
		fmt.Printf("%-10s%16s%20s\n", "n/class", "max |t| (misses)", "significant pairs")
		b.StartTimer()
		for _, n := range sizes {
			rep, err := s.EvaluateCtx(context.Background(), EvalConfig{RunsPerClass: n, Events: []Event{EvCacheMisses}})
			if err != nil {
				b.Fatal(err)
			}
			maxT, sig := 0.0, 0
			for _, t := range rep.TestsFor(EvCacheMisses) {
				at := t.Result.T
				if at < 0 {
					at = -at
				}
				if at > maxT {
					maxT = at
				}
				if t.Distinguishable(0.05) {
					sig++
				}
			}
			b.StopTimer()
			fmt.Printf("%-10d%16.2f%17d/6\n", n, maxT, sig)
			b.StartTimer()
		}
	}
}

// BenchmarkAttackInputRecovery runs the end-to-end template attack: the
// exploitability demonstration behind the Evaluator's alarms.
func BenchmarkAttackInputRecovery(b *testing.B) {
	s, err := DefaultScenario(DatasetMNIST)
	if err != nil {
		b.Fatal(err)
	}
	pools, err := s.ClassPools(1, 2, 3, 4)
	if err != nil {
		b.Fatal(err)
	}
	events := []Event{EvCacheMisses, EvBranches}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pmu, err := hpc.NewPMU(s.Engine, hpc.DefaultCounters)
		if err != nil {
			b.Fatal(err)
		}
		if err := pmu.Program(events...); err != nil {
			b.Fatal(err)
		}
		profiler, err := attack.NewProfiler(events)
		if err != nil {
			b.Fatal(err)
		}
		for cls, imgs := range pools {
			for r := 0; r < 40; r++ {
				img := imgs[r%len(imgs)]
				prof, err := pmu.MeasureOnce(func() { s.Target.Classify(img) })
				if err != nil {
					b.Fatal(err)
				}
				profiler.Add(cls, prof)
			}
		}
		atk, err := profiler.Build()
		if err != nil {
			b.Fatal(err)
		}
		cm := attack.NewConfusionMatrix([]int{1, 2, 3, 4})
		for cls, imgs := range pools {
			for r := 0; r < 20; r++ {
				img := imgs[(r*3+1)%len(imgs)]
				prof, err := pmu.MeasureOnce(func() { s.Target.Classify(img) })
				if err != nil {
					b.Fatal(err)
				}
				pred, _ := atk.Classify(prof)
				cm.Record(cls, pred)
			}
		}
		if i == 0 && printOnce("attack") {
			b.StopTimer()
			fmt.Printf("\n=== Attack: input-category recovery from HPCs (MNIST) ===\n")
			fmt.Printf("accuracy %.0f%% (chance %.0f%%)\n", 100*cm.Accuracy(), 100*cm.ChanceLevel())
			b.StartTimer()
		}
		b.ReportMetric(cm.Accuracy(), "accuracy")
	}
}

// BenchmarkAttackStage runs the pipeline-backed attack stage — sharded
// profile collection, deterministic split, both attackers fitted and
// scored — the workload `make ci` smoke-tests alongside the evaluation
// campaigns. Sequential and pooled runs report the same accuracy for the
// same seed; only wall-clock differs.
func BenchmarkAttackStage(b *testing.B) {
	s, err := DefaultScenario(DatasetMNIST)
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := s.Attack(context.Background(), AttackConfig{
					ProfileRuns: 40,
					AttackRuns:  20,
					Workers:     workers,
					Seed:        17,
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.Template.Accuracy(), "template_acc")
				b.ReportMetric(res.KNN.Accuracy(), "knn_acc")
			}
		})
	}
}

// BenchmarkArchIDStage runs the architecture-fingerprinting stage — the
// default zoo deployed per class label through the class-aware pipeline,
// both attackers recovering the architecture id — at both worker counts,
// extending the trajectory alongside the evaluation and attack stages.
// Accuracy metrics are identical across worker counts for the same seed.
func BenchmarkArchIDStage(b *testing.B) {
	s, err := DefaultScenario(DatasetMNIST)
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := s.ArchID(context.Background(), ArchIDConfig{
					ProfileRuns: 12,
					AttackRuns:  6,
					MaxInputs:   12,
					Workers:     workers,
					Seed:        17,
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.Attack.Template.Accuracy(), "template_acc")
				b.ReportMetric(res.Attack.KNN.Accuracy(), "knn_acc")
			}
		})
	}
}

// BenchmarkTopoStage runs the topology-recovery stage — attacker models
// fitted on a training zoo, a disjoint held-out zoo reconstructed
// layer-by-layer and validated through the class-aware pipeline — at both
// worker counts, extending the trajectory alongside the evaluation,
// attack and archid stages. Recovery metrics are identical across worker
// counts for the same seed.
func BenchmarkTopoStage(b *testing.B) {
	s, err := DefaultScenario(DatasetMNIST)
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := s.Topo(context.Background(), TopoConfig{
					TrainZoo:  6,
					Holdout:   5,
					Runs:      6,
					MaxInputs: 8,
					Workers:   workers,
					Seed:      17,
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.ExactCountRate, "exact_rate")
				b.ReportMetric(res.MeanKindAccuracy, "kind_acc")
			}
		})
	}
}

// --- Micro benchmarks: per-operation simulation costs. ---

// BenchmarkClassifyMNIST measures one instrumented MNIST classification.
func BenchmarkClassifyMNIST(b *testing.B) {
	benchClassify(b, DatasetMNIST)
}

// BenchmarkClassifyCIFAR measures one instrumented CIFAR classification.
func BenchmarkClassifyCIFAR(b *testing.B) {
	benchClassify(b, DatasetCIFAR)
}

func benchClassify(b *testing.B, d Dataset) {
	s, err := DefaultScenario(d)
	if err != nil {
		b.Fatal(err)
	}
	pools, err := s.ClassPools(1)
	if err != nil {
		b.Fatal(err)
	}
	imgs := pools[1]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Target.Classify(imgs[i%len(imgs)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCacheAccess measures the simulator's per-access cost.
func BenchmarkCacheAccess(b *testing.B) {
	h := instrument.SimHierarchy()
	rng := rand.New(rand.NewSource(1))
	addrs := make([]uint64, 4096)
	for i := range addrs {
		addrs[i] = uint64(rng.Intn(1 << 20))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// The engine's miss walk: retry each level until one hits.
		for _, lv := range h.Levels {
			if lv.Access(mem.Addr(addrs[i%len(addrs)]), false) {
				break
			}
		}
	}
}

// BenchmarkEngineLoadHot measures the engine's same-line fast path: the
// cost of a load that re-touches the line the previous access hit.
func BenchmarkEngineLoadHot(b *testing.B) {
	eng, err := march.NewEngine(march.Config{Hierarchy: instrument.SimHierarchy()})
	if err != nil {
		b.Fatal(err)
	}
	eng.Load(0x1000, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Load(0x1000, 4)
	}
}

// BenchmarkEngineLoadRange measures the batched sequential element walk
// (one cache-line lookup per 16 four-byte elements).
func BenchmarkEngineLoadRange(b *testing.B) {
	eng, err := march.NewEngine(march.Config{Hierarchy: instrument.SimHierarchy()})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.LoadRange(0x1000, 4, 256) // 1 KiB walk, L1-resident
	}
}

// BenchmarkBranchPredict measures the tournament predictor's per-branch
// cost.
func BenchmarkBranchPredict(b *testing.B) {
	p := branch.New()
	rng := rand.New(rand.NewSource(2))
	pattern := make([]bool, 4096)
	for i := range pattern {
		pattern[i] = rng.Float64() < 0.7
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Record(uint64(i%256)*4, pattern[i%len(pattern)])
	}
}

// BenchmarkWelchTTest measures the statistical core on 300-sample groups.
func BenchmarkWelchTTest(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	x := make([]float64, 300)
	y := make([]float64, 300)
	for i := range x {
		x[i] = rng.NormFloat64() * 100
		y[i] = rng.NormFloat64()*100 + 10
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := stats.WelchTTest(x, y); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPMUMeasure measures the measurement-interval overhead on the
// steady-state path the collection pipeline uses: a reused Profile through
// MeasureOnceInto (0 allocs/op).
func BenchmarkPMUMeasure(b *testing.B) {
	eng, err := march.NewEngine(march.Config{})
	if err != nil {
		b.Fatal(err)
	}
	pmu, err := hpc.NewPMU(eng, hpc.DefaultCounters)
	if err != nil {
		b.Fatal(err)
	}
	if err := pmu.Program(EvCacheMisses, EvBranches); err != nil {
		b.Fatal(err)
	}
	prof := make(hpc.Profile, 2)
	work := func() { eng.Ops(100) }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := pmu.MeasureOnceInto(prof, work); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTrainMNIST measures training the default MNIST scenario's
// network (NewScenario's dataset, seeds and hyperparameters), the
// largest host cost of building a scenario. Training is data-parallel,
// so it scales with GOMAXPROCS.
func BenchmarkTrainMNIST(b *testing.B) {
	s, err := newScenarioData(ScenarioConfig{Dataset: DatasetMNIST})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.trainNet(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTrainKernels times each tensor kernel that training runs, at
// the MNIST scenario network's shapes: conv1 (28×28×1 → 26×26×8, im2col
// 676×9) and conv2 (13×13×8 → 11×11×16, im2col 121×72). Operands are
// about 40% zeros, like post-ReLU activations, so the matmuls' zero skip
// fires as it does in training.
func BenchmarkTrainKernels(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	operand := func(n int) []float32 {
		v := make([]float32, n)
		for i := range v {
			if rng.Float64() >= 0.4 {
				v[i] = float32(rng.NormFloat64())
			}
		}
		return v
	}
	g1 := tensor.ConvGeom{InH: 28, InW: 28, InC: 1, K: 3, Stride: 1, OutC: 8}
	g2 := tensor.ConvGeom{InH: 13, InW: 13, InC: 8, K: 3, Stride: 1, OutC: 16}
	rows1, cols1 := g1.OutH()*g1.OutW(), g1.K*g1.K*g1.InC
	rows2, cols2 := g2.OutH()*g2.OutW(), g2.K*g2.K*g2.InC
	in1, in2 := operand(g1.InH*g1.InW*g1.InC), operand(g2.InH*g2.InW*g2.InC)
	colBuf1, colBuf2 := operand(rows1*cols1), operand(rows2*cols2)
	filt1, filt2 := operand(cols1*g1.OutC), operand(cols2*g2.OutC)
	grad1, grad2 := operand(rows1*g1.OutC), operand(rows2*g2.OutC)
	out1, out2 := make([]float32, rows1*g1.OutC), make([]float32, rows2*g2.OutC)
	df1, df2 := make([]float32, cols1*g1.OutC), make([]float32, cols2*g2.OutC)
	dCols2, dIn2 := make([]float32, rows2*cols2), make([]float32, len(in2))
	im1, im2 := make([]float32, len(colBuf1)), make([]float32, len(colBuf2))
	for _, c := range []struct {
		name string
		run  func()
	}{
		{"conv1-forward", func() { tensor.MatMulInto(out1, colBuf1, filt1, rows1, cols1, g1.OutC) }},
		{"conv2-forward", func() { tensor.MatMulInto(out2, colBuf2, filt2, rows2, cols2, g2.OutC) }},
		{"conv1-dFilter", func() { tensor.MatMulTransA(df1, colBuf1, grad1, cols1, rows1, g1.OutC) }},
		{"conv2-dFilter", func() { tensor.MatMulTransA(df2, colBuf2, grad2, cols2, rows2, g2.OutC) }},
		{"conv2-dCols", func() { tensor.MatMulTransB(dCols2, grad2, filt2, rows2, g2.OutC, cols2) }},
		{"conv1-im2col", func() { tensor.Im2Col(im1, in1, g1) }},
		{"conv2-im2col", func() { tensor.Im2Col(im2, in2, g2) }},
		{"conv2-col2im", func() { tensor.Col2Im(dIn2, dCols2, g2) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c.run()
			}
		})
	}
}

// BenchmarkMonitorStream runs the streaming leakage monitor — windowed
// collection through the stream seam, sequential tests under the
// alpha-spending boundary — against the shared MNIST scenario. The
// early-stop variants report the detection trace count (identical
// across worker counts for the same seed); the no-stop variant measures
// the full streamed-to-exhaustion campaign including the batch report
// tail.
func BenchmarkMonitorStream(b *testing.B) {
	s, err := DefaultScenario(DatasetMNIST)
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name    string
		workers int
		noStop  bool
	}{
		{"workers=1", 1, false},
		{fmt.Sprintf("workers=%d", runtime.GOMAXPROCS(0)), runtime.GOMAXPROCS(0), false},
		{"workers=1/nostop", 1, true},
	} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rep, err := s.MonitorCtx(context.Background(), MonitorConfig{
					Classes: []int{1, 2},
					Budget:  60,
					Workers: c.workers,
					Seed:    17,
					NoStop:  c.noStop,
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(rep.TracesSeen), "traces")
				if rep.Detection != nil {
					b.ReportMetric(float64(rep.Detection.Traces), "detect_traces")
				}
			}
		})
	}
}
