package main

// The traced run. Each workload's campaign is re-composed here from the
// public functions of the layers it passes through, with timers around
// the calls, and its output must hash to the same digest as the untraced
// repro call. The program itself gains no hook: targets are wrapped on
// their way out of Scenario.FactoryFor, the fabric pool behind a timing
// Dispatcher, and pipeline stage and shard spans come from the existing
// obs.Recorder armed through pipeline.Config.Obs.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"repro"
	"repro/internal/archid"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/fabric"
	"repro/internal/march"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/tensor"
	"repro/internal/topo"
)

// runTraced builds the workload seed's first scenario, times the set-up
// layers, then runs one untraced and one traced campaign; both must match
// the reference.
func runTraced(ctx context.Context, w workload, base env, seed int64, refs refTable, res *result, log io.Writer) error {
	e := &base
	e.unit = unitSeed(seed, 0)
	e.root = rootSeed(e.unit)
	s, err := repro.NewScenario(scenarioConfig(base.size, w, e.unit))
	if err != nil {
		return fmt.Errorf("setting up the scenario: %w", err)
	}
	e.s = s
	l := &layers{}
	if err := l.timeSetup(s); err != nil {
		return err
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	out, uerr := w.campaign(ctx, e)
	l.untracedS = time.Since(start).Seconds()
	runtime.ReadMemStats(&after)
	l.allocMB = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	l.gcCycles = float64(after.NumGC - before.NumGC)

	runtime.GC()
	start = time.Now()
	traced, terr := w.trace(ctx, e, l)
	l.campaignS = time.Since(start).Seconds()

	want, err := reference(ctx, w, e, refs)
	if err != nil {
		return err
	}
	res.Attempted = 2
	if uerr != nil {
		fmt.Fprintf(log, "perfbench: untraced campaign failed: %v\n", uerr)
		res.Failed++
	} else if d := digest(out); d != want {
		fmt.Fprintf(log, "perfbench: untraced output digest %s, want %s\n", d, want)
		res.Failed++
	}
	if terr != nil {
		fmt.Fprintf(log, "perfbench: traced campaign failed: %v\n", terr)
		res.Failed++
	} else if d := digest(traced); d != want || (uerr == nil && d != digest(out)) {
		fmt.Fprintf(log, "perfbench: traced output digest %s differs from the untraced campaign's\n", d)
		res.Failed++
	}
	l.report(res)
	return nil
}

// layers accumulates one traced campaign's per-layer measurements.
type layers struct {
	mu      sync.Mutex
	targets []*timedTarget
	// rec holds the pipeline's stage and shard spans.
	rec *obs.Recorder
	// measured counts the measured classifications (consumed traces for
	// the monitor).
	measured int

	// collectS and busyS are set by compositions that time collection
	// themselves (the fabric); span-derived values are added to them.
	collectS, busyS float64
	windows, looks  int
	lookS           float64

	poolStartS   float64
	dispatchMS   []float64
	payloadBytes int64
	fabricMergeS float64
	workerRSSMB  float64

	datasetGenS, nnTrainS, zooBuildS        float64
	archCollectS, archScoreS                float64
	topoSetupS, topoCollectS, topoScoreS    float64
	campaignS, untracedS, allocMB, gcCycles float64
}

// timeSetup times dataset generation and CNN training by repeating
// repro.NewScenario's recipe for s from the layers' own entry points. The
// retrained network must score exactly as the scenario's, or the timings
// would describe different work.
func (l *layers) timeSetup(s *repro.Scenario) error {
	c := s.Config
	start := time.Now()
	train, test, err := dataset.MNISTLike(dataset.Config{PerClassTrain: c.PerClassTrain, PerClassTest: c.PerClassTest, Seed: c.Seed})
	if err != nil {
		return err
	}
	l.datasetGenS = time.Since(start).Seconds()
	net, err := nn.Build(s.Arch, rand.New(rand.NewSource(c.Seed+1)))
	if err != nil {
		return err
	}
	lr := c.LR
	if lr <= 0 {
		lr = 0.05 // NewScenario's MNIST default
	}
	start = time.Now()
	err = nn.Train(net, train.Inputs(), train.Labels(), nn.TrainConfig{
		Epochs: c.Epochs, BatchSize: 16, LR: lr, Momentum: 0.9, Seed: c.Seed + 2,
	})
	if err != nil {
		return err
	}
	l.nnTrainS = time.Since(start).Seconds()
	acc, err := nn.Accuracy(net, test.Inputs(), test.Labels())
	if err != nil {
		return err
	}
	if acc != s.TestAccuracy {
		return fmt.Errorf("set-up timing trained a different network than repro.NewScenario (accuracy %v, want %v)", acc, s.TestAccuracy)
	}
	return nil
}

// timedTarget times every Classify and accumulates the engine's counter
// deltas across it. One exists per shard, so it is never shared between
// goroutines; layers reads it after the campaign returns.
type timedTarget struct {
	core.Target
	hot    obs.HotCounters
	us     []float64
	ns     int64
	counts march.Counts
}

func (t *timedTarget) Classify(img *tensor.Tensor) (int, error) {
	eng := t.Engine()
	before := eng.Counts()
	start := time.Now()
	pred, err := t.Target.Classify(img)
	d := time.Since(start)
	delta := eng.Counts().Sub(before)
	for i := range t.counts {
		t.counts[i] += delta[i]
	}
	t.ns += d.Nanoseconds()
	t.us = append(t.us, float64(d.Nanoseconds())/1e3)
	return pred, err
}

// timed wraps every target f builds in a timedTarget and attaches the
// engine's load/store tally to it.
func (l *layers) timed(f pipeline.TargetFactory) pipeline.TargetFactory {
	return func(seed int64) (core.Target, error) {
		t, err := f(seed)
		if err != nil {
			return nil, err
		}
		tt := &timedTarget{Target: t}
		t.Engine().SetHotCounters(&tt.hot)
		l.mu.Lock()
		l.targets = append(l.targets, tt)
		l.mu.Unlock()
		return tt, nil
	}
}

// report sets every per-layer metric. A layer the workload does not run
// reports 0.
func (l *layers) report(res *result) {
	var us []float64
	var classifyNS int64
	var counts march.Counts
	var hot obs.HotCounters
	for _, t := range l.targets {
		us = append(us, t.us...)
		classifyNS += t.ns
		for i := range counts {
			counts[i] += t.counts[i]
		}
		hot.Loads += t.hot.Loads
		hot.Stores += t.hot.Stores
	}
	classifyS := float64(classifyNS) / 1e9
	calls := float64(len(us))

	var shardS []float64
	collect, busy, merge, test := l.collectS, l.busyS, 0.0, 0.0
	for _, ev := range l.rec.Events() {
		d := float64(ev.Dur) / 1e6
		switch {
		case ev.Cat == "shard":
			shardS = append(shardS, d)
			busy += d
		case ev.Cat == "pipeline" && (ev.Name == "collect" || ev.Name == "stream"):
			collect += d
		case ev.Cat == "pipeline" && ev.Name == "merge":
			merge += d
		case ev.Cat == "pipeline" && ev.Name == "test":
			test += d
		}
	}
	shardTotal := sum(shardS)
	measureOverhead := 0.0
	if calls > 0 && l.measured > 0 {
		measureOverhead = (shardTotal - classifyS) / float64(l.measured) * 1e6
	}

	res.set("dataset.gen_s", l.datasetGenS, "s")
	res.set("nn.train_s", l.nnTrainS, "s")

	tl, pct := tail(us)
	res.set("instrument.classify_us.p50", median(us), "us")
	res.set("instrument.classify_us.tail", tl, "us")
	res.note("instrument.classify_us.tail", "p%g of %d calls", pct, len(us))
	res.set("instrument.classify_calls", calls, "count")
	res.set("instrument.share_of_shard", ratio(classifyS, shardTotal), "ratio")
	res.set("march.host_ns_per_l1d_load", ratio(float64(classifyNS), float64(counts[march.EvL1DLoads])), "ns")

	res.set("march.sim_inst_per_cls", ratio(float64(counts[march.EvInstructions]), calls), "inst")
	res.set("march.l1d_loads_per_cls", ratio(float64(counts[march.EvL1DLoads]), calls), "loads")
	res.set("march.l1d_miss_ratio", ratio(float64(counts[march.EvL1DLoadMisses]), float64(counts[march.EvL1DLoads])), "ratio")
	res.set("march.llc_miss_ratio", ratio(float64(counts[march.EvCacheMisses]), float64(counts[march.EvCacheReferences])), "ratio")
	res.set("march.branch_miss_ratio", ratio(float64(counts[march.EvBranchMisses]), float64(counts[march.EvBranches])), "ratio")
	res.set("march.engine_loads_per_cls", ratio(float64(hot.Loads), calls), "loads")
	res.set("march.engine_stores_per_cls", ratio(float64(hot.Stores), calls), "stores")

	res.set("hpc.measure_overhead_us", measureOverhead, "us")
	tl, pct = tail(shardS)
	res.set("core.shard_s.p50", median(shardS), "s")
	res.set("core.shard_s.tail", tl, "s")
	res.note("core.shard_s.tail", "p%g of %d shards", pct, len(shardS))
	res.set("core.useful_ratio", ratio(float64(l.measured), calls), "ratio")

	res.set("pipeline.busy_ratio", ratio(busy, workers*collect), "ratio")
	res.set("pipeline.merge_s", merge, "s")
	res.set("pipeline.windows", float64(l.windows), "count")
	res.set("pipeline.share_of_campaign", ratio(collect, l.campaignS), "ratio")

	res.set("stats.test_s", test, "s")
	res.set("stats.looks", float64(l.looks), "count")
	res.set("stats.look_s", l.lookS, "s")

	tl, pct = tail(l.dispatchMS)
	res.set("fabric.pool_start_s", l.poolStartS, "s")
	res.set("fabric.dispatch_ms.p50", median(l.dispatchMS), "ms")
	res.set("fabric.dispatch_ms.tail", tl, "ms")
	res.note("fabric.dispatch_ms.tail", "p%g of %d dispatches", pct, len(l.dispatchMS))
	res.set("fabric.bytes_per_shard", ratio(float64(l.payloadBytes), float64(len(l.dispatchMS))), "bytes")
	res.set("fabric.merge_s", l.fabricMergeS, "s")
	res.set("fabric.worker_rss_mb", l.workerRSSMB, "MB")

	res.set("nn.zoo_build_s", l.zooBuildS, "s")
	res.set("archid.collect_s", l.archCollectS, "s")
	res.set("archid.score_s", l.archScoreS, "s")
	res.set("topo.setup_s", l.topoSetupS, "s")
	res.set("topo.collect_s", l.topoCollectS, "s")
	res.set("topo.score_s", l.topoScoreS, "s")

	res.set("repro.campaign_alloc_mb", l.allocMB, "MB")
	res.set("repro.gc_cycles", l.gcCycles, "count")
	res.set("obs.overhead_ratio", ratio(l.campaignS, l.untracedS), "ratio")
	res.note("obs.overhead_ratio", "traced %.3f s / untraced %.3f s", l.campaignS, l.untracedS)
}

func campaignName(s *repro.Scenario) string {
	return fmt.Sprintf("%s/%s", s.Config.Dataset, s.Config.Defense)
}

// traceAudit is Scenario.EvaluateCtx's pipeline path with timed targets.
func traceAudit(ctx context.Context, e *env, l *layers) ([]byte, error) {
	s := e.s
	ev, err := core.NewEvaluator(core.Config{RunsPerClass: e.size.runsPerClass})
	if err != nil {
		return nil, err
	}
	classes := repro.PaperClasses()
	pools, err := s.ClassPools(classes...)
	if err != nil {
		return nil, err
	}
	l.rec = obs.New(obs.Config{Label: "perfbench"})
	p, err := pipeline.New(ev, pipeline.Config{Workers: workers, RootSeed: e.root, Obs: l.rec})
	if err != nil {
		return nil, err
	}
	rep, err := p.Evaluate(ctx, campaignName(s), l.timed(s.FactoryFor(s.Config.Defense)), pools)
	if err != nil {
		return nil, err
	}
	l.measured = len(classes) * e.size.runsPerClass
	return json.Marshal(rep)
}

// fabricSpecProto is the WorkerSpec layout version shardworkers accept;
// it must match the one repro stamps on the specs it sends.
const fabricSpecProto = "repro-fabric-1"

// traceFabric is the fabric path of Scenario.EvaluateCtx with the pool
// behind a timing Dispatcher.
func traceFabric(ctx context.Context, e *env, l *layers) ([]byte, error) {
	s := e.s
	classes := repro.PaperClasses()
	ev, err := core.NewEvaluator(core.Config{RunsPerClass: e.size.runsPerClass})
	if err != nil {
		return nil, err
	}
	pools, err := s.ClassPools(classes...)
	if err != nil {
		return nil, err
	}
	l.rec = obs.New(obs.Config{Label: "perfbench"})
	p, err := pipeline.New(ev, pipeline.Config{Workers: workers, RootSeed: e.root, Obs: l.rec})
	if err != nil {
		return nil, err
	}
	c := s.Config
	events := make([]string, len(ev.Config().Events))
	for i, ev := range ev.Config().Events {
		events[i] = ev.String()
	}
	spec, err := json.Marshal(repro.WorkerSpec{
		Proto: fabricSpecProto,
		Stage: repro.StageReport,
		Scenario: repro.ScenarioSpec{
			Dataset: c.Dataset, Seed: c.Seed, PerClassTrain: c.PerClassTrain, PerClassTest: c.PerClassTest,
			Epochs: c.Epochs, LR: c.LR, Defense: c.Defense.String(),
			DisableRuntime: c.DisableRuntime, DisableNoise: c.DisableNoise,
		},
		Level:        c.Defense.String(),
		Events:       events,
		Classes:      classes,
		RunsPerClass: e.size.runsPerClass,
		RootSeed:     e.root,
	})
	if err != nil {
		return nil, err
	}
	plans, err := p.WirePlans(pools)
	if err != nil {
		return nil, err
	}

	start := time.Now()
	pool, err := fabric.StartPool(ctx, fabric.PoolConfig{Bin: e.workerBin, Spec: spec, Procs: workers})
	if err != nil {
		return nil, err
	}
	l.poolStartS = time.Since(start).Seconds()
	start = time.Now()
	payloads, err := (&fabric.Coordinator{Dispatcher: &timedDispatcher{Dispatcher: pool, l: l}}).Run(ctx, plans)
	l.collectS = time.Since(start).Seconds()
	pool.Close() // reaps the workers, so their peak RSS is readable
	if err != nil {
		return nil, err
	}
	_, l.workerRSSMB = peakRSSMB()

	start = time.Now()
	byClass, err := p.MergeEncoded(plans, payloads)
	if err != nil {
		return nil, err
	}
	l.fabricMergeS = time.Since(start).Seconds()
	rep, err := p.ReportFromProfiles(ctx, campaignName(s), byClass)
	if err != nil {
		return nil, err
	}
	l.measured = len(classes) * e.size.runsPerClass
	return json.Marshal(rep)
}

// timedDispatcher times each shard's round trip through the fabric and
// counts the result bytes. The coordinator dispatches concurrently.
type timedDispatcher struct {
	pipeline.Dispatcher
	l *layers
}

func (d *timedDispatcher) Dispatch(ctx context.Context, plan pipeline.Plan) ([]byte, error) {
	start := time.Now()
	b, err := d.Dispatcher.Dispatch(ctx, plan)
	el := time.Since(start)
	d.l.mu.Lock()
	d.l.dispatchMS = append(d.l.dispatchMS, float64(el.Nanoseconds())/1e6)
	d.l.busyS += el.Seconds()
	d.l.payloadBytes += int64(len(b))
	d.l.mu.Unlock()
	return b, err
}

// traceZoo is Scenario.ArchID followed by Scenario.Topo for the default
// two-event (one register group) sessions, with timers around each
// campaign's construction, collection and scoring.
func traceZoo(ctx context.Context, e *env, l *layers) ([]byte, error) {
	s := e.s
	level := s.Config.Defense
	l.rec = obs.New(obs.Config{Label: "perfbench"})

	a := e.size.archid
	zoo, err := s.ArchZoo()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	acamp, err := archid.NewCampaign(archid.Config{
		Name: fmt.Sprintf("%s-archid/%s", s.Config.Dataset, level), Zoo: zoo,
		Inputs: firstInputs(s, a.MaxInputs), Level: level,
		ProfileRuns: a.ProfileRuns, AttackRuns: a.AttackRuns, K: a.K,
		Workers: workers, Seed: e.root, Obs: l.rec,
	})
	if err != nil {
		return nil, err
	}
	l.zooBuildS = time.Since(start).Seconds()
	archEvents := []march.Event{march.EvCacheMisses, march.EvBranches} // ArchIDConfig's default
	start = time.Now()
	byArch, err := acamp.Collect(ctx, archEvents, 0)
	if err != nil {
		return nil, err
	}
	l.archCollectS = time.Since(start).Seconds()
	start = time.Now()
	arch, err := acamp.Score(archEvents, byArch)
	if err != nil {
		return nil, err
	}
	l.archScoreS = time.Since(start).Seconds()

	t := e.size.topo
	start = time.Now()
	tcamp, err := topo.NewCampaign(topo.Config{
		Name: fmt.Sprintf("%s-topo/%s", s.Config.Dataset, level),
		InH:  s.Arch.InH, InW: s.Arch.InW, InC: s.Arch.InC, Classes: s.Arch.Classes,
		Inputs: firstInputs(s, t.MaxInputs), Level: level,
		TrainSize: t.TrainZoo, HoldoutSize: t.Holdout, Runs: t.Runs, Quantum: t.Quantum,
		Workers: workers, Seed: topoZooSeed, Obs: l.rec,
	})
	if err != nil {
		return nil, err
	}
	l.topoSetupS = time.Since(start).Seconds()
	topoEvents := []march.Event{march.EvInstructions, march.EvL1DLoads} // TopoConfig's default
	start = time.Now()
	byVictim, err := tcamp.Collect(ctx, topoEvents, 0)
	if err != nil {
		return nil, err
	}
	l.topoCollectS = time.Since(start).Seconds()
	start = time.Now()
	tp, err := tcamp.Score(topoEvents, byVictim)
	if err != nil {
		return nil, err
	}
	l.topoScoreS = time.Since(start).Seconds()
	l.measured = int(l.rec.Get(obs.CProfilesCollected))
	return json.Marshal(zooResult{ArchID: arch, Topo: tp})
}

// firstInputs is the scenario's test inputs cut to max (0 keeps all), as
// the repro recovery stages cut them.
func firstInputs(s *repro.Scenario, max int) []*tensor.Tensor {
	in := s.Test.Inputs()
	if max > 0 && max < len(in) {
		in = in[:max]
	}
	return in
}
