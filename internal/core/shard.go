package core

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/hpc"
	"repro/internal/march"
	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/tensor"
)

// Shard is one self-contained unit of collection work: a contiguous run
// range of a single category, executed on a cold-reset simulated core.
// The pipeline executes shard units on per-worker engines, so the
// observation for run r of class c depends only on the shard plan — never
// on which worker (or how many workers) executed it.
type Shard struct {
	// Index is the shard's position in the deterministic plan order.
	Index int
	// Class is the category label whose runs this shard measures.
	Class int
	// Pool is the image pool of the class; run r uses Pool[r%len(Pool)].
	Pool []*tensor.Tensor
	// Start is the first measured run index within the class.
	Start int
	// Count is the number of measured runs.
	Count int
	// Seed is the per-shard RNG seed derived from the campaign root seed;
	// concurrent executors build a fresh engine/target from it so noise and
	// jitter streams are reproducible regardless of scheduling.
	Seed int64
}

// splitmix64 is the SplitMix64 finalizer, used to derive well-separated
// per-shard seeds from a root seed.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// DeriveSeed maps (root seed, class, start run) to a shard seed. The
// derivation is pure, so re-planning the same campaign always reseeds each
// shard identically.
func DeriveSeed(root int64, class, start int) int64 {
	h := splitmix64(uint64(root))
	h = splitmix64(h ^ uint64(int64(class)))
	h = splitmix64(h ^ uint64(int64(start)))
	return int64(h >> 1) // keep it non-negative for rand.NewSource conventions
}

// PlanShards splits a campaign over perClass into deterministic shard
// units in (class, start) order. maxRuns bounds the measured runs per
// shard; 0 puts each class in a single shard. The plan depends only on the
// evaluator configuration, the pools, rootSeed and maxRuns — never on
// worker count — which is what makes parallel runs bit-for-bit
// reproducible.
func (ev *Evaluator) PlanShards(perClass map[int][]*tensor.Tensor, rootSeed int64, maxRuns int) ([]Shard, error) {
	if len(perClass) < 2 {
		return nil, fmt.Errorf("core: need at least 2 categories, got %d", len(perClass))
	}
	classes := make([]int, 0, len(perClass))
	for cls, pool := range perClass {
		if len(pool) == 0 {
			return nil, fmt.Errorf("core: category %d has no images", cls)
		}
		classes = append(classes, cls)
	}
	sort.Ints(classes)
	if maxRuns <= 0 || maxRuns > ev.cfg.RunsPerClass {
		maxRuns = ev.cfg.RunsPerClass
	}
	var shards []Shard
	for _, cls := range classes {
		for start := 0; start < ev.cfg.RunsPerClass; start += maxRuns {
			count := maxRuns
			if start+count > ev.cfg.RunsPerClass {
				count = ev.cfg.RunsPerClass - start
			}
			shards = append(shards, Shard{
				Index: len(shards),
				Class: cls,
				Pool:  perClass[cls],
				Start: start,
				Count: count,
				Seed:  DeriveSeed(rootSeed, cls, start),
			})
		}
	}
	return shards, nil
}

// prepareShard validates the shard, attaches and programs a PMU, and runs
// the cold-reset + warm-up discipline shared by both collection forms.
func (ev *Evaluator) prepareShard(ctx context.Context, target Target, sh Shard) (*hpc.PMU, error) {
	if target == nil {
		return nil, fmt.Errorf("core: nil target")
	}
	if len(sh.Pool) == 0 {
		return nil, fmt.Errorf("core: shard %d (category %d) has no images", sh.Index, sh.Class)
	}
	pmu, err := hpc.NewPMU(target.Engine(), ev.cfg.Registers)
	if err != nil {
		return nil, err
	}
	if err := pmu.Program(ev.cfg.Events...); err != nil {
		return nil, err
	}

	// Fresh micro-architectural state per shard, then the standard
	// measure-after-warm-up discipline on this shard's own class.
	target.Engine().ColdReset()
	for i := 0; i < ev.cfg.WarmupRuns; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if _, err := target.Classify(sh.Pool[i%len(sh.Pool)]); err != nil {
			return nil, fmt.Errorf("core: warm-up classification: %w", err)
		}
	}
	return pmu, nil
}

// shardRun is the per-shard measurement scaffolding of
// CollectShardProfiles: the image of the run being measured plus the
// classify trampoline handed to hpc.MeasureOnceInto.
type shardRun struct {
	target Target
	img    *tensor.Tensor
	err    error
}

// classify classifies the current run's image, retaining the failure.
func (r *shardRun) classify() {
	_, r.err = r.target.Classify(r.img)
}

// CollectShardProfiles executes one shard on target and returns the raw
// per-run HPC profiles in run order — a shard's one measurement product,
// which the attack stages score directly, the hypothesis-test stage
// transposes through Distributions and a stream cuts into windows. It
// cold-resets the simulated core (so cache/predictor state from other
// shards cannot bleed in), runs the configured warm-up on the shard's own
// pool, then measures Count classifications starting at run index Start.
// Run index r always maps to Pool[r%len(Pool)], so the image sequence is
// independent of the sharding granularity. Every run is measured in its
// own counter interval, directly into its own profile. The context is
// checked between runs.
func (ev *Evaluator) CollectShardProfiles(ctx context.Context, target Target, sh Shard) ([]hpc.Profile, error) {
	pmu, err := ev.prepareShard(ctx, target, sh)
	if err != nil {
		return nil, err
	}
	if rec := ev.cfg.Obs; rec != nil {
		// Per-shard engine tally, flushed into the recorder when the
		// shard finishes. Attached after warm-up so only measured
		// operations count; detached before return so a pooled engine
		// never tallies into a stale shard.
		hot := &obs.HotCounters{}
		eng := target.Engine()
		eng.SetHotCounters(hot)
		defer func() {
			eng.SetHotCounters(nil)
			rec.FlushHot(hot)
		}()
	}
	profs := make([]hpc.Profile, sh.Count)
	for i := range profs {
		profs[i] = make(hpc.Profile, len(ev.cfg.Events))
	}
	if err := ev.measureRuns(ctx, pmu, &shardRun{target: target}, sh, profs); err != nil {
		return nil, err
	}
	return profs, nil
}

// measureRuns is the measured loop of CollectShardProfiles: run
// sh.Start+i is measured in its own counter interval into profs[i]. It
// runs once per measured classification for the whole campaign, into
// profiles allocated before it starts, so nothing on it may allocate
// (the core allocgate pins it).
//
//detlint:allocpath
func (ev *Evaluator) measureRuns(ctx context.Context, pmu *hpc.PMU, r *shardRun, sh Shard, profs []hpc.Profile) error {
	for i, prof := range profs {
		if err := ctx.Err(); err != nil {
			return err
		}
		r.img = sh.Pool[(sh.Start+i)%len(sh.Pool)]
		if err := pmu.MeasureOnceInto(prof, r.classify); err != nil {
			return err
		}
		if r.err != nil {
			return fmt.Errorf("core: classification failed: %w", r.err)
		}
		// Nil-safe telemetry tally: an atomic add, no allocation, no
		// effect on the observations.
		ev.cfg.Obs.Add(obs.CProfilesCollected, 1)
	}
	return nil
}

// Distributions transposes labelled per-run profiles, byClass[class][run],
// into the per-event distributions the hypothesis-test stage consumes:
// d.Samples[e][class][run] = byClass[class][run][e]. It is the one place
// observations become distributions — in-process, fabric and streamed
// campaigns all collect profiles and score them through it. Every class
// must carry exactly RunsPerClass profiles, and every profile must hold
// every configured event: a missing counter is an error, never a zero.
func (ev *Evaluator) Distributions(byClass map[int][]hpc.Profile) (*Distributions, error) {
	classes := make([]int, 0, len(byClass))
	for cls := range byClass {
		classes = append(classes, cls)
	}
	sort.Ints(classes)
	d := &Distributions{
		Events:  append([]march.Event(nil), ev.cfg.Events...),
		Classes: classes,
		Samples: map[march.Event]map[int][]float64{},
	}
	for _, e := range ev.cfg.Events {
		d.Samples[e] = map[int][]float64{}
		for _, cls := range classes {
			d.Samples[e][cls] = make([]float64, ev.cfg.RunsPerClass)
		}
	}
	for _, cls := range classes {
		profs := byClass[cls]
		if len(profs) != ev.cfg.RunsPerClass {
			return nil, fmt.Errorf("core: class %d has %d profiles, want %d", cls, len(profs), ev.cfg.RunsPerClass)
		}
		for r, prof := range profs {
			if prof == nil {
				return nil, fmt.Errorf("core: class %d run %d missing", cls, r)
			}
			for _, e := range ev.cfg.Events {
				v, ok := prof[e]
				if !ok {
					return nil, fmt.Errorf("core: class %d run %d has no %s observation", cls, r, e)
				}
				d.Samples[e][cls][r] = v
			}
		}
	}
	return d, nil
}

// TestJob identifies one pairwise hypothesis test of a campaign.
type TestJob struct {
	// Index is the job's position in the deterministic TestJobs order.
	Index int
	Event march.Event
	// ClassA < ClassB in Distributions.Classes order.
	ClassA, ClassB int
}

// TestJobs enumerates the pairwise tests of collected distributions in
// deterministic (event, classA, classB) order — the exact order the
// sequential Test path evaluates and Reports list them in.
func TestJobs(d *Distributions) ([]TestJob, error) {
	if d == nil || len(d.Classes) < 2 {
		return nil, fmt.Errorf("core: need distributions over at least 2 categories")
	}
	var jobs []TestJob
	for _, e := range d.Events {
		for i := 0; i < len(d.Classes); i++ {
			for j := i + 1; j < len(d.Classes); j++ {
				jobs = append(jobs, TestJob{
					Index:  len(jobs),
					Event:  e,
					ClassA: d.Classes[i],
					ClassB: d.Classes[j],
				})
			}
		}
	}
	return jobs, nil
}

// RunTestJob executes one pairwise test against collected distributions.
func (ev *Evaluator) RunTestJob(d *Distributions, j TestJob) (PairTest, error) {
	a, b := d.Get(j.Event, j.ClassA), d.Get(j.Event, j.ClassB)
	res, err := ev.runTest(a, b)
	if err != nil {
		return PairTest{}, fmt.Errorf("core: %s test %s t%d,%d: %w", ev.cfg.Method, j.Event, j.ClassA, j.ClassB, err)
	}
	return PairTest{
		Event:      j.Event,
		ClassA:     j.ClassA,
		ClassB:     j.ClassB,
		Result:     res,
		EffectSize: stats.CohensD(a, b),
	}, nil
}

// FinalizeTests applies the per-event Holm correction (when configured) to
// tests already in TestJobs order and returns the same slice.
func (ev *Evaluator) FinalizeTests(tests []PairTest) []PairTest {
	if !ev.cfg.HolmCorrection {
		return tests
	}
	for lo := 0; lo < len(tests); {
		hi := lo
		for hi < len(tests) && tests[hi].Event == tests[lo].Event {
			hi++
		}
		ps := make([]float64, hi-lo)
		for i := lo; i < hi; i++ {
			ps[i-lo] = tests[i].Result.P
		}
		rej := stats.HolmBonferroni(ps, ev.cfg.Alpha)
		for i := lo; i < hi; i++ {
			tests[i].HolmReject = rej[i-lo]
		}
		lo = hi
	}
	return tests
}

// BuildReport assembles the campaign report, deriving alarms from the
// finalized tests in order — the last step of every campaign.
func (ev *Evaluator) BuildReport(name string, d *Distributions, tests []PairTest) *Report {
	r := &Report{Name: name, Config: ev.cfg, Dists: d, Tests: tests}
	for _, t := range tests {
		if t.Distinguishable(ev.cfg.Alpha) {
			r.Alarms = append(r.Alarms, Alarm{
				Event: t.Event, ClassA: t.ClassA, ClassB: t.ClassB,
				T: t.Result.T, P: t.Result.P,
			})
		}
	}
	return r
}

// Config returns the evaluator's (defaults-applied) configuration.
func (ev *Evaluator) Config() Config { return ev.cfg }

// SetObs attaches (or detaches, with nil) a telemetry recorder after
// construction. Fabric workers use this: the recorder is only created
// once the init frame arrives, after the runner's evaluator is built.
func (ev *Evaluator) SetObs(r *obs.Recorder) { ev.cfg.Obs = r }
