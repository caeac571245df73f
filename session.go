package repro

// One collection-session path for every campaign stage. A stage
// describes its campaign once, as a WorkerSpec; newCollector turns that
// spec into the stage's campaign-constant state (class pools and victim
// factory, or the archid/topo recovery campaign), session builds one
// register-group session — pipeline, pools, target factory — from a
// per-group spec, and eachSession is the one loop that splits an event
// set into register groups. The coordinator and a shardworker process
// (NewWorkerRunner) build sessions through the same two functions, so
// the two sides of the fabric cannot drift apart — which is what keeps
// fabric campaigns byte-identical to in-process ones.

import (
	"context"
	"encoding/json"
	"fmt"
	"slices"

	"repro/internal/archid"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/hpc"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/tensor"
	"repro/internal/topo"
)

// runOpts are a campaign's coordinator-side knobs. They change how its
// sessions execute, score or are observed — never what a shard measures
// — so they stay out of the WorkerSpec and its digest.
type runOpts struct {
	workers, procs int
	fabric         FabricConfig
	obs            *obs.Recorder
	alpha          float64
	method         core.Method
	k              int
}

// recoveryCampaign is the session source of the model-recovery stages
// (*archid.Campaign, *topo.Campaign): sessions share the campaign's
// victims and differ only in events and observation seeds.
type recoveryCampaign interface {
	Session(events []Event, session int) (*pipeline.Pipeline, pipeline.ClassTargetFactory, error)
	Pools() map[int][]*tensor.Tensor
}

// collector is one campaign's session builder. spec.Events lists the
// campaign's full event set; each session's spec narrows it to one
// register group.
type collector struct {
	spec WorkerSpec
	x    runOpts
	// Scenario stages (report, attack, monitor): the class pools and the
	// class-agnostic victim every shard deploys.
	pools  map[int][]*tensor.Tensor
	target pipeline.TargetFactory
	// Recovery stages (archid, topo).
	camp recoveryCampaign
}

// workerSpec starts a stage's campaign description; the stage fills in
// its own budgets and seeds.
func (s *Scenario) workerSpec(stage string, level DefenseLevel, events []Event) WorkerSpec {
	return WorkerSpec{
		Proto:    specProto,
		Stage:    stage,
		Scenario: s.spec(),
		Level:    level.String(),
		Events:   eventNames(events),
	}
}

// newCollector builds the campaign-constant state a spec describes. The
// archid/topo campaigns (zoo weights, envelopes, fitted topology models)
// are built here once and shared by every session of the campaign.
func (s *Scenario) newCollector(spec WorkerSpec, x runOpts) (*collector, error) {
	level, err := ParseDefense(spec.Level)
	if err != nil {
		return nil, err
	}
	// One check on both sides of the fabric: a repeated event would
	// count twice across register groups and overwrite its own samples.
	for i, name := range spec.Events {
		if slices.Contains(spec.Events[:i], name) {
			return nil, fmt.Errorf("repro: event %s listed twice", name)
		}
	}
	c := &collector{spec: spec, x: x}
	inputs := s.Test.Inputs()
	if spec.MaxInputs > 0 && spec.MaxInputs < len(inputs) {
		inputs = inputs[:spec.MaxInputs]
	}
	name := fmt.Sprintf("%s-%s/%s", s.Config.Dataset, spec.Stage, level)
	switch spec.Stage {
	case StageReport, StageAttack, StageMonitor:
		if c.pools, err = s.ClassPools(spec.Classes...); err != nil {
			return nil, err
		}
		c.target = s.monitorFactory(level, spec.Tenants, spec.Quantum)
	case StageArchID:
		zoo, err := s.ArchZoo()
		if err != nil {
			return nil, err
		}
		if c.camp, err = archid.NewCampaign(archid.Config{
			Name:           name,
			Zoo:            zoo,
			Inputs:         inputs,
			Level:          level,
			ProfileRuns:    spec.ProfileRuns,
			AttackRuns:     spec.AttackRuns,
			K:              x.k,
			Workers:        x.workers,
			Seed:           spec.Seed,
			DisableRuntime: s.Config.DisableRuntime,
			DisableNoise:   s.Config.DisableNoise,
			NoPad:          spec.NoPad,
			Obs:            x.obs,
		}); err != nil {
			return nil, err
		}
	case StageTopo:
		if c.camp, err = topo.NewCampaign(topo.Config{
			Name:           name,
			InH:            s.Arch.InH,
			InW:            s.Arch.InW,
			InC:            s.Arch.InC,
			Classes:        s.Arch.Classes,
			Inputs:         inputs,
			Level:          level,
			TrainSize:      spec.TrainZoo,
			HoldoutSize:    spec.Holdout,
			Runs:           spec.Runs,
			Quantum:        spec.Quantum,
			Workers:        x.workers,
			Seed:           spec.Seed,
			DisableRuntime: s.Config.DisableRuntime,
			DisableNoise:   s.Config.DisableNoise,
			Obs:            x.obs,
		}); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("repro: unknown fabric stage %q", spec.Stage)
	}
	return c, nil
}

// session is one register-group collection session.
type session struct {
	c    *collector
	spec WorkerSpec
	// ev is the session's evaluator (scenario stages only).
	ev      *core.Evaluator
	p       *pipeline.Pipeline
	pools   map[int][]*tensor.Tensor
	factory pipeline.ClassTargetFactory
}

// session builds the session a per-group spec describes.
func (c *collector) session(spec WorkerSpec) (*session, error) {
	events, err := parseEventNames(spec.Events)
	if err != nil {
		return nil, err
	}
	ss := &session{c: c, spec: spec}
	if c.camp != nil {
		ss.p, ss.factory, err = c.camp.Session(events, spec.Session)
		ss.pools = c.camp.Pools()
		return ss, err
	}
	ss.ev, err = core.NewEvaluator(core.Config{
		Events:       events,
		Method:       c.x.method,
		Alpha:        c.x.alpha,
		RunsPerClass: spec.RunsPerClass,
		Batch:        spec.Batch,
		Obs:          c.x.obs,
	})
	if err != nil {
		return nil, err
	}
	ss.p, err = pipeline.New(ss.ev, pipeline.Config{
		Workers:  c.x.workers,
		RootSeed: spec.RootSeed,
		Obs:      c.x.obs,
	})
	ss.pools = c.pools
	ss.factory = func(_ int, seed int64) (core.Target, error) { return c.target(seed) }
	return ss, err
}

// eachSession runs one collection session per register-sized group of
// the campaign's events — a PMU counts at most hpc.DefaultCounters
// events at once, so wider sets take several sessions, exactly as a real
// perf user must. seed gives a scenario stage's per-group pipeline root
// seed; recovery stages (nil seed) derive session seeds themselves.
func (c *collector) eachSession(seed func(g int) int64, run func(*session) error) error {
	names := c.spec.Events
	for g := 0; g*hpc.DefaultCounters < len(names); g++ {
		spec := c.spec
		spec.Events = names[g*hpc.DefaultCounters : min((g+1)*hpc.DefaultCounters, len(names))]
		spec.Session = g
		if seed != nil {
			spec.RootSeed = seed(g)
		}
		ss, err := c.session(spec)
		if err != nil {
			return err
		}
		if err := run(ss); err != nil {
			return err
		}
	}
	return nil
}

// profiles collects every session of the campaign and joins the
// profiles of the same (class, run) across sessions into one feature
// vector.
func (c *collector) profiles(ctx context.Context, seed func(g int) int64) (map[int][]hpc.Profile, error) {
	byClass := map[int][]hpc.Profile{}
	err := c.eachSession(seed, func(ss *session) error {
		part, err := ss.profiles(ctx)
		if err != nil {
			return err
		}
		joinProfiles(byClass, part)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return byClass, nil
}

// joinProfiles merges one session's labelled profiles into the
// accumulated per-(class, run) feature vectors. Sessions of one campaign
// always produce the same classes and run counts (same pools, same run
// budget), so the positional merge is total.
func joinProfiles(dst, part map[int][]hpc.Profile) {
	for cls, profs := range part {
		if dst[cls] == nil {
			dst[cls] = profs
			continue
		}
		for r, prof := range profs {
			for e, v := range prof {
				dst[cls][r][e] = v
			}
		}
	}
}

// profiles runs the session's shard plan in-process or on worker
// processes and returns the labelled per-run profiles. The fabric merge
// is keyed by each plan's (class, start) placement, so the result is
// independent of process count, scheduling and arrival order.
func (ss *session) profiles(ctx context.Context) (map[int][]hpc.Profile, error) {
	x := ss.c.x
	if x.procs == 0 {
		return ss.p.CollectProfilesByClass(ctx, ss.factory, ss.pools)
	}
	plans, err := ss.p.WirePlans(ss.pools)
	if err != nil {
		return nil, err
	}
	x.obs.Add(obs.CShardsPlanned, int64(len(plans)))
	x.obs.SetPhase("collect")
	defer x.obs.Span("fabric", "collect").End()
	coord, stop, err := ss.startFabric(ctx)
	if err != nil {
		return nil, err
	}
	defer stop()
	payloads, err := coord.Run(ctx, plans)
	if err != nil {
		return nil, err
	}
	return ss.p.MergeEncoded(plans, payloads)
}

// stream runs the session's shard plan as a window stream into consume
// and reports whether consume stopped it early. Over the fabric, workers
// execute whole shards (reusing the collection journal, so an
// interrupted campaign resumes) and pipeline.StreamFrom cuts each
// delivered payload into windows exactly as in-process streaming cuts a
// shard, so the consumer sees the same window sequence either way.
func (ss *session) stream(ctx context.Context, consume func(core.Window) error) (bool, error) {
	x := ss.c.x
	if x.procs == 0 {
		return ss.p.Stream(ctx, ss.factory, ss.pools, consume)
	}
	x.obs.SetPhase("stream")
	defer x.obs.Span("fabric", "stream").End()
	coord, stop, err := ss.startFabric(ctx)
	if err != nil {
		return false, err
	}
	defer stop()
	return ss.p.StreamFrom(ctx, ss.pools, coord.RunStream, consume)
}

// startFabric is the fabric prologue every session shares: it encodes
// the session's spec (whose digest binds its journal), opens the journal
// and starts the worker pool. The caller runs its plans on the returned
// coordinator and then calls stop.
func (ss *session) startFabric(ctx context.Context) (coord *fabric.Coordinator, stop func(), err error) {
	x := ss.c.x
	bin, err := x.fabric.workerBin()
	if err != nil {
		return nil, nil, err
	}
	spec, err := json.Marshal(ss.spec)
	if err != nil {
		return nil, nil, err
	}
	var journal *fabric.Journal
	closeJournal := func() {
		if journal != nil {
			journal.Close()
		}
	}
	if x.fabric.Journal != "" {
		digest := fabric.CampaignDigest(spec)
		if journal, err = fabric.OpenJournal(x.fabric.journalPath(ss.spec, digest), digest); err != nil {
			return nil, nil, err
		}
	}
	pool, err := fabric.StartPool(ctx, fabric.PoolConfig{
		Bin:   bin,
		Env:   x.fabric.Env,
		Spec:  spec,
		Procs: x.procs,
		TCP:   x.fabric.TCP,
		Obs:   x.obs,
	})
	if err != nil {
		closeJournal()
		return nil, nil, err
	}
	stop = func() {
		pool.Close()
		closeJournal()
	}
	return &fabric.Coordinator{Dispatcher: pool, Journal: journal, Obs: x.obs}, stop, nil
}
