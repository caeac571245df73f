package repro

// The streaming leakage monitor: instead of collecting a campaign's full
// trace budget and scoring it afterwards (Evaluate), the monitor consumes
// profile windows as the pipeline delivers them, maintains sequential
// hypothesis tests per (event, class-pair), and stops the campaign the
// moment a test crosses its alpha-spending boundary — reporting how many
// monitored classifications the detection cost. A campaign that runs to
// exhaustion ends in the ordinary batch report, byte-identical to
// Evaluate on the same configuration.

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/defense"
	"repro/internal/hpc"
	"repro/internal/instrument"
	"repro/internal/march"
	"repro/internal/march/mem"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/stats"
	"repro/internal/tensor"
)

// MonitorConfig controls a streaming monitor campaign. The zero value
// monitors the paper's four categories with the default counters at
// α = 0.05 under a 300-trace-per-class budget on GOMAXPROCS workers.
type MonitorConfig struct {
	Classes []int
	Events  []Event
	// Budget is the per-class trace budget: the campaign never consumes
	// more than this many monitored classifications per category, and a
	// run to exhaustion equals a batch Evaluate with RunsPerClass=Budget.
	Budget int
	// Alpha is the overall significance level. The sequential boundary
	// spends it across looks so the per-hypothesis false-positive rate of
	// early stopping stays below it; on exhaustion the batch report
	// applies it in full.
	Alpha float64
	// Workers fans shard collection out; 0 → runtime.GOMAXPROCS(0) (1 =
	// the sequential reference; the consumed window stream is identical
	// at any worker count).
	Workers int
	// Seed is the pipeline root seed; 0 uses the scenario seed.
	Seed int64
	// Batch is the window size (core.Config.Batch): the stream cuts each
	// delivered shard into windows of Batch measured runs, and the
	// monitor looks at this cadence. Observations are identical at any value; only when the
	// monitor looks changes. Default 1.
	Batch int
	// MannWhitney monitors with the sequential rank-sum test (and scores
	// the exhaustion report with the batch Mann-Whitney) instead of
	// Welch's t-test.
	MannWhitney bool
	// MinSamples is the per-side sample floor before a hypothesis takes
	// its first look (default 8).
	MinSamples int
	// NoStop disables early stopping: the campaign always runs to
	// exhaustion and only the batch report decides.
	NoStop bool
	// Tenants ≥ 2 monitors the co-residency scenario: every shard engine
	// hosts a second, co-located classifier of the same network that the
	// core interleaves with the victim quantum by quantum, so the
	// victim's measured counters include the co-tenant's contention.
	Tenants int
	// Quantum is the instruction quantum of the tenant interleaving
	// (default 5000). Ignored when Tenants < 2.
	Quantum uint64
	// Processes streams shard completions from that many shardworker OS
	// processes through the audit fabric instead of collecting
	// in-process; the window cadence and therefore every monitor
	// decision is identical either way.
	Processes int
	// Fabric configures the fabric when Processes ≥ 1.
	Fabric FabricConfig
	// Obs, when non-nil, records campaign telemetry (windows emitted,
	// shard spans, fabric traffic). Observational output only — the
	// window stream and every monitor decision are identical with or
	// without it.
	Obs *obs.Recorder
}

func (c MonitorConfig) withDefaults() MonitorConfig {
	if len(c.Classes) == 0 {
		c.Classes = PaperClasses()
	}
	if c.Budget <= 0 {
		c.Budget = 300
	}
	if c.MinSamples <= 0 {
		c.MinSamples = 8
	}
	if c.Quantum == 0 {
		c.Quantum = 5000
	}
	return c
}

// Detection records the first sequential boundary crossing of a
// campaign.
type Detection struct {
	// Event and EventName identify the leaking counter.
	Event     Event  `json:"event"`
	EventName string `json:"event_name"`
	// ClassA and ClassB are the distinguished categories.
	ClassA int `json:"class_a"`
	ClassB int `json:"class_b"`
	// P is the p-value at the crossing look and Stat the test statistic
	// (Welch t, or the rank-sum z under MannWhitney).
	P    float64 `json:"p"`
	Stat float64 `json:"stat"`
	// PairTraces is the crossing hypothesis's sample count (both sides);
	// Traces is the campaign's total consumption at the crossing — the
	// paper-facing "how many monitored inferences until the defense is
	// known to leak".
	PairTraces int `json:"pair_traces"`
	Traces     int `json:"traces"`
}

// MonitorReport is the outcome of a streaming monitor campaign.
type MonitorReport struct {
	Name string `json:"name"`
	// Stopped reports early termination; Detection is non-nil iff set.
	Stopped   bool       `json:"stopped"`
	Detection *Detection `json:"detection,omitempty"`
	// TracesSeen is the total number of monitored classifications
	// consumed (= Budget × classes on exhaustion).
	TracesSeen int `json:"traces_seen"`
	// Report is the batch evaluation of the full budget, present only
	// when the campaign ran to exhaustion; it is byte-identical to
	// Evaluate with RunsPerClass=Budget on the same scenario and seed.
	Report *Report `json:"report,omitempty"`
}

// seqPair is one monitored hypothesis: a sequential two-sample test plus
// its alpha-spending schedule.
type seqPair struct {
	classA, classB int
	mw             *stats.SeqMannWhitney
	welch          *stats.SeqWelch
	spender        stats.AlphaSpender
}

func (sp *seqPair) add(class int, v float64) {
	switch {
	case sp.mw != nil && class == sp.classA:
		sp.mw.AddA(v)
	case sp.mw != nil:
		sp.mw.AddB(v)
	case class == sp.classA:
		sp.welch.AddA(v)
	default:
		sp.welch.AddB(v)
	}
}

func (sp *seqPair) counts() (na, nb int) {
	if sp.mw != nil {
		return sp.mw.Na(), sp.mw.Nb()
	}
	return sp.welch.Na(), sp.welch.Nb()
}

// test runs the current look and returns (statistic, p).
func (sp *seqPair) test() (float64, float64, error) {
	if sp.mw != nil {
		r, err := sp.mw.Test()
		return r.Z, r.P, err
	}
	r, err := sp.welch.Test()
	return r.T, r.P, err
}

// monitorRun is the stream consumer: it keeps every consumed profile
// at its (class, run) offset (for the exhaustion report) and
// drives one seqPair per (event, class-pair).
// Consumption happens on one goroutine in the pipeline's deterministic
// stream order, so every decision — including the detection trace count —
// is a pure function of the campaign configuration.
type monitorRun struct {
	events     []Event
	budget     int
	minSamples int
	noStop     bool

	// profiles[class][run] holds the consumed observations — the
	// labelled profiles a batch collection of the same budget produces.
	profiles map[int][]hpc.Profile
	// pairs[event] lists hypotheses in deterministic (A, B) order.
	pairs map[Event][]*seqPair

	total     int
	detection *Detection
}

func newMonitorRun(events []Event, classes []int, cfg MonitorConfig, alpha float64) *monitorRun {
	sorted := append([]int(nil), classes...)
	sort.Ints(sorted)
	m := &monitorRun{
		events:     events,
		budget:     cfg.Budget,
		minSamples: cfg.MinSamples,
		noStop:     cfg.NoStop,
		profiles:   map[int][]hpc.Profile{},
		pairs:      map[Event][]*seqPair{},
	}
	for _, cls := range sorted {
		m.profiles[cls] = make([]hpc.Profile, cfg.Budget)
	}
	boundary := stats.SpendingBoundary{Alpha: alpha}
	for _, e := range events {
		for i := 0; i < len(sorted); i++ {
			for j := i + 1; j < len(sorted); j++ {
				sp := &seqPair{classA: sorted[i], classB: sorted[j], spender: stats.AlphaSpender{Boundary: boundary}}
				if cfg.MannWhitney {
					sp.mw = &stats.SeqMannWhitney{}
				} else {
					sp.welch = &stats.SeqWelch{}
				}
				m.pairs[e] = append(m.pairs[e], sp)
			}
		}
	}
	return m
}

// consume folds one profile window into the monitor state and takes the
// scheduled looks. It returns pipeline.ErrStop on the first boundary
// crossing (unless NoStop).
func (m *monitorRun) consume(w core.Window) error {
	cls := w.Class
	for i, p := range w.Profiles {
		m.total++
		m.profiles[cls][w.Start+i] = p
		for _, e := range m.events {
			v := p.Get(e)
			for _, sp := range m.pairs[e] {
				if sp.classA == cls || sp.classB == cls {
					sp.add(cls, v)
				}
			}
		}
	}
	if m.noStop {
		return nil
	}
	for _, e := range m.events {
		for _, sp := range m.pairs[e] {
			if sp.classA != cls && sp.classB != cls {
				continue
			}
			na, nb := sp.counts()
			if na < m.minSamples || nb < m.minSamples {
				continue
			}
			stat, p, err := sp.test()
			if err != nil {
				return err
			}
			t := float64(na+nb) / float64(2*m.budget)
			if sp.spender.Cross(p, t) {
				m.detection = &Detection{
					Event:      e,
					EventName:  e.String(),
					ClassA:     sp.classA,
					ClassB:     sp.classB,
					P:          p,
					Stat:       stat,
					PairTraces: na + nb,
					Traces:     m.total,
				}
				return pipeline.ErrStop
			}
		}
	}
	return nil
}

// MonitorCtx runs a streaming leakage-monitor campaign against the
// scenario, with cancellation. Collection streams through the sharded
// pipeline (cfg.Workers in-process workers, or cfg.Processes shardworker
// OS processes via the audit fabric); the consumed window stream — and
// with it every look, detection and trace count — is identical across
// worker and process counts. A cancelled campaign surfaces a
// *pipeline.Cancelled wrapping the context error, distinguishable from
// an empty-budget misconfiguration at the CLI layer.
func (s *Scenario) MonitorCtx(ctx context.Context, cfg MonitorConfig) (*MonitorReport, error) {
	cfg = cfg.withDefaults()
	method := core.MethodWelch
	if cfg.MannWhitney {
		method = core.MethodMannWhitney
	}
	events := cfg.Events
	if len(events) == 0 {
		events = []Event{EvCacheMisses, EvBranches}
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = s.Config.Seed
	}
	spec := s.workerSpec(StageMonitor, s.Config.Defense, events)
	spec.Classes, spec.RunsPerClass, spec.RootSeed, spec.Batch, spec.Tenants, spec.Quantum =
		cfg.Classes, cfg.Budget, seed, cfg.Batch, cfg.Tenants, cfg.Quantum
	c, err := s.newCollector(spec, runOpts{
		workers: cfg.Workers, procs: cfg.Processes, fabric: cfg.Fabric, obs: cfg.Obs, alpha: cfg.Alpha, method: method,
	})
	if err != nil {
		return nil, err
	}
	// The monitor streams one session: its sequential looks need every
	// event of a window at once, so the set must fit the register file.
	ss, err := c.session(spec)
	if err != nil {
		return nil, err
	}
	name := fmt.Sprintf("%s/%s", s.Config.Dataset, s.Config.Defense)
	if cfg.Tenants >= 2 {
		name += "+cotenant"
	}
	evCfg := ss.ev.Config()
	run := newMonitorRun(evCfg.Events, cfg.Classes, cfg, evCfg.Alpha)
	stopped, err := ss.stream(ctx, run.consume)
	if err != nil {
		return nil, err
	}
	rep := &MonitorReport{Name: name, Stopped: stopped, Detection: run.detection, TracesSeen: run.total}
	if !stopped {
		if rep.Report, err = ss.p.ReportFromProfiles(ctx, name, run.profiles); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// tenantTarget is the multi-tenant victim: classifications run on a
// shared simulated core whose quantum scheduler interleaves a co-located
// classifier, and the ring is drained after every inference so each
// monitored interval covers a deterministic co-tenant slice.
type tenantTarget struct {
	victim core.Target
	ring   *march.Ring
	// coErr is written by the co-tenant while it holds the core token and
	// read after Drain; the token handoff orders the accesses.
	coErr error
}

// Classify drains the ring after the victim's inference, so every
// measured interval covers the co-tenant's slice of that run.
func (t *tenantTarget) Classify(img *tensor.Tensor) (int, error) {
	pred, err := t.victim.Classify(img)
	t.ring.Drain()
	if err == nil && t.coErr != nil {
		err = fmt.Errorf("repro: co-tenant: %w", t.coErr)
	}
	return pred, err
}

// Engine exposes the shared core (core.Target).
func (t *tenantTarget) Engine() *march.Engine { return t.victim.Engine() }

// monitorFactory returns the scenario stages' target factory:
// FactoryFor's deployment, co-located with a second classifier of the
// same network when tenants ≥ 2 (the monitor's co-residency scenario). The co-tenant's allocations are bumped past the
// victim's activation scratch (which is not arena-registered — see
// instrument.Classifier.ScratchTop) so the two footprints contend in the
// cache hierarchy without silently aliasing.
func (s *Scenario) monitorFactory(level DefenseLevel, tenants int, quantum uint64) pipeline.TargetFactory {
	base := s.FactoryFor(level)
	if tenants < 2 {
		return base
	}
	cfg := s.Config
	net := s.Net
	coInput := s.Test.Samples[0].Image
	return func(seed int64) (core.Target, error) {
		victim, err := base(seed)
		if err != nil {
			return nil, err
		}
		eng := victim.Engine()
		if st, ok := victim.(interface{ ScratchTop() mem.Addr }); ok {
			if top := st.ScratchTop(); top > eng.Arena().Mark().Base {
				if _, err := eng.Arena().Alloc("tenant.gap", uint64(top-eng.Arena().Mark().Base)); err != nil {
					return nil, err
				}
			}
		}
		rt := instrument.DefaultRuntime()
		if cfg.DisableRuntime {
			rt = instrument.NoRuntime()
		}
		co, err := defense.New(net, eng, defense.Config{
			Level:   DefenseBaseline,
			Seed:    seed + 2,
			Runtime: rt,
		})
		if err != nil {
			return nil, err
		}
		tt := &tenantTarget{victim: victim}
		tt.ring = march.NewRing(eng, quantum, func() {
			if _, err := co.Classify(coInput); err != nil && tt.coErr == nil {
				tt.coErr = err
			}
		})
		return tt, nil
	}
}
