package main

// The traced monitor campaign. Scenario.MonitorCtx keeps its co-tenant
// deployment and its sequential-test consumer unexported, so this file
// drives the same public pieces — defense.New and march.Ring for the
// co-tenant, pipeline.Stream for collection, stats.SeqWelch and
// stats.AlphaSpender for the looks — and times them. Its MonitorReport
// must hash to the digest of the untraced MonitorCtx call, which is what
// keeps it faithful.

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/defense"
	"repro/internal/instrument"
	"repro/internal/march"
	"repro/internal/march/mem"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/stats"
	"repro/internal/tensor"
)

// monitorQuantum is MonitorConfig's default tenant quantum, and
// monitorMinSamples its default per-side sample floor before a look.
const (
	monitorQuantum    = 5000
	monitorMinSamples = 8
)

func traceMonitor(ctx context.Context, e *env, l *layers) ([]byte, error) {
	s := e.s
	classes := repro.PaperClasses()
	ev, err := core.NewEvaluator(core.Config{Alpha: monitorAlpha, RunsPerClass: e.size.budget, Method: core.MethodWelch})
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
	name := campaignName(s) + "+cotenant"
	m := newSeqMonitor(ev.Config(), classes, e.size.budget, l)
	factory := l.timed(cotenantFactory(s))
	stopped, err := p.Stream(ctx, func(_ int, seed int64) (core.Target, error) { return factory(seed) }, pools, m.consume)
	if err != nil {
		return nil, err
	}
	l.measured = m.total
	rep := &repro.MonitorReport{Name: name, Stopped: stopped, Detection: m.detection, TracesSeen: m.total}
	if !stopped {
		d, err := m.distributions()
		if err != nil {
			return nil, err
		}
		tests, err := p.Test(ctx, d)
		if err != nil {
			return nil, err
		}
		rep.Report = ev.BuildReport(name, d, tests)
	}
	return json.Marshal(rep)
}

// tenant is the monitored victim sharing its core with a co-located
// classifier; the ring is drained after every inference.
type tenant struct {
	victim core.Target
	ring   *march.Ring
	coErr  error // written by the co-tenant while it holds the core token
}

func (t *tenant) Classify(img *tensor.Tensor) (int, error) {
	pred, err := t.victim.Classify(img)
	t.ring.Drain()
	if err == nil && t.coErr != nil {
		err = fmt.Errorf("co-tenant: %w", t.coErr)
	}
	return pred, err
}

func (t *tenant) Engine() *march.Engine { return t.victim.Engine() }

// cotenantFactory deploys the scenario's victim and co-locates a
// baseline classifier of the same network on its engine, its arena
// bumped past the victim's activation scratch.
func cotenantFactory(s *repro.Scenario) pipeline.TargetFactory {
	base := s.FactoryFor(s.Config.Defense)
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
		co, err := defense.New(s.Net, eng, defense.Config{
			Level:   defense.Baseline,
			Seed:    seed + 2,
			Runtime: instrument.DefaultRuntime(),
		})
		if err != nil {
			return nil, err
		}
		t := &tenant{victim: victim}
		t.ring = march.NewRing(eng, monitorQuantum, func() {
			if _, err := co.Classify(coInput); err != nil && t.coErr == nil {
				t.coErr = err
			}
		})
		return t, nil
	}
}

// welchPair is one monitored hypothesis: a sequential Welch test between
// classes a < b and its alpha-spending schedule.
type welchPair struct {
	a, b    int
	test    stats.SeqWelch
	spender stats.AlphaSpender
}

// seqMonitor consumes the window stream on the caller's goroutine: it
// keeps every sample for the exhaustion report and takes one timed look
// per hypothesis touched by each window.
type seqMonitor struct {
	events  []march.Event
	classes []int // sorted
	budget  int
	samples map[march.Event]map[int][]float64
	pairs   map[march.Event][]*welchPair
	l       *layers

	total     int
	detection *repro.Detection
}

func newSeqMonitor(cfg core.Config, classes []int, budget int, l *layers) *seqMonitor {
	sorted := append([]int(nil), classes...)
	sort.Ints(sorted)
	m := &seqMonitor{
		events:  cfg.Events,
		classes: sorted,
		budget:  budget,
		samples: map[march.Event]map[int][]float64{},
		pairs:   map[march.Event][]*welchPair{},
		l:       l,
	}
	boundary := stats.SpendingBoundary{Alpha: cfg.Alpha}
	for _, e := range cfg.Events {
		m.samples[e] = map[int][]float64{}
		for i, a := range sorted {
			for _, b := range sorted[i+1:] {
				m.pairs[e] = append(m.pairs[e], &welchPair{a: a, b: b, spender: stats.AlphaSpender{Boundary: boundary}})
			}
		}
	}
	return m
}

func (m *seqMonitor) consume(w core.Window) error {
	m.l.windows++
	cls := w.Class
	for _, p := range w.Profiles {
		m.total++
		for _, e := range m.events {
			v := p.Get(e)
			m.samples[e][cls] = append(m.samples[e][cls], v)
			for _, sp := range m.pairs[e] {
				switch cls {
				case sp.a:
					sp.test.AddA(v)
				case sp.b:
					sp.test.AddB(v)
				}
			}
		}
	}
	for _, e := range m.events {
		for _, sp := range m.pairs[e] {
			if sp.a != cls && sp.b != cls {
				continue
			}
			na, nb := sp.test.Na(), sp.test.Nb()
			if na < monitorMinSamples || nb < monitorMinSamples {
				continue
			}
			start := time.Now()
			r, err := sp.test.Test()
			crossed := err == nil && sp.spender.Cross(r.P, float64(na+nb)/float64(2*m.budget))
			m.l.lookS += time.Since(start).Seconds()
			m.l.looks++
			if err != nil {
				return err
			}
			if crossed {
				m.detection = &repro.Detection{
					Event: e, EventName: e.String(), ClassA: sp.a, ClassB: sp.b,
					P: r.P, Stat: r.T, PairTraces: na + nb, Traces: m.total,
				}
				return pipeline.ErrStop
			}
		}
	}
	return nil
}

// distributions assembles the exhausted budget for the batch report.
func (m *seqMonitor) distributions() (*core.Distributions, error) {
	d := &core.Distributions{
		Events:  append([]march.Event(nil), m.events...),
		Classes: append([]int(nil), m.classes...),
		Samples: map[march.Event]map[int][]float64{},
	}
	for _, e := range m.events {
		d.Samples[e] = map[int][]float64{}
		for _, cls := range m.classes {
			if n := len(m.samples[e][cls]); n != m.budget {
				return nil, fmt.Errorf("monitor exhausted with %d/%d traces for event %v class %d", n, m.budget, e, cls)
			}
			d.Samples[e][cls] = m.samples[e][cls]
		}
	}
	return d, nil
}
