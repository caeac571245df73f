package repro

// Sweep evaluates a grid of leakage-assessment campaigns — trace budgets ×
// event sets × defenses (× datasets) — the workload practical assessment
// needs: how many traces does the Evaluator need before an alarm fires,
// which events leak, and which hardening level silences them. One scenario
// is trained per dataset and shared across the grid; each cell runs on the
// concurrent sharded pipeline with seeds derived from (root seed, cell
// index), so the grid is reproducible cell-for-cell regardless of how many
// cells or workers run in parallel.

import (
	"context"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/hpc"
	"repro/internal/march"
	"repro/internal/obs"
)

// SweepConfig describes the grid. Zero-value fields default to the paper's
// headline campaign (MNIST, all defenses, base events, 100/200/300 traces).
type SweepConfig struct {
	Datasets     []Dataset
	Defenses     []DefenseLevel
	TraceBudgets []int
	// EventSets are hpc.ParseEventSpec inputs (named sets or comma lists).
	// Sets larger than the HPC register count are split into
	// register-sized campaign groups, exactly as a real perf user must.
	EventSets []string
	Classes   []int
	Alpha     float64
	// Workers is the per-cell pipeline worker count; 0 → GOMAXPROCS.
	Workers int
	// Processes distributes each cell's shard execution over that many
	// shardworker OS processes through the distributed audit fabric;
	// 0 keeps execution in-process. Cell results are byte-identical
	// either way.
	Processes int
	// Fabric configures the fabric when Processes ≥ 1.
	Fabric FabricConfig
	// CellParallel bounds how many grid cells evaluate concurrently;
	// 0 → 2. Cell results are independent of this.
	CellParallel int
	// Seed is the sweep root seed; every cell derives its own root from
	// (Seed, cell index). 0 → 1.
	Seed int64
	// Attack additionally runs the end-to-end attack stage per cell: the
	// attackers profile with the cell's trace budget, are scored on
	// AttackRuns held-out observations, and the cell reports
	// template/kNN recovery accuracy next to the leakage verdict.
	Attack bool
	// AttackRuns is the held-out attack observations per class when Attack
	// is set; 0 derives half the cell's trace budget (minimum 10).
	AttackRuns int
	// ArchID additionally runs the architecture-fingerprinting stage per
	// cell: the default zoo is deployed at the cell's defense level, the
	// attackers profile with the cell's trace budget per architecture, and
	// the cell reports architecture-recovery accuracy next to the
	// input-recovery columns — the same defenses scored on a different
	// secret (the model, not the input).
	ArchID bool
	// ArchIDRuns is the held-out fingerprinting observations per
	// architecture when ArchID is set; 0 derives half the cell's trace
	// budget (minimum 10).
	ArchIDRuns int
	// Topo additionally runs the topology-recovery stage per cell:
	// attacker models are trained on a random zoo, a disjoint held-out
	// zoo is reconstructed layer-by-layer at the cell's defense level,
	// and the cell reports exact-layer-count and kind-recovery rates —
	// the full reverse-engineering capability scored against the same
	// defense grid.
	Topo bool
	// TopoHoldout is the held-out victim count when Topo is set; 0 uses
	// the topo default.
	TopoHoldout int
	// Scenario is the template for per-dataset scenario construction
	// (Dataset and Defense are overridden per grid point).
	Scenario ScenarioConfig
	// Obs, when non-nil, records telemetry for every cell's campaigns and
	// supplies the sweep's wall clock (a nil recorder falls back to the
	// system clock, so WallMS is always populated). Observational output
	// only — cell results are byte-identical with or without it.
	Obs *obs.Recorder
}

func (c SweepConfig) withDefaults() SweepConfig {
	if len(c.Datasets) == 0 {
		c.Datasets = []Dataset{DatasetMNIST}
	}
	if len(c.Defenses) == 0 {
		c.Defenses = []DefenseLevel{DefenseBaseline, DefenseDense, DefenseConstantTime, DefenseNoiseInjection}
	}
	if len(c.TraceBudgets) == 0 {
		c.TraceBudgets = []int{100, 200, 300}
	}
	if len(c.EventSets) == 0 {
		c.EventSets = []string{"base"}
	}
	if len(c.Classes) == 0 {
		c.Classes = PaperClasses()
	}
	if c.CellParallel <= 0 {
		c.CellParallel = 2
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// SweepResult is one evaluated grid cell.
type SweepResult struct {
	Dataset  string  `json:"dataset"`
	Defense  string  `json:"defense"`
	Runs     int     `json:"runs"`
	EventSet string  `json:"events"`
	Events   int     `json:"event_count"`
	Tests    int     `json:"tests"`
	Alarms   int     `json:"alarms"`
	Leaky    bool    `json:"leaky"`
	MinP     float64 `json:"min_p"`
	MaxAbsT  float64 `json:"max_abs_t"`
	// Attack-stage columns: recovery accuracy of the Gaussian template and
	// kNN attackers over AttackRuns held-out observations per class. A
	// zero AttackRuns means the stage was not run and the accuracies are
	// meaningless (they stay in the JSON so a genuine 0% recovery is never
	// confused with stage-not-run; the CSV leaves all three blank instead).
	AttackRuns  int     `json:"attack_runs"`
	TemplateAcc float64 `json:"template_acc"`
	KNNAcc      float64 `json:"knn_acc"`
	// ArchID-stage columns: architecture-recovery accuracy of both
	// attackers over ArchIDRuns held-out observations per architecture
	// (same stage-not-run convention as the attack columns).
	ArchIDRuns        int     `json:"archid_runs"`
	ArchIDTemplateAcc float64 `json:"archid_template_acc"`
	ArchIDKNNAcc      float64 `json:"archid_knn_acc"`
	// Topo-stage columns: layer-count and layer-kind recovery over
	// TopoVictims held-out architectures (same stage-not-run convention:
	// zero victims means the stage did not run and the rates are
	// meaningless; the CSV leaves all three blank).
	TopoVictims   int     `json:"topo_victims"`
	TopoExactRate float64 `json:"topo_exact_rate"`
	TopoKindAcc   float64 `json:"topo_kind_acc"`
	WallMS        int64   `json:"wall_ms"`
}

// SweepGrid is the full sweep output.
type SweepGrid struct {
	Results []SweepResult `json:"results"`
}

// Sweep trains one scenario per dataset, then evaluates every grid cell on
// the concurrent pipeline, up to cfg.CellParallel cells at a time.
func Sweep(ctx context.Context, cfg SweepConfig) (*SweepGrid, error) {
	return SweepProgress(ctx, cfg, nil)
}

// SweepProgress is Sweep with a per-cell completion callback (may be nil);
// progress calls are serialized.
func SweepProgress(ctx context.Context, cfg SweepConfig, progress func(SweepResult)) (*SweepGrid, error) {
	cfg = cfg.withDefaults()

	// Parse every event set up front so a bad spec fails before training.
	eventSets := make([][]march.Event, len(cfg.EventSets))
	for i, spec := range cfg.EventSets {
		evs, err := hpc.ParseEventSpec(spec)
		if err != nil {
			return nil, err
		}
		eventSets[i] = evs
	}

	scenarios := map[Dataset]*Scenario{}
	for _, d := range cfg.Datasets {
		sc := cfg.Scenario
		sc.Dataset = d
		sc.Defense = DefenseBaseline
		if sc.Seed == 0 {
			sc.Seed = cfg.Seed
		}
		s, err := NewScenario(sc)
		if err != nil {
			return nil, fmt.Errorf("sweep: scenario %s: %w", d, err)
		}
		scenarios[d] = s
	}

	type cell struct {
		index   int
		dataset Dataset
		defense DefenseLevel
		runs    int
		spec    string
		events  []march.Event
	}
	var cells []cell
	for _, d := range cfg.Datasets {
		for _, def := range cfg.Defenses {
			for _, runs := range cfg.TraceBudgets {
				for i, spec := range cfg.EventSets {
					cells = append(cells, cell{
						index: len(cells), dataset: d, defense: def,
						runs: runs, spec: spec, events: eventSets[i],
					})
				}
			}
		}
	}

	grid := &SweepGrid{Results: make([]SweepResult, len(cells))}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		wg         sync.WaitGroup
		errOnce    sync.Once
		firstErr   error
		progressMu sync.Mutex
	)
	fail := func(err error) {
		errOnce.Do(func() {
			firstErr = err
			cancel()
		})
	}
	sem := make(chan struct{}, cfg.CellParallel)
	for _, cl := range cells {
		select {
		case sem <- struct{}{}:
		case <-ctx.Done():
			fail(ctx.Err())
		}
		if ctx.Err() != nil {
			break
		}
		wg.Add(1)
		go func(cl cell) {
			defer wg.Done()
			defer func() { <-sem }()
			// Wall-clock telemetry only: start feeds WallMS, which the
			// digest and goldens exclude. The obs clock is the repo's one
			// sanctioned wall-clock source (system clock when cfg.Obs is
			// nil).
			start := cfg.Obs.Clock().Now()
			rep, err := scenarios[cl.dataset].EvaluateGrouped(ctx, cl.defense, EvalConfig{
				Classes:      cfg.Classes,
				Events:       cl.events,
				RunsPerClass: cl.runs,
				Alpha:        cfg.Alpha,
				Workers:      cfg.Workers,
				Processes:    cfg.Processes,
				Fabric:       cfg.Fabric,
				Seed:         core.DeriveSeed(cfg.Seed, cl.index, 0),
				Obs:          cfg.Obs,
			})
			if err != nil {
				fail(fmt.Errorf("sweep: %s/%s runs=%d events=%s: %w", cl.dataset, cl.defense, cl.runs, cl.spec, err))
				return
			}
			var atk *AttackResult
			if cfg.Attack {
				atkRuns := derivedHoldout(cfg.AttackRuns, cl.runs)
				atk, err = scenarios[cl.dataset].AttackGrouped(ctx, cl.defense, AttackConfig{
					Classes:     cfg.Classes,
					Events:      cl.events,
					ProfileRuns: cl.runs,
					AttackRuns:  atkRuns,
					Workers:     cfg.Workers,
					Processes:   cfg.Processes,
					Fabric:      cfg.Fabric,
					// Domain 3 keeps attack-stage observations disjoint from
					// the cell's evaluation campaign (domain 0 above).
					Seed: core.DeriveSeed(cfg.Seed, cl.index, 3),
					Obs:  cfg.Obs,
				})
				if err != nil {
					fail(fmt.Errorf("sweep attack: %s/%s runs=%d events=%s: %w", cl.dataset, cl.defense, cl.runs, cl.spec, err))
					return
				}
			}
			var arch *ArchIDResult
			if cfg.ArchID {
				archRuns := derivedHoldout(cfg.ArchIDRuns, cl.runs)
				arch, err = scenarios[cl.dataset].ArchIDGrouped(ctx, cl.defense, ArchIDConfig{
					Events:      cl.events,
					ProfileRuns: cl.runs,
					AttackRuns:  archRuns,
					Workers:     cfg.Workers,
					Processes:   cfg.Processes,
					Fabric:      cfg.Fabric,
					// Domain 4 keeps archid observations disjoint from the
					// cell's evaluation (0) and attack (3) campaigns.
					Seed: core.DeriveSeed(cfg.Seed, cl.index, 4),
					Obs:  cfg.Obs,
				})
				if err != nil {
					fail(fmt.Errorf("sweep archid: %s/%s runs=%d events=%s: %w", cl.dataset, cl.defense, cl.runs, cl.spec, err))
					return
				}
			}
			var tp *TopoResult
			if cfg.Topo {
				tp, err = scenarios[cl.dataset].TopoGrouped(ctx, cl.defense, TopoConfig{
					Events:    cl.events,
					Holdout:   cfg.TopoHoldout,
					Runs:      derivedHoldout(0, cl.runs),
					Workers:   cfg.Workers,
					Processes: cfg.Processes,
					Fabric:    cfg.Fabric,
					// Domain 5 keeps topo observations disjoint from the
					// cell's evaluation (0), attack (3) and archid (4)
					// campaigns.
					Seed: core.DeriveSeed(cfg.Seed, cl.index, 5),
					Obs:  cfg.Obs,
				})
				if err != nil {
					fail(fmt.Errorf("sweep topo: %s/%s runs=%d events=%s: %w", cl.dataset, cl.defense, cl.runs, cl.spec, err))
					return
				}
			}
			res := summarize(cl.dataset, cl.defense, cl.runs, cl.spec, len(cl.events), rep, atk, arch, tp, cfg.Obs.Clock().Now().Sub(start))
			grid.Results[cl.index] = res
			if progress != nil {
				progressMu.Lock()
				progress(res)
				progressMu.Unlock()
			}
		}(cl)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	// The deferred cancel has not run yet, so a non-nil error here means
	// the caller's context was cancelled before the grid completed.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return grid, nil
}

// EvaluateGrouped runs a pipeline campaign over an arbitrarily wide event
// list at an explicit defense level. Event sets wider than the HPC
// register file cannot be counted in a single campaign, so they are split
// into register-sized groups, each evaluated as its own pipeline campaign
// (with a group-derived root seed), and the partial reports are merged —
// exactly the multi-session discipline a real perf user must follow.
func (s *Scenario) EvaluateGrouped(ctx context.Context, level DefenseLevel, cfg EvalConfig) (*core.Report, error) {
	return s.evaluate(ctx, level, cfg, func(root int64, g int) int64 { return core.DeriveSeed(root, g, 1) })
}

// evaluate runs a report campaign at the given level, one session per
// register group with root seed groupSeed(root, group), and merges the
// per-group reports.
func (s *Scenario) evaluate(ctx context.Context, level DefenseLevel, cfg EvalConfig, groupSeed func(root int64, g int) int64) (*core.Report, error) {
	if len(cfg.Classes) == 0 {
		cfg.Classes = PaperClasses()
	}
	if cfg.RunsPerClass <= 0 {
		cfg.RunsPerClass = 300
	}
	events := cfg.Events
	if len(events) == 0 {
		events = []Event{EvCacheMisses, EvBranches}
	}
	root := cfg.Seed
	if root == 0 {
		root = s.Config.Seed
	}
	spec := s.workerSpec(StageReport, level, events)
	spec.Classes, spec.RunsPerClass = cfg.Classes, cfg.RunsPerClass
	c, err := s.newCollector(spec, runOpts{
		workers: cfg.Workers, procs: cfg.Processes, fabric: cfg.Fabric, obs: cfg.Obs, alpha: cfg.Alpha,
	})
	if err != nil {
		return nil, err
	}
	name := fmt.Sprintf("%s/%s", s.Config.Dataset, level)
	var merged *core.Report
	err = c.eachSession(func(g int) int64 { return groupSeed(root, g) }, func(ss *session) error {
		byClass, err := ss.profiles(ctx)
		if err != nil {
			return err
		}
		rep, err := ss.p.ReportFromProfiles(ctx, name, byClass)
		if err != nil {
			return err
		}
		if merged == nil {
			merged = rep
			return nil
		}
		merged.Dists.Events = append(merged.Dists.Events, rep.Dists.Events...)
		for e, byClass := range rep.Dists.Samples {
			merged.Dists.Samples[e] = byClass
		}
		merged.Tests = append(merged.Tests, rep.Tests...)
		merged.Alarms = append(merged.Alarms, rep.Alarms...)
		return nil
	})
	if err != nil {
		return nil, err
	}
	merged.Config.Events = append([]march.Event(nil), events...)
	return merged, nil
}

// derivedHoldout resolves a held-out observation budget for a cell's
// exploitation stages: the configured value, or half the cell's trace
// budget with a 10-run floor — shared by the attack and archid columns so
// the two stages can never silently derive different budgets from the
// same convention.
func derivedHoldout(configured, cellRuns int) int {
	if configured > 0 {
		return configured
	}
	n := cellRuns / 2
	if n < 10 {
		n = 10
	}
	return n
}

func summarize(d Dataset, level DefenseLevel, runs int, spec string, nEvents int, rep *core.Report, atk *AttackResult, arch *ArchIDResult, tp *TopoResult, wall time.Duration) SweepResult {
	res := SweepResult{
		Dataset:  string(d),
		Defense:  level.String(),
		Runs:     runs,
		EventSet: spec,
		Events:   nEvents,
		Tests:    len(rep.Tests),
		Alarms:   len(rep.Alarms),
		Leaky:    rep.Leaky(),
		MinP:     1,
		WallMS:   wall.Milliseconds(),
	}
	for _, t := range rep.Tests {
		if t.Result.P < res.MinP {
			res.MinP = t.Result.P
		}
		at := t.Result.T
		if at < 0 {
			at = -at
		}
		if at > res.MaxAbsT {
			res.MaxAbsT = at
		}
	}
	if atk != nil {
		res.AttackRuns = atk.AttackRuns
		res.TemplateAcc = atk.Template.Accuracy()
		res.KNNAcc = atk.KNN.Accuracy()
	}
	if arch != nil {
		res.ArchIDRuns = arch.Attack.AttackRuns
		res.ArchIDTemplateAcc = arch.Attack.Template.Accuracy()
		res.ArchIDKNNAcc = arch.Attack.KNN.Accuracy()
	}
	if tp != nil {
		res.TopoVictims = len(tp.Victims)
		res.TopoExactRate = tp.ExactCountRate
		res.TopoKindAcc = tp.MeanKindAccuracy
	}
	return res
}

// WriteCSV emits the grid as a CSV table.
func (g *SweepGrid) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"dataset", "defense", "runs", "events", "event_count", "tests", "alarms", "leaky", "min_p", "max_abs_t", "attack_runs", "template_acc", "knn_acc", "archid_runs", "archid_template_acc", "archid_knn_acc", "topo_victims", "topo_exact_rate", "topo_kind_acc", "wall_ms"}); err != nil {
		return err
	}
	for _, r := range g.Results {
		attackRuns, templateAcc, knnAcc := "", "", ""
		if r.AttackRuns > 0 {
			attackRuns = strconv.Itoa(r.AttackRuns)
			templateAcc = strconv.FormatFloat(r.TemplateAcc, 'g', 6, 64)
			knnAcc = strconv.FormatFloat(r.KNNAcc, 'g', 6, 64)
		}
		archidRuns, archidTemplateAcc, archidKNNAcc := "", "", ""
		if r.ArchIDRuns > 0 {
			archidRuns = strconv.Itoa(r.ArchIDRuns)
			archidTemplateAcc = strconv.FormatFloat(r.ArchIDTemplateAcc, 'g', 6, 64)
			archidKNNAcc = strconv.FormatFloat(r.ArchIDKNNAcc, 'g', 6, 64)
		}
		topoVictims, topoExactRate, topoKindAcc := "", "", ""
		if r.TopoVictims > 0 {
			topoVictims = strconv.Itoa(r.TopoVictims)
			topoExactRate = strconv.FormatFloat(r.TopoExactRate, 'g', 6, 64)
			topoKindAcc = strconv.FormatFloat(r.TopoKindAcc, 'g', 6, 64)
		}
		rec := []string{
			r.Dataset, r.Defense, strconv.Itoa(r.Runs), r.EventSet,
			strconv.Itoa(r.Events), strconv.Itoa(r.Tests), strconv.Itoa(r.Alarms),
			strconv.FormatBool(r.Leaky),
			strconv.FormatFloat(r.MinP, 'g', 6, 64),
			strconv.FormatFloat(r.MaxAbsT, 'g', 6, 64),
			attackRuns, templateAcc, knnAcc,
			archidRuns, archidTemplateAcc, archidKNNAcc,
			topoVictims, topoExactRate, topoKindAcc,
			strconv.FormatInt(r.WallMS, 10),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteJSON emits the grid as indented JSON.
func (g *SweepGrid) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(g)
}
