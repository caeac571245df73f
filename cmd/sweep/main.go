// Command sweep runs a grid of leakage-assessment campaigns — trace
// budgets × event sets × defenses (× datasets) — on the concurrent
// sharded evaluation pipeline, and emits the grid as CSV or JSON. It
// answers the practical assessment questions a single campaign cannot:
// how many traces until the Evaluator's alarm fires, which events leak,
// and which hardening level silences them.
//
// Usage:
//
//	sweep [-datasets mnist] [-defenses baseline,constant-time] [-runs 50,100,200]
//	      [-events "base;fig2b"] [-classes 1,2,3,4] [-alpha 0.05]
//	      [-workers N] [-cell-parallel 2] [-seed 1] [-attack] [-attack-runs N]
//	      [-archid] [-archid-runs N] [-topo] [-topo-holdout N]
//	      [-processes N] [-worker-bin PATH] [-journal BASE]
//	      [-format csv|json] [-o grid.csv]
//
// Event sets are separated by semicolons; each set is a named set (base,
// fig2b, extended) or a comma-separated perf-style event list. Sets wider
// than the 6 HPC registers are split into register-sized campaign groups
// automatically. All randomness derives from -seed, so a sweep is
// reproducible regardless of -workers or -cell-parallel.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strconv"
	"strings"

	"repro"
	"repro/cmd/internal/cliflags"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("sweep: ")
	var (
		datasets     = flag.String("datasets", "mnist", "comma-separated datasets: mnist, cifar")
		defenses     = flag.String("defenses", "baseline,dense-execution,constant-time,noise-injection", "comma-separated defense levels")
		runs         = flag.String("runs", "100,200,300", "comma-separated trace budgets (classifications per category)")
		events       = flag.String("events", "base", "semicolon-separated event sets (named set or comma list each)")
		classes      = flag.String("classes", "1,2,3,4", "comma-separated category labels")
		alpha        = flag.Float64("alpha", 0.05, "significance level")
		workers      = flag.Int("workers", 0, "pipeline workers per cell; 0 = GOMAXPROCS")
		cellParallel = flag.Int("cell-parallel", 2, "grid cells evaluated concurrently")
		seed         = flag.Int64("seed", 1, "sweep root seed")
		attackStage  = flag.Bool("attack", false, "run the end-to-end attack stage per cell (template_acc/knn_acc columns)")
		attackRuns   = flag.Int("attack-runs", 0, "held-out attack observations per class (0 = half the cell's budget, min 10)")
		archidStage  = flag.Bool("archid", false, "run the architecture-fingerprinting stage per cell (archid_template_acc/archid_knn_acc columns)")
		archidRuns   = flag.Int("archid-runs", 0, "held-out fingerprinting observations per architecture (0 = half the cell's budget, min 10)")
		topoStage    = flag.Bool("topo", false, "run the topology-recovery stage per cell (topo_exact_rate/topo_kind_acc columns)")
		topoHoldout  = flag.Int("topo-holdout", 0, "held-out victim architectures per cell (0 = topo default)")
		format       = flag.String("format", "csv", "output format: csv or json")
		out          = flag.String("o", "", "output file (default stdout)")
		perTrain     = flag.Int("train", 0, "per-class training images (0 = paper default)")
		perTest      = flag.Int("test", 0, "per-class test images (0 = paper default)")
		epochs       = flag.Int("epochs", 0, "training epochs (0 = paper default)")
	)
	fab := cliflags.AddFabric(flag.CommandLine)
	tel := cliflags.AddTelemetry(flag.CommandLine, "sweep")
	flag.Parse()
	if *format != "csv" && *format != "json" {
		log.Fatalf("unknown format %q (want csv or json)", *format)
	}

	cls, err := repro.ParseClasses(*classes)
	if err != nil {
		log.Fatal(err)
	}
	rec, obsFinish, err := tel.Recorder()
	if err != nil {
		log.Fatal(err)
	}
	cfg := repro.SweepConfig{
		TraceBudgets: parseInts(*runs),
		EventSets:    splitNonEmpty(*events, ";"),
		Classes:      cls,
		Alpha:        *alpha,
		Workers:      *workers,
		CellParallel: *cellParallel,
		Seed:         *seed,
		Attack:       *attackStage,
		AttackRuns:   *attackRuns,
		ArchID:       *archidStage,
		ArchIDRuns:   *archidRuns,
		Topo:         *topoStage,
		TopoHoldout:  *topoHoldout,
		Processes:    fab.Processes,
		Fabric:       fab.Config,
		Obs:          rec,
		Scenario: repro.ScenarioConfig{
			PerClassTrain: *perTrain,
			PerClassTest:  *perTest,
			Epochs:        *epochs,
		},
	}
	for _, d := range splitNonEmpty(*datasets, ",") {
		cfg.Datasets = append(cfg.Datasets, repro.Dataset(d))
	}
	for _, name := range splitNonEmpty(*defenses, ",") {
		level, err := repro.ParseDefense(name)
		if err != nil {
			log.Fatal(err)
		}
		cfg.Defenses = append(cfg.Defenses, level)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	total := len(cfg.Datasets) * len(cfg.Defenses) * len(cfg.TraceBudgets) * len(cfg.EventSets)
	fmt.Fprintf(os.Stderr, "sweep: %d cells (%d datasets × %d defenses × %d budgets × %d event sets)\n",
		total, len(cfg.Datasets), len(cfg.Defenses), len(cfg.TraceBudgets), len(cfg.EventSets))
	done := 0
	grid, err := repro.SweepProgress(ctx, cfg, func(r repro.SweepResult) {
		done++
		attackInfo := ""
		if r.AttackRuns > 0 {
			attackInfo = fmt.Sprintf(", template %.0f%% / knn %.0f%%", 100*r.TemplateAcc, 100*r.KNNAcc)
		}
		if r.ArchIDRuns > 0 {
			attackInfo += fmt.Sprintf(", archid %.0f%%/%.0f%%", 100*r.ArchIDTemplateAcc, 100*r.ArchIDKNNAcc)
		}
		if r.TopoVictims > 0 {
			attackInfo += fmt.Sprintf(", topo %.0f%%/%.0f%%", 100*r.TopoExactRate, 100*r.TopoKindAcc)
		}
		fmt.Fprintf(os.Stderr, "  [%d/%d] %s/%s runs=%d events=%s: %d alarms%s (%.0f ms)\n",
			done, total, r.Dataset, r.Defense, r.Runs, r.EventSet, r.Alarms, attackInfo, float64(r.WallMS))
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := obsFinish(); err != nil {
		log.Fatal(err)
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		w = f
	}
	if *format == "json" {
		err = grid.WriteJSON(w)
	} else {
		err = grid.WriteCSV(w)
	}
	if err != nil {
		log.Fatal(err)
	}
	if *out != "" {
		fmt.Fprintf(os.Stderr, "sweep: grid written to %s\n", *out)
	}
}

func parseInts(s string) []int {
	var out []int
	for _, part := range splitNonEmpty(s, ",") {
		n, err := strconv.Atoi(part)
		if err != nil {
			log.Fatalf("bad integer list %q: %v", s, err)
		}
		out = append(out, n)
	}
	return out
}

func splitNonEmpty(s, sep string) []string {
	var out []string
	for _, part := range strings.Split(s, sep) {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}
