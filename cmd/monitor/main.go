// Command monitor runs the streaming leakage monitor against one
// dataset: instead of collecting the full trace budget and scoring it
// afterwards (the evaluate command), it consumes profile windows as the
// pipeline delivers them, drives sequential hypothesis tests under an
// alpha-spending boundary, and stops the campaign at the first
// detection — printing how many monitored classifications the verdict
// cost. A campaign that runs to exhaustion prints the ordinary batch
// report, byte-identical to evaluate on the same configuration.
//
// Usage:
//
//	monitor -dataset mnist [-budget 300] [-classes 1,2,3,4] [-defense baseline]
//	        [-alpha 0.05] [-events base] [-workers N] [-seed 0] [-batch 1]
//	        [-mann-whitney] [-min-samples 8] [-no-stop] [-tenants 0] [-quantum 5000]
//	        [-json] [-csv out.csv]
//	        [-processes N] [-worker-bin PATH] [-journal BASE]
//
// The consumed window stream is deterministic, so the detection — and
// its trace count — is identical at any -workers or -processes value.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"runtime"

	"repro"
	"repro/cmd/internal/cliflags"
	"repro/internal/hpc"
	"repro/internal/pipeline"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("monitor: ")
	var (
		dsName  = flag.String("dataset", "mnist", "dataset: mnist or cifar")
		budget  = flag.Int("budget", 300, "trace budget: maximum monitored classifications per category")
		classes = flag.String("classes", "1,2,3,4", "comma-separated category labels")
		defName = flag.String("defense", "baseline", "defense level: baseline, dense-execution, constant-time, noise-injection, padded-envelope")
		alpha   = flag.Float64("alpha", 0.05, "overall significance level the spending boundary distributes")
		events  = flag.String("events", "base", "event set (base, fig2b, extended) or comma-separated event list")
		workers = flag.Int("workers", 0, "pipeline workers; 0 = GOMAXPROCS (the window stream is worker-count-invariant)")
		seed    = flag.Int64("seed", 0, "pipeline root seed; 0 = scenario seed")
		batch   = flag.Int("batch", 1, "window size: measured runs per window, and so the look cadence (observations are identical at any value)")

		mannWhitney = flag.Bool("mann-whitney", false, "monitor with the sequential rank-sum test instead of Welch's t-test")
		minSamples  = flag.Int("min-samples", 8, "per-side sample floor before a hypothesis takes its first look")
		noStop      = flag.Bool("no-stop", false, "disable early stopping: always run to exhaustion and print the batch report")
		tenants     = flag.Int("tenants", 0, "≥2 co-locates a second classifier on every shard core, interleaved quantum by quantum")
		quantum     = flag.Uint64("quantum", 5000, "instruction quantum of the tenant interleaving")

		jsonOut = flag.Bool("json", false, "print the monitor report as JSON")
		csvPath = flag.String("csv", "", "on exhaustion, write raw distributions to this CSV file (byte-identical to evaluate's)")
	)
	fab := cliflags.AddFabric(flag.CommandLine)
	tel := cliflags.AddTelemetry(flag.CommandLine, "monitor")
	flag.Parse()

	level, err := repro.ParseDefense(*defName)
	if err != nil {
		log.Fatal(err)
	}
	cls, err := repro.ParseClasses(*classes)
	if err != nil {
		log.Fatal(err)
	}
	evs, err := hpc.ParseEventSpec(*events)
	if err != nil {
		log.Fatal(err)
	}
	nw := *workers
	if nw <= 0 {
		nw = runtime.GOMAXPROCS(0) // the pipeline default, for the banner
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	s, err := repro.NewScenario(repro.ScenarioConfig{Dataset: repro.Dataset(*dsName), Defense: level})
	if err != nil {
		log.Fatal(err)
	}
	if !*jsonOut {
		fmt.Printf("scenario: %s, defense %s, test accuracy %.3f\n", *dsName, level, s.TestAccuracy)
		fmt.Printf("monitoring up to %d classifications per category for categories %v (α %g, %d workers, root seed %d)...\n",
			*budget, cls, *alpha, nw, *seed)
	}

	rec, obsFinish, err := tel.Recorder()
	if err != nil {
		log.Fatal(err)
	}

	rep, err := s.MonitorCtx(ctx, repro.MonitorConfig{
		Classes: cls, Events: evs, Budget: *budget, Alpha: *alpha,
		Workers: *workers, Seed: *seed, Batch: *batch,
		MannWhitney: *mannWhitney, MinSamples: *minSamples, NoStop: *noStop,
		Tenants: *tenants, Quantum: *quantum,
		Processes: fab.Processes, Fabric: fab.Config,
		Obs: rec,
	})
	if err == nil {
		err = obsFinish()
	}
	if err != nil {
		var c *pipeline.Cancelled
		if errors.As(err, &c) {
			// Interrupted, not misconfigured: no windows arriving is the
			// campaign being cut short, never an empty budget.
			log.Fatalf("campaign interrupted during %s: %v", c.Stage, c.Err)
		}
		log.Fatal(err)
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			log.Fatal(err)
		}
	} else if rep.Stopped {
		d := rep.Detection
		fmt.Printf("\nDETECTED after %d traces (%d on the pair): %s distinguishes category %d from %d (stat %.3f, p %.3g)\n",
			d.Traces, d.PairTraces, d.EventName, d.ClassA, d.ClassB, d.Stat, d.P)
		fmt.Printf("budget saved: %d of %d traces unspent\n", len(cls)**budget-rep.TracesSeen, len(cls)**budget)
	} else {
		fmt.Printf("\nbudget exhausted after %d traces without a sequential detection\n", rep.TracesSeen)
		fmt.Println("\nper-category event summaries:")
		repro.RenderSummary(os.Stdout, rep.Report)
		fmt.Println("\nt-test results (Table 1/2 layout):")
		if err := repro.TableTTests(os.Stdout, rep.Report); err != nil {
			log.Fatal(err)
		}
		fmt.Println()
		repro.RenderAlarms(os.Stdout, rep.Report)
	}

	if *csvPath != "" {
		if rep.Report == nil {
			log.Fatal("-csv needs the exhaustion report; the campaign stopped early (use -no-stop)")
		}
		f, err := os.Create(*csvPath)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if err := repro.WriteCSV(f, rep.Report); err != nil {
			log.Fatal(err)
		}
		if !*jsonOut {
			fmt.Printf("raw distributions written to %s\n", *csvPath)
		}
	}
}
