// Command evaluate runs the paper's full evaluation campaign against one
// dataset: it trains the CNN, deploys it instrumented on the simulated
// core, collects per-category HPC distributions, runs the pairwise Welch
// t-tests and prints the Table 1/2 layout plus any alarms.
//
// Usage:
//
//	evaluate -dataset mnist [-runs 300] [-classes 1,2,3,4] [-defense baseline]
//	         [-alpha 0.05] [-csv out.csv] [-events base] [-workers N] [-seed 1]
//	         [-processes N] [-worker-bin PATH] [-journal BASE]
//
// The campaign runs on the concurrent sharded pipeline: collection fans
// out over -workers workers (0 = GOMAXPROCS) with deterministic per-shard
// seeds derived from -seed, so any worker count reproduces the same
// report. Event sets wider than the 6 HPC registers are split into
// register-sized collection sessions automatically.
//
// With -processes ≥ 1 the same shard plan is executed by shardworker OS
// processes through the distributed audit fabric; reports stay
// byte-identical at any process count, and -journal makes an interrupted
// campaign resumable from its completed shards.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"runtime"

	"repro"
	"repro/cmd/internal/cliflags"
	"repro/internal/hpc"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("evaluate: ")
	var (
		dsName  = flag.String("dataset", "mnist", "dataset: mnist or cifar")
		runs    = flag.Int("runs", 300, "monitored classifications per category")
		classes = flag.String("classes", "1,2,3,4", "comma-separated category labels")
		defName = flag.String("defense", "baseline", "defense level: baseline, dense-execution, constant-time, noise-injection, padded-envelope")
		alpha   = flag.Float64("alpha", 0.05, "significance level")
		csvPath = flag.String("csv", "", "write raw distributions to this CSV file")
		events  = flag.String("events", "base", "event set (base, fig2b, extended) or comma-separated event list")
		workers = flag.Int("workers", 0, "pipeline workers; 0 = GOMAXPROCS")
		seed    = flag.Int64("seed", 0, "pipeline root seed for per-shard RNG derivation; 0 = scenario seed")
	)
	fab := cliflags.AddFabric(flag.CommandLine)
	tel := cliflags.AddTelemetry(flag.CommandLine, "evaluate")
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
	fmt.Printf("scenario: %s, defense %s, test accuracy %.3f\n", *dsName, level, s.TestAccuracy)
	if groups := (len(evs) + hpc.DefaultCounters - 1) / hpc.DefaultCounters; groups > 1 {
		fmt.Printf("collecting %d classifications per category for categories %v (%d events in %d register groups, %d pipeline workers, root seed %d)...\n",
			*runs, cls, len(evs), groups, nw, *seed)
	} else {
		fmt.Printf("collecting %d classifications per category for categories %v (%d pipeline workers, root seed %d)...\n",
			*runs, cls, nw, *seed)
	}

	// Telemetry is observational output only: the report below is
	// byte-identical whether or not a recorder is armed.
	rec, obsFinish, err := tel.Recorder()
	if err != nil {
		log.Fatal(err)
	}
	rep, err := s.EvaluateCtx(ctx, repro.EvalConfig{
		Classes: cls, Events: evs, RunsPerClass: *runs, Alpha: *alpha,
		Workers: *workers, Seed: *seed,
		Processes: fab.Processes, Fabric: fab.Config,
		Obs: rec,
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := obsFinish(); err != nil {
		log.Fatal(err)
	}

	fmt.Println("\nper-category event summaries:")
	repro.RenderSummary(os.Stdout, rep)
	fmt.Println("\nt-test results (Table 1/2 layout):")
	if err := repro.TableTTests(os.Stdout, rep); err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	repro.RenderAlarms(os.Stdout, rep)

	ok, findings := repro.ShapeCheck(rep)
	fmt.Println("\nreproduction shape check:")
	for _, f := range findings {
		fmt.Println("  ", f)
	}
	if level == repro.DefenseBaseline && !ok {
		fmt.Println("   WARNING: baseline shape differs from the paper")
	}

	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if err := repro.WriteCSV(f, rep); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("raw distributions written to %s\n", *csvPath)
	}
}
