// Command calibrate runs the reproduction's shape check on both datasets:
// it rebuilds the scenarios, reruns the Table 1/2 campaigns, and verifies
// the qualitative targets (cache-misses separate every category pair,
// branches separate at most a few). Use it after changing the cache
// geometry, the noise model, or the runtime overhead constants.
//
// Usage:
//
//	calibrate [-runs 300] [-workers N] [-seed 1]
//
// Campaigns run on the concurrent sharded pipeline over -workers workers
// (0 = GOMAXPROCS); the shape verdict is identical at any worker count
// for a fixed -seed.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"

	"repro"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("calibrate: ")
	var (
		runs    = flag.Int("runs", 300, "classifications per category")
		workers = flag.Int("workers", 0, "pipeline workers; 0 = GOMAXPROCS")
		seed    = flag.Int64("seed", 0, "pipeline root seed; 0 = scenario seed")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	allOK := true
	for _, d := range []repro.Dataset{repro.DatasetMNIST, repro.DatasetCIFAR} {
		s, err := repro.DefaultScenario(d)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("== %s (test accuracy %.3f) ==\n", d, s.TestAccuracy)
		rep, err := s.EvaluateCtx(ctx, repro.EvalConfig{RunsPerClass: *runs, Workers: *workers, Seed: *seed})
		if err != nil {
			log.Fatal(err)
		}
		if err := repro.TableTTests(os.Stdout, rep); err != nil {
			log.Fatal(err)
		}
		ok, findings := repro.ShapeCheck(rep)
		for _, f := range findings {
			fmt.Println("  ", f)
		}
		if !ok {
			allOK = false
		}
		fmt.Println()
	}
	if !allOK {
		fmt.Println("calibration FAILED: shapes differ from the paper")
		os.Exit(1)
	}
	fmt.Println("calibration OK: both datasets match the paper's shape")
}
