// Quickstart: evaluate whether a deployed CNN classifier leaks its input
// category through hardware performance counters.
//
// This is the minimal end-to-end use of the library: build a scenario
// (synthetic dataset + trained CNN + instrumented execution), run the
// Evaluator, and inspect the alarms. A small configuration keeps it under
// ~10 seconds.
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"runtime"

	"repro"
)

func main() {
	log.SetFlags(0)

	// A scenario bundles everything the paper's setup needs: the
	// synthetic MNIST-like dataset, a CNN trained on it, and the
	// instrumented deployment on a simulated core.
	fmt.Println("building scenario (generating data, training CNN)...")
	s, err := repro.NewScenario(repro.ScenarioConfig{Dataset: repro.DatasetMNIST})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("model trained: %.0f%% test accuracy\n\n", 100*s.TestAccuracy)

	// The Evaluator monitors HPC events while the classifier handles
	// inputs of each category, then t-tests every category pair. Workers
	// selects the concurrent sharded pipeline: collection fans out over
	// the CPU with deterministic per-shard seeds, so any worker count
	// reproduces the same report.
	fmt.Println("evaluating leakage for categories 1-4 (cache-misses, branches)...")
	rep, err := s.EvaluateCtx(context.Background(), repro.EvalConfig{RunsPerClass: 100, Workers: runtime.GOMAXPROCS(0)})
	if err != nil {
		log.Fatal(err)
	}

	if err := repro.TableTTests(os.Stdout, rep); err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	repro.RenderAlarms(os.Stdout, rep)

	if rep.Leaky() {
		fmt.Println("\nverdict: this implementation leaks the input category —")
		fmt.Println("an adversary watching the HPCs can tell what kind of image was classified.")
	} else {
		fmt.Println("\nverdict: no distinguishable leakage at this sample size.")
	}
}
