// Command figures regenerates every figure of the paper's evaluation as
// ASCII art (and optionally CSV for external plotting).
//
// Usage:
//
//	figures -fig all            # everything
//	figures -fig 1a             # Figure 1(a): avg cache-misses per category, MNIST
//	figures -fig 2b             # Figure 2(b): perf-stat dump of 8 events
//	figures -fig 3a -runs 200   # Figure 3(a): cache-miss distributions, MNIST
//	figures -fig 3a -defense constant-time   # the same panel, hardened
//
// Figure index: 1a, 1b (bar charts), 2b (perf stat), 3a, 3b (MNIST
// distributions), 4a, 4b (CIFAR distributions).
//
// Collection campaigns run on the concurrent sharded pipeline over
// -workers workers (0 = GOMAXPROCS); for a fixed -seed every figure is
// reproducible at any worker count.
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
	log.SetPrefix("figures: ")
	var (
		fig     = flag.String("fig", "all", "figure id: 1a,1b,2b,3a,3b,4a,4b,all")
		runs    = flag.Int("runs", 300, "classifications per category")
		defName = flag.String("defense", "baseline", "defense level: baseline, dense-execution, constant-time, noise-injection, padded-envelope")
		workers = flag.Int("workers", 0, "pipeline workers; 0 = GOMAXPROCS")
		seed    = flag.Int64("seed", 0, "pipeline root seed; 0 = scenario seed")
	)
	flag.Parse()

	level, err := repro.ParseDefense(*defName)
	if err != nil {
		log.Fatal(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	want := func(id string) bool { return *fig == "all" || *fig == id }

	// One scenario per dataset (at the requested defense level), shared
	// between every figure of that dataset — including the 2b perf-stat
	// panel, so -defense hardens all panels consistently.
	scenarios := map[repro.Dataset]*repro.Scenario{}
	scenario := func(d repro.Dataset) *repro.Scenario {
		if s, ok := scenarios[d]; ok {
			return s
		}
		s, err := repro.NewScenario(repro.ScenarioConfig{Dataset: d, Defense: level})
		check(err)
		scenarios[d] = s
		return s
	}
	mustReport := func(d repro.Dataset) *repro.Report {
		rep, err := scenario(d).EvaluateCtx(ctx, repro.EvalConfig{RunsPerClass: *runs, Workers: *workers, Seed: *seed})
		check(err)
		return rep
	}

	// Reports are shared between figures of the same dataset.
	var mnistRep, cifarRep *repro.Report
	needMNIST := want("1a") || want("3a") || want("3b")
	needCIFAR := want("1b") || want("4a") || want("4b")

	if needMNIST {
		mnistRep = mustReport(repro.DatasetMNIST)
	}
	if needCIFAR {
		cifarRep = mustReport(repro.DatasetCIFAR)
	}

	if want("1a") {
		check(repro.RenderFigure1(os.Stdout, "Figure 1(a): average cache-misses per category (MNIST)", mnistRep))
		fmt.Println()
	}
	if want("1b") {
		check(repro.RenderFigure1(os.Stdout, "Figure 1(b): average cache-misses per category (CIFAR-10)", cifarRep))
		fmt.Println()
	}
	if want("2b") {
		_, out, err := repro.Figure2b(scenario(repro.DatasetMNIST))
		check(err)
		fmt.Println("Figure 2(b): hardware events during one classification (perf stat layout)")
		fmt.Print(out)
		fmt.Println()
	}
	if want("3a") {
		check(repro.FigureDistributions(os.Stdout, "Figure 3(a): MNIST", mnistRep, repro.EvCacheMisses))
		fmt.Println()
	}
	if want("3b") {
		check(repro.FigureDistributions(os.Stdout, "Figure 3(b): MNIST", mnistRep, repro.EvBranches))
		fmt.Println()
	}
	if want("4a") {
		check(repro.FigureDistributions(os.Stdout, "Figure 4(a): CIFAR-10", cifarRep, repro.EvCacheMisses))
		fmt.Println()
	}
	if want("4b") {
		check(repro.FigureDistributions(os.Stdout, "Figure 4(b): CIFAR-10", cifarRep, repro.EvBranches))
		fmt.Println()
	}
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
