// Hardening: evaluate the countermeasure ladder from the paper's
// conclusion — "designing CNN architectures with indistinguishable CPU
// footprints".
//
// The same trained model is deployed at four hardening levels and the
// Evaluator is run against each:
//
//	baseline         sparsity-skipping kernels (leaky)
//	dense-execution  no zero-skipping: traffic independent of sparsity
//	constant-time    additionally branchless: fixed instruction stream
//	noise-injection  leaky kernels masked by randomized dummy traffic
//
// The alarm counts show which defenses actually silence the side channel.
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"repro"
)

func main() {
	log.SetFlags(0)

	levels := []repro.DefenseLevel{
		repro.DefenseBaseline,
		repro.DefenseDense,
		repro.DefenseConstantTime,
		repro.DefenseNoiseInjection,
	}

	fmt.Println("evaluating 4 deployments of the same CNN (MNIST-like, categories 1-4)...")
	fmt.Println()
	type row struct {
		level  repro.DefenseLevel
		alarms int
		cm     int
		br     int
	}
	var rows []row
	for _, level := range levels {
		s, err := repro.NewScenario(repro.ScenarioConfig{
			Dataset:       repro.DatasetMNIST,
			PerClassTrain: 60,
			PerClassTest:  30,
			Defense:       level,
			Seed:          3,
		})
		if err != nil {
			log.Fatal(err)
		}
		rep, err := s.EvaluateCtx(context.Background(), repro.EvalConfig{RunsPerClass: 120})
		if err != nil {
			log.Fatal(err)
		}
		rows = append(rows, row{
			level:  level,
			alarms: len(rep.Alarms),
			cm:     len(rep.AlarmsFor(repro.EvCacheMisses)),
			br:     len(rep.AlarmsFor(repro.EvBranches)),
		})
		fmt.Printf("--- %s ---\n", level)
		if err := repro.TableTTests(os.Stdout, rep); err != nil {
			log.Fatal(err)
		}
		fmt.Println()
	}

	fmt.Println("summary (alarms out of 6 category pairs per event):")
	fmt.Printf("  %-18s%8s%15s%12s\n", "defense", "alarms", "cache-misses", "branches")
	for _, r := range rows {
		fmt.Printf("  %-18s%8d%15d%12d\n", r.level, r.alarms, r.cm, r.br)
	}
	fmt.Println("\nreading: the baseline leaks through cache-misses; dense execution")
	fmt.Println("removes the sparsity signal; constant-time removes branch leakage too;")
	fmt.Println("noise injection only masks the signal and may still leak at larger n.")
}
