// Medical-image audit: the privacy scenario that motivates the paper.
//
// An online medical-image service classifies patient scans with a CNN. The
// diagnosis category of each scan is sensitive: if the execution footprint
// of the classifier depends on the category, anyone who can read the
// machine's performance counters learns each patient's diagnosis without
// ever seeing the scan.
//
// This example plays the auditor: before the service goes live, it runs
// the paper's Evaluator against the deployment with representative scans
// of each diagnosis category and reports whether an alarm is raised — and
// then demonstrates the harm by mounting the template attack an insider
// could run.
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"repro"
	"repro/internal/attack"
	"repro/internal/hpc"
	"repro/internal/march"
)

func main() {
	log.SetFlags(0)

	// The "scan" dataset: synthetic stand-in with one class per diagnosis
	// category. Two diagnosis categories keep the audit quick.
	fmt.Println("deploying diagnostic classifier (synthetic scans, 4 categories)...")
	s, err := repro.NewScenario(repro.ScenarioConfig{
		Dataset:       repro.DatasetMNIST, // grayscale scans
		PerClassTrain: 60,
		PerClassTest:  30,
		Seed:          7,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("classifier ready (test accuracy %.0f%%)\n\n", 100*s.TestAccuracy)

	// --- Audit phase: the Evaluator's verdict. ---
	fmt.Println("audit: monitoring HPCs over classifications of each category...")
	rep, err := s.EvaluateCtx(context.Background(), repro.EvalConfig{
		Classes:      []int{1, 2, 3, 4},
		RunsPerClass: 100,
	})
	if err != nil {
		log.Fatal(err)
	}
	repro.RenderAlarms(os.Stdout, rep)
	if !rep.Leaky() {
		fmt.Println("audit passed; service may go live.")
		return
	}

	// --- Exploitation demo: what an insider could actually do. ---
	fmt.Println("\ndemonstrating the harm: an insider profiles the service,")
	fmt.Println("then infers each patient's diagnosis category from HPCs alone.")

	events := march.BaseEvents()
	pmu, err := hpc.NewPMU(s.Engine, hpc.DefaultCounters)
	if err != nil {
		log.Fatal(err)
	}
	if err := pmu.Program(events...); err != nil {
		log.Fatal(err)
	}
	profiler, err := attack.NewProfiler(events)
	if err != nil {
		log.Fatal(err)
	}
	pools, err := s.ClassPools(1, 2, 3, 4)
	if err != nil {
		log.Fatal(err)
	}
	// Profiling: the insider submits scans of known categories.
	for cls, imgs := range pools {
		for i := 0; i < 40; i++ {
			img := imgs[i%len(imgs)]
			prof, err := pmu.MeasureOnce(func() { s.Target.Classify(img) })
			if err != nil {
				log.Fatal(err)
			}
			profiler.Add(cls, prof)
		}
	}
	atk, err := profiler.Build()
	if err != nil {
		log.Fatal(err)
	}
	// Attack: patients' scans arrive; the insider sees only HPC values.
	cm := attack.NewConfusionMatrix([]int{1, 2, 3, 4})
	for cls, imgs := range pools {
		for i := 0; i < 25; i++ {
			img := imgs[(i*3+1)%len(imgs)]
			prof, err := pmu.MeasureOnce(func() { s.Target.Classify(img) })
			if err != nil {
				log.Fatal(err)
			}
			pred, _ := atk.Classify(prof)
			cm.Record(cls, pred)
		}
	}
	fmt.Printf("\ninsider recovers the diagnosis category of %.0f%% of patients\n", 100*cm.Accuracy())
	fmt.Printf("(random guessing: %.0f%%)\n", 100*cm.ChanceLevel())
	fmt.Println("\naudit verdict: deployment blocked — harden the classifier first")
	fmt.Println("(see examples/hardening for the countermeasures).")
}
