// Command attack runs the end-to-end attack stage: it deploys the trained
// classifier at a chosen defense level, profiles it over the concurrent
// sharded pipeline, fits the Gaussian template and kNN attackers on the
// profiling split, and scores them on held-out attack runs — quantifying
// whether the leakage the Evaluator flags is actually exploitable.
//
// Usage:
//
//	attack -dataset mnist [-defense baseline] [-events base]
//	       [-profile-runs 100] [-attack-runs 60] [-attacker both|template|knn]
//	       [-k 5] [-classes 1,2,3,4] [-workers N] [-seed 1] [-json out.json]
//
// All observations derive from -seed via per-shard seed derivation, so any
// -workers value reproduces byte-identical confusion matrices.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"

	"repro"
	"repro/cmd/internal/cliflags"
	"repro/internal/hpc"
	"repro/internal/report"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("attack: ")
	var (
		dsName      = flag.String("dataset", "mnist", "dataset: mnist or cifar")
		defName     = flag.String("defense", "baseline", "defense level: baseline, dense-execution, constant-time, noise-injection, padded-envelope")
		events      = flag.String("events", "base", "event set (base, fig2b, extended) or comma-separated event list")
		profileRuns = flag.Int("profile-runs", 100, "profiling observations per category (the adversary's training budget)")
		attackRuns  = flag.Int("attack-runs", 60, "held-out observations per category the attackers are scored on")
		attacker    = flag.String("attacker", "both", "attacker to report: both, template or knn")
		k           = flag.Int("k", 5, "kNN neighbourhood size")
		classes     = flag.String("classes", "1,2,3,4", "comma-separated category labels")
		workers     = flag.Int("workers", 0, "pipeline workers; 0 = GOMAXPROCS")
		seed        = flag.Int64("seed", 0, "campaign root seed; 0 = scenario seed")
		jsonPath    = flag.String("json", "", "write the result as JSON to this file")
	)
	tel := cliflags.AddTelemetry(flag.CommandLine, "attack")
	flag.Parse()

	level, err := repro.ParseDefense(*defName)
	if err != nil {
		log.Fatal(err)
	}
	if *attacker != "both" && *attacker != "template" && *attacker != "knn" {
		log.Fatalf("unknown attacker %q (want both, template or knn)", *attacker)
	}
	if *profileRuns < 2 {
		log.Fatalf("-profile-runs %d too small: templates need at least 2 profiling observations per category", *profileRuns)
	}
	if *attackRuns < 1 {
		log.Fatalf("-attack-runs %d too small: need at least 1 held-out observation per category", *attackRuns)
	}
	cls, err := repro.ParseClasses(*classes)
	if err != nil {
		log.Fatal(err)
	}
	evs, err := hpc.ParseEventSpec(*events)
	if err != nil {
		log.Fatal(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	s, err := repro.NewScenario(repro.ScenarioConfig{Dataset: repro.Dataset(*dsName), Defense: level})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("victim: %s, defense %s, test accuracy %.3f\n", *dsName, level, s.TestAccuracy)
	fmt.Printf("profiling %d + attacking %d classifications per category for categories %v (%d events, root seed %d)...\n\n",
		*profileRuns, *attackRuns, cls, len(evs), *seed)

	rec, obsFinish, err := tel.Recorder()
	if err != nil {
		log.Fatal(err)
	}

	res, err := s.Attack(ctx, repro.AttackConfig{
		Classes:     cls,
		Events:      evs,
		ProfileRuns: *profileRuns,
		AttackRuns:  *attackRuns,
		K:           *k,
		Workers:     *workers,
		Seed:        *seed,
		Obs:         rec,
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := obsFinish(); err != nil {
		log.Fatal(err)
	}

	switch *attacker {
	case "both":
		if err := report.AttackSummary(os.Stdout, res); err != nil {
			log.Fatal(err)
		}
	case "template":
		if err := report.Confusion(os.Stdout, "gaussian template attack:", res.Template); err != nil {
			log.Fatal(err)
		}
	case "knn":
		if err := report.Confusion(os.Stdout, fmt.Sprintf("%d-NN attack:", res.K), res.KNN); err != nil {
			log.Fatal(err)
		}
	}
	chance := res.ChanceLevel()
	best := res.Template.Accuracy()
	if res.KNN.Accuracy() > best {
		best = res.KNN.Accuracy()
	}
	fmt.Println()
	switch {
	case best > 2*chance:
		fmt.Printf("verdict: exploitable — best recovery accuracy %.1f%% is over twice chance (%.1f%%)\n", 100*best, 100*chance)
	case best > chance:
		fmt.Printf("verdict: weakly exploitable — best recovery accuracy %.1f%% vs chance %.1f%%\n", 100*best, 100*chance)
	default:
		fmt.Printf("verdict: not exploitable at this budget — best recovery accuracy %.1f%% vs chance %.1f%%\n", 100*best, 100*chance)
	}

	if *jsonPath != "" {
		f, err := os.Create(*jsonPath)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(jsonResult(res)); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("result written to %s\n", *jsonPath)
	}
}

// resultJSON is the wire shape of an AttackResult. Fields are declared
// in the alphabetical key order encoding/json gives sorted map keys, so
// the emitted bytes match the map[string]any encoding this replaced.
type resultJSON struct {
	AttackRuns  int          `json:"attack_runs"`
	Chance      float64      `json:"chance"`
	Classes     []int        `json:"classes"`
	Events      []string     `json:"events"`
	K           int          `json:"k"`
	KNN         attackerJSON `json:"knn"`
	Name        string       `json:"name"`
	ProfileRuns int          `json:"profile_runs"`
	Template    attackerJSON `json:"template"`
}

// attackerJSON is one attacker's accuracy and confusion matrix.
type attackerJSON struct {
	Accuracy float64             `json:"accuracy"`
	Matrix   map[int]map[int]int `json:"matrix"`
}

// jsonResult flattens an AttackResult into a JSON-friendly shape with
// event names instead of internal event ids.
func jsonResult(r *repro.AttackResult) resultJSON {
	names := make([]string, len(r.Events))
	for i, e := range r.Events {
		names[i] = e.String()
	}
	return resultJSON{
		AttackRuns:  r.AttackRuns,
		Chance:      r.ChanceLevel(),
		Classes:     r.Classes,
		Events:      names,
		K:           r.K,
		KNN:         attackerJSON{Accuracy: r.KNN.Accuracy(), Matrix: r.KNN.Matrix},
		Name:        r.Name,
		ProfileRuns: r.ProfileRuns,
		Template:    attackerJSON{Accuracy: r.Template.Accuracy(), Matrix: r.Template.Matrix},
	}
}
