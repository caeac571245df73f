// Command archid runs the architecture-fingerprinting stage: a model zoo
// of candidate architectures is deployed at a chosen defense level, each
// candidate's HPC footprint is profiled over the concurrent sharded
// pipeline, and the template and kNN attackers recover *which architecture
// is running* from held-out observations — the question (CSI-NN) an
// adversary asks before any input-recovery attack.
//
// Usage:
//
//	archid -dataset mnist [-defense baseline] [-events base]
//	       [-profile-runs 40] [-attack-runs 20] [-k 5] [-workers N]
//	       [-seed 1] [-max-inputs 0] [-nopad] [-json out.json]
//
// All observations derive from -seed via per-shard seed derivation, so any
// -workers value reproduces byte-identical confusion matrices. -workers
// also fans out the noise-free per-architecture reference measurements
// (layer evidence, envelope footprints), one architecture per job. Under
// -defense constant-time the deployments are envelope-padded (every
// architecture tops up to the zoo-wide footprint envelope) unless -nopad
// is set; the -nopad ablation shows that per-kernel constant time alone
// does not hide the architecture.
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
	"repro/internal/archid"
	"repro/internal/hpc"
	"repro/internal/nn"
	"repro/internal/report"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("archid: ")
	var (
		dsName      = flag.String("dataset", "mnist", "dataset: mnist or cifar")
		defName     = flag.String("defense", "baseline", "defense level: baseline, dense-execution, constant-time, noise-injection, padded-envelope")
		events      = flag.String("events", "base", "event set (base, fig2b, extended) or comma-separated event list")
		profileRuns = flag.Int("profile-runs", 40, "profiling observations per architecture (the adversary's training budget)")
		attackRuns  = flag.Int("attack-runs", 20, "held-out observations per architecture the attackers are scored on")
		k           = flag.Int("k", 5, "kNN neighbourhood size")
		workers     = flag.Int("workers", 0, "pipeline workers, which also run the per-architecture reference measurements; 0 = GOMAXPROCS; results are byte-identical at any value")
		seed        = flag.Int64("seed", 0, "campaign root seed; 0 = scenario seed")
		maxInputs   = flag.Int("max-inputs", 0, "cap on the shared input pool; 0 = all test images")
		noPad       = flag.Bool("nopad", false, "disable constant-time envelope padding (ablation)")
		jsonPath    = flag.String("json", "", "write the result as JSON to this file")
	)
	tel := cliflags.AddTelemetry(flag.CommandLine, "archid")
	flag.Parse()

	level, err := repro.ParseDefense(*defName)
	if err != nil {
		log.Fatal(err)
	}
	evs, err := hpc.ParseEventSpec(*events)
	if err != nil {
		log.Fatal(err)
	}
	if *profileRuns < 2 {
		log.Fatalf("-profile-runs %d too small: templates need at least 2 profiling observations per architecture", *profileRuns)
	}
	if *attackRuns < 1 {
		log.Fatalf("-attack-runs %d too small: need at least 1 held-out observation per architecture", *attackRuns)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	s, err := repro.NewScenario(repro.ScenarioConfig{Dataset: repro.Dataset(*dsName), Defense: level})
	if err != nil {
		log.Fatal(err)
	}
	zoo, err := s.ArchZoo()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fingerprinting a %d-architecture zoo on %s inputs at defense %s (%d events)...\n\n",
		zoo.Len(), *dsName, level, len(evs))

	rec, obsFinish, err := tel.Recorder()
	if err != nil {
		log.Fatal(err)
	}

	res, err := s.ArchID(ctx, repro.ArchIDConfig{
		Events:      evs,
		ProfileRuns: *profileRuns,
		AttackRuns:  *attackRuns,
		K:           *k,
		Workers:     *workers,
		Seed:        *seed,
		MaxInputs:   *maxInputs,
		NoPad:       *noPad,
		Obs:         rec,
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := obsFinish(); err != nil {
		log.Fatal(err)
	}

	if err := report.ArchIDSummary(os.Stdout, res); err != nil {
		log.Fatal(err)
	}
	chance := res.ChanceLevel()
	best := res.Attack.Template.Accuracy()
	if res.Attack.KNN.Accuracy() > best {
		best = res.Attack.KNN.Accuracy()
	}
	fmt.Println()
	switch {
	case best > 2*chance:
		fmt.Printf("verdict: architecture exposed — best recovery accuracy %.1f%% is over twice chance (%.1f%%)\n", 100*best, 100*chance)
	case best > chance:
		fmt.Printf("verdict: architecture weakly exposed — best recovery accuracy %.1f%% vs chance %.1f%%\n", 100*best, 100*chance)
	default:
		fmt.Printf("verdict: architecture hidden at this budget — best recovery accuracy %.1f%% vs chance %.1f%%\n", 100*best, 100*chance)
	}
	fmt.Printf("(root seed %d reproduces this result at any -workers value)\n", res.Seed)

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

// resultJSON is the wire shape of an ArchIDResult. Fields are declared
// in the alphabetical key order encoding/json gives sorted map keys, so
// the emitted bytes match the map[string]any encoding this replaced;
// the named struct makes the schema explicit and key order a property
// of the type rather than of the encoder's map sort.
type resultJSON struct {
	AttackRuns    int                    `json:"attack_runs"`
	Chance        float64                `json:"chance"`
	Defense       string                 `json:"defense"`
	Events        []string               `json:"events"`
	K             int                    `json:"k"`
	KNN           attackerJSON           `json:"knn"`
	LayerEvidence []archid.LayerEvidence `json:"layer_evidence"`
	Name          string                 `json:"name"`
	Padded        bool                   `json:"padded"`
	ProfileRuns   int                    `json:"profile_runs"`
	Seed          int64                  `json:"seed"`
	Template      attackerJSON           `json:"template"`
	Zoo           []nn.SpecInfo          `json:"zoo"`
}

// attackerJSON is one attacker's accuracy and confusion matrix.
type attackerJSON struct {
	Accuracy float64             `json:"accuracy"`
	Matrix   map[int]map[int]int `json:"matrix"`
}

// jsonResult flattens an ArchIDResult into a JSON-friendly shape with
// event names instead of internal event ids.
func jsonResult(r *repro.ArchIDResult) resultJSON {
	names := make([]string, len(r.Attack.Events))
	for i, e := range r.Attack.Events {
		names[i] = e.String()
	}
	return resultJSON{
		AttackRuns:    r.Attack.AttackRuns,
		Chance:        r.ChanceLevel(),
		Defense:       r.Level.String(),
		Events:        names,
		K:             r.Attack.K,
		KNN:           attackerJSON{Accuracy: r.Attack.KNN.Accuracy(), Matrix: r.Attack.KNN.Matrix},
		LayerEvidence: r.Evidence,
		Name:          r.Attack.Name,
		Padded:        r.Padded,
		ProfileRuns:   r.Attack.ProfileRuns,
		Seed:          r.Seed,
		Template:      attackerJSON{Accuracy: r.Attack.Template.Accuracy(), Matrix: r.Attack.Template.Matrix},
		Zoo:           r.Specs,
	}
}
