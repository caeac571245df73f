// Command topo runs the topology-recovery stage: attacker models
// (segmenter, per-segment kind classifier, hyper-parameter estimators)
// are fitted on a training zoo of random architectures, then a disjoint
// held-out zoo of victims — architectures the attacker has never profiled
// — is reconstructed layer-by-layer from the flat side-channel trace and
// validated against measured pipeline profiles. This is the CSI-NN-style
// full reverse engineering the archid stage's zoo lookup stops short of.
//
// Usage:
//
//	topo -dataset mnist [-defense baseline] [-events instructions,L1-dcache-loads]
//	     [-train-zoo 8] [-holdout 6] [-runs 8] [-quantum 5000]
//	     [-workers N] [-seed 1] [-max-inputs 0] [-json out.json]
//
// All observations derive from -seed via per-shard seed derivation, so
// any -workers value reproduces byte-identical results. -workers also
// fans out the noise-free per-network reference measurements (both
// zoos' traces, envelope footprints, the rebuilt victims' footprint
// checks), one network per job. Under -defense
// padded-envelope every victim is padded to the holdout zoo's footprint
// envelope and the reconstruction collapses to chance.
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
	"repro/internal/nn"
	"repro/internal/report"
	"repro/internal/topo"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("topo: ")
	var (
		dsName    = flag.String("dataset", "mnist", "dataset: mnist or cifar")
		defName   = flag.String("defense", "baseline", "defense level: baseline, dense-execution, constant-time, noise-injection, padded-envelope")
		events    = flag.String("events", "instructions,L1-dcache-loads", "event set (base, fig2b, extended) or comma-separated event list")
		trainZoo  = flag.Int("train-zoo", 8, "training-zoo size (architectures the attacker profiles)")
		holdout   = flag.Int("holdout", 6, "held-out victim count (never-profiled architectures)")
		runs      = flag.Int("runs", 8, "measured pipeline observations per victim")
		quantum   = flag.Uint64("quantum", 0, "trace-sampling quantum in instructions; 0 = default")
		workers   = flag.Int("workers", 0, "pipeline workers, which also run the per-network reference traces and footprint checks; 0 = GOMAXPROCS; results are byte-identical at any value")
		seed      = flag.Int64("seed", 0, "campaign root seed; 0 = scenario seed")
		maxInputs = flag.Int("max-inputs", 0, "cap on the shared input pool; 0 = all test images")
		jsonPath  = flag.String("json", "", "write the result as JSON to this file")
	)
	tel := cliflags.AddTelemetry(flag.CommandLine, "topo")
	flag.Parse()

	level, err := repro.ParseDefense(*defName)
	if err != nil {
		log.Fatal(err)
	}
	evs, err := hpc.ParseEventSpec(*events)
	if err != nil {
		log.Fatal(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	s, err := repro.NewScenario(repro.ScenarioConfig{Dataset: repro.Dataset(*dsName)})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("reconstructing %d held-out architectures (training zoo %d) on %s inputs at defense %s...\n\n",
		*holdout, *trainZoo, *dsName, level)

	rec, obsFinish, err := tel.Recorder()
	if err != nil {
		log.Fatal(err)
	}

	res, err := s.TopoGrouped(ctx, level, repro.TopoConfig{
		Events:    evs,
		TrainZoo:  *trainZoo,
		Holdout:   *holdout,
		Runs:      *runs,
		Quantum:   *quantum,
		Workers:   *workers,
		Seed:      *seed,
		MaxInputs: *maxInputs,
		Obs:       rec,
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := obsFinish(); err != nil {
		log.Fatal(err)
	}

	if err := report.TopoSummary(os.Stdout, res); err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	switch {
	case res.ExactCountRate >= 0.9 && res.MeanKindAccuracy >= 0.9:
		fmt.Printf("verdict: architecture reconstructable — %.0f%% exact layer counts, %.0f%% layer kinds on never-profiled victims\n",
			100*res.ExactCountRate, 100*res.MeanKindAccuracy)
	case res.MeanKindAccuracy > 1.5*res.ChanceKind:
		fmt.Printf("verdict: architecture partially reconstructable — %.0f%% layer kinds vs %.0f%% chance\n",
			100*res.MeanKindAccuracy, 100*res.ChanceKind)
	default:
		fmt.Printf("verdict: architecture hidden — layer-kind recovery %.0f%% is within 1.5x of chance (%.0f%%)\n",
			100*res.MeanKindAccuracy, 100*res.ChanceKind)
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

// resultJSON is the wire shape of a TopoResult. Fields are declared in
// the alphabetical key order encoding/json gives sorted map keys, so
// the emitted bytes match the map[string]any encoding this replaced.
type resultJSON struct {
	ChanceKind          float64             `json:"chance_kind"`
	Defense             string              `json:"defense"`
	Events              []string            `json:"events"`
	ExactCountRate      float64             `json:"exact_count_rate"`
	HoldoutZoo          []nn.SpecInfo       `json:"holdout_zoo"`
	Kinds               []string            `json:"kinds"`
	MeanFootprintRelErr float64             `json:"mean_footprint_rel_err"`
	MeanKindAccuracy    float64             `json:"mean_kind_accuracy"`
	MeanParamRelErr     float64             `json:"mean_param_rel_err"`
	Name                string              `json:"name"`
	Padded              bool                `json:"padded"`
	Quantum             uint64              `json:"quantum"`
	Seed                int64               `json:"seed"`
	TrainZoo            []nn.SpecInfo       `json:"train_zoo"`
	Victims             []topo.VictimResult `json:"victims"`
}

// jsonResult flattens a TopoResult into a JSON-friendly shape with event
// names instead of internal event ids.
func jsonResult(r *repro.TopoResult) resultJSON {
	names := make([]string, len(r.Events))
	for i, e := range r.Events {
		names[i] = e.String()
	}
	return resultJSON{
		ChanceKind:          r.ChanceKind,
		Defense:             r.Level.String(),
		Events:              names,
		ExactCountRate:      r.ExactCountRate,
		HoldoutZoo:          r.HoldoutSpecs,
		Kinds:               r.Kinds,
		MeanFootprintRelErr: r.MeanFootprintRelErr,
		MeanKindAccuracy:    r.MeanKindAccuracy,
		MeanParamRelErr:     r.MeanParamRelErr,
		Name:                r.Name,
		Padded:              r.Padded,
		Quantum:             r.Quantum,
		Seed:                r.Seed,
		TrainZoo:            r.TrainSpecs,
		Victims:             r.Victims,
	}
}
