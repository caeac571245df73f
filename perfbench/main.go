// Command perfbench is the repository benchmark. One invocation builds an
// MNIST scenario, runs one workload's campaign through the public repro
// API as a closed loop (the next campaign starts when the previous one
// returns), checks every campaign's output against a reference digest and
// prints its metrics by name with their units. The last line of standard
// output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// With --trace 0 it reports the end-to-end metrics of untraced
// campaigns; with --trace 1 it runs one untraced and one traced campaign
// and reports the per-layer breakdown of the traced one. Build and run it
// through run.sh from the repository root:
//
//	bash perfbench/run.sh --workload audit-mnist --seed 1 --seconds 10 --trace 0
package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"

	"repro"
	"repro/internal/core"
)

type options struct {
	workload  string
	seed      int64
	seconds   int
	trace     int
	workerBin string
	// record, "FIRST-LAST", prints the reference digests of those seeds
	// in refs.json form instead of running a workload.
	record string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed (>= 0); the scenario and campaign seeds derive from it")
	flag.IntVar(&o.seconds, "seconds", 10, "how long the untraced closed loop keeps starting rounds of campaigns")
	flag.IntVar(&o.trace, "trace", 0, "0 reports end-to-end metrics, 1 the traced per-layer breakdown")
	flag.StringVar(&o.workerBin, "worker-bin", "", "shardworker binary for the fabric workload")
	flag.StringVar(&o.record, "record-refs", "", "print the reference digests of seeds FIRST-LAST in refs.json form and exit")
	flag.Parse()
	if o.record != "" {
		if err := recordRefs(context.Background(), o.record, os.Stdout); err != nil {
			fatal(err)
		}
		return
	}
	refs, err := loadRefs(recordedRefs)
	if err != nil {
		fatal(err)
	}
	res, err := run(context.Background(), o, fullSize, refs, os.Stderr)
	if err != nil {
		fatal(err)
	}
	if err := res.write(os.Stdout); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// unitSeed is the i-th of the workload seed's unit seeds, one per
// scenario. Hashing spreads them: networks trained from consecutive
// seeds were not independent samples of a campaign's cost (one block of
// six ran 34% slower than another, interleaved in one process). The
// result is below 2^61, so the derived seeds cannot overflow.
func unitSeed(seed int64, i int) int64 { return core.DeriveSeed(seed, i, 0) >> 2 }

// scenarioSeed and rootSeed derive a scenario's seed and its campaign
// root seed from its unit seed; both are nonzero for unit >= 0 (zero
// would select repro's defaults).
func scenarioSeed(unit int64) int64 { return 2*unit + 1 }
func rootSeed(unit int64) int64     { return 2*unit + 2 }

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one invocation's report.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	workload, work string
	// notes annotate metrics in the human-readable lines (tail
	// percentiles and their sample counts).
	notes map[string]string
}

func (r *result) set(name string, v float64, unit string) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

func (r *result) note(name, format string, args ...any) {
	r.notes[name] = fmt.Sprintf(format, args...)
}

// write prints one line per metric, then the JSON result line.
func (r *result) write(w io.Writer) error {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "workload %s: %s\n", r.workload, r.work)
	for _, n := range names {
		m := r.Metrics[n]
		line := fmt.Sprintf("%-34s %14s %s", n, strconv.FormatFloat(m.Value, 'g', 6, 64), m.Unit)
		if note := r.notes[n]; note != "" {
			line += "  (" + note + ")"
		}
		fmt.Fprintln(w, line)
	}
	fmt.Fprintf(w, "campaigns %d attempted, %d failed\n", r.Attempted, r.Failed)
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// refTable maps a reference key and unit seed to the digest of the
// campaign's reference output at the full size.
type refTable map[string]map[int64]string

//go:embed refs.json
var recordedRefs []byte

func loadRefs(b []byte) (refTable, error) {
	var raw map[string]map[string]string
	if err := json.Unmarshal(b, &raw); err != nil {
		return nil, fmt.Errorf("reading recorded references: %w", err)
	}
	t := refTable{}
	for key, bySeed := range raw {
		t[key] = map[int64]string{}
		for s, d := range bySeed {
			seed, err := strconv.ParseInt(s, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("recorded references: bad seed %q: %w", s, err)
			}
			t[key][seed] = d
		}
	}
	return t, nil
}

// reference returns the digest the workload's output on e must match:
// the recorded one for a unit seed the benchmark has run before,
// otherwise one computed now from the workers=1 reference execution.
func reference(ctx context.Context, w workload, e *env, refs refTable) (string, error) {
	if d, ok := refs[w.refKey][e.unit]; ok {
		return d, nil
	}
	out, err := w.reference(ctx, e)
	if err != nil {
		return "", fmt.Errorf("reference execution: %w", err)
	}
	return digest(out), nil
}

// recordRefs computes the full-size reference digest of every reference
// key for the unit seeds of the workload seeds in span ("FIRST-LAST") and
// writes them as refs.json.
func recordRefs(ctx context.Context, span string, w io.Writer) error {
	var first, last int64
	if _, err := fmt.Sscanf(span, "%d-%d", &first, &last); err != nil || first < 0 || last < first {
		return fmt.Errorf("--record-refs wants FIRST-LAST with 0 <= FIRST <= LAST, got %q", span)
	}
	out := map[string]map[string]string{}
	for _, wl := range workloads {
		if out[wl.refKey] == nil {
			out[wl.refKey] = map[string]string{}
		}
		for seed := first; seed <= last; seed++ {
			for i := 0; i < wl.scenarios; i++ {
				unit := unitSeed(seed, i)
				if _, ok := out[wl.refKey][strconv.FormatInt(unit, 10)]; ok {
					continue
				}
				s, err := repro.NewScenario(scenarioConfig(fullSize, wl, unit))
				if err != nil {
					return err
				}
				b, err := wl.reference(ctx, &env{s: s, unit: unit, root: rootSeed(unit), size: fullSize})
				if err != nil {
					return fmt.Errorf("%s unit seed %d: %w", wl.name, unit, err)
				}
				out[wl.refKey][strconv.FormatInt(unit, 10)] = digest(b)
			}
		}
	}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// scenarioConfig is the scenario workload w deploys for a unit seed.
func scenarioConfig(sz size, w workload, unit int64) repro.ScenarioConfig {
	cfg := sz.scenario
	cfg.Dataset = repro.DatasetMNIST
	cfg.Seed = scenarioSeed(unit)
	cfg.Defense = w.defense
	return cfg
}

// run validates the options and runs one invocation. Campaign failures
// are counted in the result; only a failure to set up the run is an
// error. log receives per-campaign failure details.
func run(ctx context.Context, o options, sz size, refs refTable, log io.Writer) (*result, error) {
	w, err := findWorkload(o.workload)
	if err != nil {
		return nil, err
	}
	switch {
	case o.seed < 0:
		return nil, fmt.Errorf("--seed must be >= 0, got %d", o.seed)
	case o.seconds < 0:
		return nil, fmt.Errorf("--seconds must be >= 0, got %d", o.seconds)
	case o.trace != 0 && o.trace != 1:
		return nil, fmt.Errorf("--trace must be 0 or 1, got %d", o.trace)
	case o.workerBin == "":
		return nil, errors.New("--worker-bin is required (run.sh builds and passes it)")
	}
	if _, err := os.Stat(o.workerBin); err != nil {
		return nil, fmt.Errorf("shardworker binary: %w", err)
	}
	base := env{size: sz, workerBin: o.workerBin}
	res := &result{Metrics: map[string]metric{}, notes: map[string]string{}, workload: w.name, work: w.work(sz)}
	if o.trace == 1 {
		err = runTraced(ctx, w, base, o.seed, refs, res, log)
	} else {
		err = runUntraced(ctx, w, base, o.seed, o.seconds, refs, res, log)
	}
	if err != nil {
		return nil, err
	}
	res.Correct = res.Failed == 0
	return res, nil
}
