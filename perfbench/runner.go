package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"runtime"
	"time"

	"repro"
)

// minRounds is the fewest rounds an untraced run measures, however short
// --seconds is, so that every scenario's median has two samples.
const minRounds = 2

// runUntraced measures the end-to-end metrics. It builds one scenario per
// unit seed (setup_s is the median build), then runs rounds of one
// campaign per scenario until --seconds have passed. campaign_s and
// cpu_s average each scenario's median campaign, so that every trained
// network weighs the same. Every campaign is checked against its
// scenario's reference, which is computed after the timed loop and after
// the peak-memory reading, so neither sees it.
func runUntraced(ctx context.Context, w workload, base env, seed int64, secs int, refs refTable, res *result, log io.Writer) error {
	envs := make([]*env, w.scenarios)
	var setups []float64
	for i := range envs {
		e := base
		e.unit = unitSeed(seed, i)
		e.root = rootSeed(e.unit)
		runtime.GC()
		start := time.Now()
		s, err := repro.NewScenario(scenarioConfig(base.size, w, e.unit))
		if err != nil {
			return fmt.Errorf("setting up the scenario: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		e.s = s
		envs[i] = &e
	}

	walls := make([][]float64, len(envs))
	cpus := make([][]float64, len(envs))
	digests := make([][]string, len(envs)) // "" for a campaign that returned an error
	// measure runs one campaign on scenario i, records its output digest
	// and reports its wall and CPU seconds; ok is false on an error.
	measure := func(i int) (wall, cpu float64, ok bool) {
		runtime.GC()
		cpu0, start := cpuSeconds(), time.Now()
		out, err := w.campaign(ctx, envs[i])
		wall, cpu = time.Since(start).Seconds(), cpuSeconds()-cpu0
		if err != nil {
			fmt.Fprintf(log, "perfbench: unit seed %d campaign failed: %v\n", envs[i].unit, err)
			digests[i] = append(digests[i], "")
			return 0, 0, false
		}
		digests[i] = append(digests[i], digest(out))
		return wall, cpu, true
	}
	// A process's first campaign ran about 1.5x slower than the rest in a
	// probe (heap growth; for the fabric, the first worker exec), so one
	// untimed warm-up campaign absorbs it. Its output is checked too.
	measure(0)
	deadline := time.Now().Add(time.Duration(secs) * time.Second)
	for round := 0; round < minRounds || time.Now().Before(deadline); round++ {
		for i := range envs {
			if wall, cpu, ok := measure(i); ok {
				walls[i], cpus[i] = append(walls[i], wall), append(cpus[i], cpu)
			}
		}
	}
	self, kids := peakRSSMB()

	for i, e := range envs {
		want, err := reference(ctx, w, e, refs)
		if err != nil {
			return err
		}
		for _, d := range digests[i] {
			res.Attempted++
			if d != want {
				res.Failed++
				if d != "" {
					fmt.Fprintf(log, "perfbench: unit seed %d output digest %s, want %s\n", e.unit, d, want)
				}
			}
		}
	}

	campaign, cpu := meanOfMedians(walls), meanOfMedians(cpus)
	res.set("setup_s", median(setups), "s")
	res.set("campaign_s", campaign, "s")
	res.set("cpu_s", cpu, "s")
	res.set("peak_rss_mb", math.Max(self, kids), "MB")
	res.note("setup_s", "median of %d scenario builds %s", len(setups), spread(setups))
	res.note("campaign_s", "mean over %d scenarios of their median campaign, %d timed campaigns", len(envs), res.Attempted-1)
	res.note("cpu_s", "as campaign_s; process + reaped shardworkers")
	res.note("peak_rss_mb", "process %.1f MB, largest child %.1f MB", self, kids)
	return nil
}
