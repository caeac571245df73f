// Package hpc models the Hardware Performance Counter interface the
// paper's Evaluator uses: a Performance Monitoring Unit (PMU) with a small
// number of programmable counter registers, perf-style event multiplexing
// with scaling when more events are requested than registers exist, and a
// `perf stat`-style formatter (including the Indian digit grouping shown in
// the paper's Figure 2(b)).
//
// The paper notes that Linux perf is "limited to observing a maximum of 6
// to 8 hardware events in parallel because of the restrictions in the
// number of built-in HPC registers"; this package reproduces exactly that
// constraint and the time-slice multiplexing perf uses to work around it.
package hpc

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/march"
)

// DefaultCounters is the number of programmable HPC registers, matching
// the paper's "6 to 8" observation (we model 6 programmable counters).
const DefaultCounters = 6

// Profile maps events to counted (and possibly scaled) values for one
// measurement interval — the per-classification observation the Evaluator
// collects.
type Profile map[march.Event]float64

// Get returns the profile value for an event (0 when absent).
func (p Profile) Get(e march.Event) float64 { return p[e] }

// Events returns the profiled events in canonical (alphabetical) order.
func (p Profile) Events() []march.Event {
	evs := make([]march.Event, 0, len(p))
	for e := range p {
		evs = append(evs, e)
	}
	sort.Slice(evs, func(i, j int) bool { return evs[i].String() < evs[j].String() })
	return evs
}

// PMU is a simulated Performance Monitoring Unit bound to one engine. It
// schedules requested events onto a limited set of counter registers,
// rotating groups in round-robin time slices like perf, and scales counts
// by enabled/running time.
//
// The measure path is allocation-free in steady state: per-event scratch
// lives in fixed arrays on the PMU, and the *Into variants write results
// into a caller-provided Profile, so campaign loops (the pipeline's shard
// workers) can reuse one Profile across thousands of measurements.
type PMU struct {
	engine    *march.Engine
	registers int
	events    []march.Event
	groups    [][]march.Event
	// programmed[e] tracks the current event selection so reused Profiles
	// can be scrubbed of keys left over from a previous programming.
	programmed [march.NumEvents]bool
	// Scratch reused across Measure calls (indexed by event id).
	raw     [march.NumEvents]float64
	enabled [march.NumEvents]int
}

// NewPMU creates a PMU with the given number of programmable registers
// (DefaultCounters when 0).
func NewPMU(engine *march.Engine, registers int) (*PMU, error) {
	if engine == nil {
		return nil, fmt.Errorf("hpc: PMU needs an engine")
	}
	if registers <= 0 {
		registers = DefaultCounters
	}
	return &PMU{engine: engine, registers: registers}, nil
}

// Registers returns the number of programmable counters.
func (p *PMU) Registers() int { return p.registers }

// Program selects the events to monitor. Duplicate events are rejected.
// When more events than registers are requested, the PMU splits them into
// round-robin groups (multiplexing).
func (p *PMU) Program(events ...march.Event) error {
	if len(events) == 0 {
		return fmt.Errorf("hpc: no events requested")
	}
	seen := map[march.Event]bool{}
	for _, e := range events {
		if int(e) < 0 || int(e) >= march.NumEvents {
			return fmt.Errorf("hpc: invalid event %d", int(e))
		}
		if seen[e] {
			return fmt.Errorf("hpc: duplicate event %s", e)
		}
		seen[e] = true
	}
	p.events = append([]march.Event(nil), events...)
	p.programmed = [march.NumEvents]bool{}
	for _, e := range events {
		p.programmed[e] = true
	}
	p.groups = p.groups[:0]
	for i := 0; i < len(events); i += p.registers {
		end := i + p.registers
		if end > len(events) {
			end = len(events)
		}
		p.groups = append(p.groups, events[i:end])
	}
	return nil
}

// Multiplexed reports whether the current programming requires rotation.
func (p *PMU) Multiplexed() bool { return len(p.groups) > 1 }

// Measure runs workload under observation and returns a Profile.
//
// Without multiplexing, every event is counted for the whole run. With
// multiplexing, the workload must be divisible into slices: the PMU calls
// workload repeatedly with the slice index (0..slices-1), rotating one
// event group per slice, and scales each event's observed count by
// total-slices/enabled-slices — exactly perf's enabled/running scaling.
// slices must be ≥ the number of groups; pass 1 plus a single-call
// workload when not multiplexed.
func (p *PMU) Measure(slices int, workload func(slice int)) (Profile, error) {
	prof := make(Profile, len(p.events))
	if err := p.MeasureInto(prof, slices, workload); err != nil {
		return nil, err
	}
	return prof, nil
}

// MeasureInto is Measure writing the result into a caller-provided
// Profile. After the first call with a given programming, re-using the
// same Profile makes the measure path allocation-free (the keys already
// exist; values are overwritten).
//
//detlint:allocpath
func (p *PMU) MeasureInto(prof Profile, slices int, workload func(slice int)) error {
	if len(p.events) == 0 {
		return fmt.Errorf("hpc: Measure before Program")
	}
	if slices <= 0 {
		return fmt.Errorf("hpc: slices must be positive, got %d", slices)
	}
	if len(p.groups) > 1 && slices < len(p.groups) {
		return fmt.Errorf("hpc: %d slices cannot rotate %d multiplex groups", slices, len(p.groups))
	}
	for _, e := range p.events {
		p.raw[e] = 0
		p.enabled[e] = 0
	}
	for s := 0; s < slices; s++ {
		group := p.groups[s%len(p.groups)]
		start := p.engine.Counts()
		workload(s)
		end := p.engine.Counts()
		delta := end.Sub(start)
		for _, e := range group {
			p.raw[e] += float64(delta.Get(e))
			p.enabled[e]++
		}
	}
	for _, e := range p.events {
		n := p.enabled[e]
		if n == 0 {
			return fmt.Errorf("hpc: event %s never scheduled (slices=%d, groups=%d)", e, slices, len(p.groups))
		}
		prof[e] = p.raw[e] * float64(slices) / float64(n)
	}
	p.scrubStale(prof)
	p.applyNoise(prof)
	return nil
}

// scrubStale deletes Profile keys that are not part of the current
// programming. A Profile reused across Program calls with different event
// sets would otherwise keep the previous programming's counts — and
// Profile.Events() / attacker feature vectors would silently include them.
//
// It must be called *after* the measure loop has written every programmed
// event, so prof is a superset of the programmed set and the length check
// alone decides whether stale keys exist: the steady-state path (same
// Profile, unchanged programming) costs one comparison and no map
// iteration, keeping the measure hot path at its 0-alloc nanosecond
// budget. The delete loop itself is allocation-free.
//
//detlint:allocpath
func (p *PMU) scrubStale(prof Profile) {
	if len(prof) == len(p.events) {
		return
	}
	for e := range prof {
		if int(e) < 0 || int(e) >= march.NumEvents || !p.programmed[e] {
			delete(prof, e)
		}
	}
}

// applyNoise applies measurement noise once per interval, mirroring a real
// system where the reading itself is jittered.
//
//detlint:allocpath
func (p *PMU) applyNoise(prof Profile) {
	noise := p.engine.Noise()
	if noise == nil {
		return
	}
	var c march.Counts
	for _, e := range p.events {
		c[e] = uint64(prof[e])
	}
	noise.Apply(&c)
	for _, e := range p.events {
		prof[e] = float64(c.Get(e))
	}
}

// MeasureOnce is the common single-interval form: it observes one call of
// workload with no multiplex rotation error when enough registers exist.
func (p *PMU) MeasureOnce(workload func()) (Profile, error) {
	prof := make(Profile, len(p.events))
	if err := p.MeasureOnceInto(prof, workload); err != nil {
		return nil, err
	}
	return prof, nil
}

// MeasureOnceInto is MeasureOnce writing into a caller-provided Profile —
// the zero-allocation steady-state form the collection pipeline uses (one
// Profile reused across a shard's runs). The observed counts are identical
// to MeasureOnce's: a single interval needs no multiplex scaling.
//
//detlint:allocpath
func (p *PMU) MeasureOnceInto(prof Profile, workload func()) error {
	if len(p.events) == 0 {
		return fmt.Errorf("hpc: Measure before Program")
	}
	if len(p.groups) > 1 {
		return fmt.Errorf("hpc: %d events exceed %d registers; use Measure with ≥%d slices",
			len(p.events), p.registers, len(p.groups))
	}
	start := p.engine.Counts()
	workload()
	end := p.engine.Counts()
	delta := end.Sub(start)
	for _, e := range p.events {
		prof[e] = float64(delta.Get(e))
	}
	p.scrubStale(prof)
	p.applyNoise(prof)
	return nil
}

// FormatIndian renders n with Indian digit grouping (last three digits,
// then groups of two), the format visible in the paper's Figure 2(b):
// 2,26,77,01,129.
func FormatIndian(n uint64) string {
	s := fmt.Sprintf("%d", n)
	if len(s) <= 3 {
		return s
	}
	head := s[:len(s)-3]
	tail := s[len(s)-3:]
	var groups []string
	for len(head) > 2 {
		groups = append([]string{head[len(head)-2:]}, groups...)
		head = head[:len(head)-2]
	}
	if head != "" {
		groups = append([]string{head}, groups...)
	}
	return strings.Join(groups, ",") + "," + tail
}

// FormatStat renders a Profile in `perf stat` style, one event per line,
// right-aligned Indian-grouped counts — reproducing Figure 2(b).
func FormatStat(p Profile) string {
	type row struct {
		count string
		name  string
	}
	var rows []row
	width := 0
	for _, e := range p.Events() {
		c := FormatIndian(uint64(p[e]))
		if len(c) > width {
			width = len(c)
		}
		rows = append(rows, row{count: c, name: e.String()})
	}
	var b strings.Builder
	for _, r := range rows {
		fmt.Fprintf(&b, "%*s      %s\n", width, r.count, r.name)
	}
	return b.String()
}

// ParseEventList parses a perf-style comma-separated event list
// ("cache-misses,branches"). An event listed twice is an error.
func ParseEventList(s string) ([]march.Event, error) {
	if strings.TrimSpace(s) == "" {
		return nil, fmt.Errorf("hpc: empty event list")
	}
	var out []march.Event
	for _, name := range strings.Split(s, ",") {
		e, err := march.ParseEvent(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		if slices.Contains(out, e) {
			return nil, fmt.Errorf("hpc: event %s listed twice", e)
		}
		out = append(out, e)
	}
	return out, nil
}

// ParseEventSpec resolves either a named event set or a perf-style comma
// list. Named sets:
//
//	base     — cache-misses and branches (the paper's Tables 1 and 2)
//	fig2b    — the eight events of Figure 2(b)
//	extended — every modeled event, including per-level cache/TLB events
func ParseEventSpec(s string) ([]march.Event, error) {
	switch strings.TrimSpace(s) {
	case "base":
		return march.BaseEvents(), nil
	case "fig2b":
		return march.AllEvents(), nil
	case "extended":
		return march.ExtendedEvents(), nil
	default:
		return ParseEventList(s)
	}
}
