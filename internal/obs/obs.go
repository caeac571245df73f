// Package obs is the repo's determinism-safe observability layer: spans,
// monotonic counters and progress state for campaign telemetry, with a
// JSONL event log and a Chrome trace_event exporter (export.go).
//
// The entire package is built around one invariant: telemetry is
// observational *output*, never an input. No campaign byte may ever
// derive from a Recorder — reports with obs on are byte-identical to
// reports with obs off. Three design rules enforce that:
//
//   - every Recorder method is nil-receiver-safe and a no-op on nil, so
//     instrumented packages hook unconditionally and the hooks cost one
//     predictable branch (and zero allocations) when telemetry is off;
//   - wall-clock reads live only here, behind the injectable Clock — the
//     deterministic packages never import "time" for clocks, and detlint's
//     seedpurity analyzer treats this package as the sole sanctioned
//     clock owner;
//   - recorded values (timestamps, durations, byte counts) flow out to
//     exporters and HTTP endpoints, never back into collection, merging
//     or testing.
//
// Granularity: stages (plan → collect → test, fabric dispatch, monitor
// stream) are spans; per-shard execution is a span per shard with the
// worker index as the trace TID, so shard-level parallelism across
// goroutines and OS processes is visible in one timeline; hot paths
// (engine loads/stores, measured profiles, cut windows) are counters only — a
// counter add is one atomic instruction, cheap enough for paths the
// allocgate pins at 0 allocs/op.
package obs

import (
	"io"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Clock is the injectable time source. Production recorders use
// SystemClock; tests inject fakes so exported telemetry is reproducible.
type Clock interface {
	Now() time.Time
}

type systemClock struct{}

func (systemClock) Now() time.Time { return time.Now() }

// SystemClock returns the wall clock.
func SystemClock() Clock { return systemClock{} }

// Counter identifies one monotonic campaign counter. The fixed enum (not
// arbitrary strings) is what makes counter adds allocation-free and the
// /metrics export order deterministic.
type Counter int

// The campaign counters, in export order.
const (
	// CShardsPlanned / CShardsDone track campaign progress.
	CShardsPlanned Counter = iota
	CShardsDone
	// CShardsDispatched counts shards handed to fabric workers (journal
	// skips excluded); CJournalSkips / CJournalAppends track the
	// completion journal.
	CShardsDispatched
	CJournalSkips
	CJournalAppends
	// Wire traffic of the fabric coordinator, both directions.
	CFramesSent
	CFramesReceived
	CBytesSent
	CBytesReceived
	// Stream/collection volume.
	CWindowsEmitted
	CProfilesCollected
	// Simulated-engine hot-path volume (see HotCounters).
	CEngineLoads
	CEngineStores
	// CWorkerExits counts fabric worker processes that have exited.
	CWorkerExits

	numCounters
)

// counterNames are the /metrics and JSONL identifiers, indexed by Counter.
var counterNames = [numCounters]string{
	"shards_planned",
	"shards_done",
	"shards_dispatched",
	"journal_skips",
	"journal_appends",
	"frames_sent",
	"frames_received",
	"bytes_sent",
	"bytes_received",
	"windows_emitted",
	"profiles_collected",
	"engine_loads",
	"engine_stores",
	"worker_exits",
}

// String implements fmt.Stringer.
func (c Counter) String() string {
	if c < 0 || c >= numCounters {
		return "counter(" + strconv.Itoa(int(c)) + ")"
	}
	return counterNames[c]
}

// AllCounters returns every counter in export order.
func AllCounters() []Counter {
	out := make([]Counter, numCounters)
	for i := range out {
		out[i] = Counter(i)
	}
	return out
}

// Event is one recorded telemetry event: a completed span (Ph "X", with
// a duration) or an instant mark (Ph "i"). Timestamps are microseconds
// since the Unix epoch, the trace_event convention, so spans recorded by
// different OS processes land on one consistent timeline.
type Event struct {
	TS   int64  `json:"ts"`
	Dur  int64  `json:"dur,omitempty"`
	Ph   string `json:"ph"`
	Cat  string `json:"cat,omitempty"`
	Name string `json:"name"`
	PID  int    `json:"pid"`
	TID  int    `json:"tid"`
	// Shard and Class carry shard-span identity (0 values are omitted —
	// shard spans always set Shard+1 via the exporter-facing helpers, so
	// "shard 0" survives the round trip).
	Shard int `json:"shard,omitempty"`
	Class int `json:"class,omitempty"`
	// Extra is free-form annotation (worker exit status, truncation
	// notices).
	Extra string `json:"extra,omitempty"`
}

// Config configures a Recorder.
type Config struct {
	// Clock is the time source; nil uses SystemClock.
	Clock Clock
	// Label names the recording process/campaign in exports.
	Label string
	// JSONL, when non-nil, additionally receives every event as one JSON
	// line the moment it is recorded (the streaming event log). Writes
	// are serialized by the recorder.
	JSONL io.Writer
}

// Recorder accumulates spans, marks and counters for one campaign. The
// nil *Recorder is the valid, allocation-free no-op recorder every
// instrumented package defaults to.
type Recorder struct {
	clock Clock
	pid   int
	label string
	start time.Time

	counters [numCounters]int64 // atomic

	mu       sync.Mutex
	phase    string
	events   []Event
	jsonl    io.Writer
	jsonlErr error
}

// New builds a recorder. The process id is read here — the one sanctioned
// place — so fabric worker spans keep their own PID on the shared
// timeline.
func New(cfg Config) *Recorder {
	clock := cfg.Clock
	if clock == nil {
		clock = SystemClock()
	}
	return &Recorder{
		clock: clock,
		pid:   os.Getpid(),
		label: cfg.Label,
		start: clock.Now(),
		jsonl: cfg.JSONL,
	}
}

// Clock returns the recorder's time source; a nil recorder returns the
// system clock, so display-only timestamps (sweep WallMS, audit-server
// submission times) route through obs whether or not telemetry is armed.
func (r *Recorder) Clock() Clock {
	if r == nil || r.clock == nil {
		return SystemClock()
	}
	return r.clock
}

// Add increments a counter. One atomic add; safe on the allocgate-pinned
// hot paths at any recorder state.
func (r *Recorder) Add(c Counter, n int64) {
	if r == nil || c < 0 || c >= numCounters {
		return
	}
	atomic.AddInt64(&r.counters[c], n)
}

// Get reads a counter (0 for nil recorders).
func (r *Recorder) Get(c Counter) int64 {
	if r == nil || c < 0 || c >= numCounters {
		return 0
	}
	return atomic.LoadInt64(&r.counters[c])
}

// SetPhase records the campaign's current stage for progress reporting.
func (r *Recorder) SetPhase(phase string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.phase = phase
	r.mu.Unlock()
}

// Phase returns the current stage ("" for nil).
func (r *Recorder) Phase() string {
	if r == nil {
		return ""
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.phase
}

// ElapsedMS is the wall-clock age of the recorder in milliseconds.
func (r *Recorder) ElapsedMS() int64 {
	if r == nil {
		return 0
	}
	return r.clock.Now().Sub(r.start).Milliseconds()
}

// Span opens a span on TID 0. End records it.
func (r *Recorder) Span(cat, name string) *Span { return r.SpanT(0, cat, name) }

// SpanT opens a span on an explicit TID (worker index, fabric process
// slot). A nil recorder returns a nil span whose End is a no-op.
func (r *Recorder) SpanT(tid int, cat, name string) *Span {
	if r == nil {
		return nil
	}
	return &Span{r: r, e: Event{Ph: "X", Cat: cat, Name: name, TID: tid}, start: r.clock.Now()}
}

// ShardSpan opens a span for one shard's execution, carrying the shard
// identity into the trace without formatting costs at nil recorders.
func (r *Recorder) ShardSpan(tid, shard, class int) *Span {
	if r == nil {
		return nil
	}
	s := r.SpanT(tid, "shard", "shard "+strconv.Itoa(shard))
	s.e.Shard = shard + 1
	s.e.Class = class
	return s
}

// MarkExtra records an instant event with a TID and free-form annotation.
func (r *Recorder) MarkExtra(tid int, cat, name, extra string) {
	if r == nil {
		return
	}
	r.emit(Event{TS: r.clock.Now().UnixMicro(), Ph: "i", Cat: cat, Name: name, TID: tid, Extra: extra})
}

// emit stamps the recorder's PID, appends the event, and streams it to
// the JSONL log when configured.
func (r *Recorder) emit(e Event) {
	e.PID = r.pid
	r.mu.Lock()
	r.events = append(r.events, e)
	if r.jsonl != nil && r.jsonlErr == nil {
		r.jsonlErr = writeJSONLine(r.jsonl, e)
	}
	r.mu.Unlock()
}

// ingest appends foreign events (fabric worker telemetry) verbatim,
// preserving their PIDs.
func (r *Recorder) ingest(events []Event) {
	if r == nil || len(events) == 0 {
		return
	}
	r.mu.Lock()
	r.events = append(r.events, events...)
	if r.jsonl != nil && r.jsonlErr == nil {
		for _, e := range events {
			if r.jsonlErr = writeJSONLine(r.jsonl, e); r.jsonlErr != nil {
				break
			}
		}
	}
	r.mu.Unlock()
}

// Events returns a copy of every recorded event.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Event(nil), r.events...)
}

// Span is an open span; End closes and records it. The nil *Span (from a
// nil recorder) is valid and End on it is a no-op.
type Span struct {
	r     *Recorder
	e     Event
	start time.Time
}

// End records the span with its measured duration.
func (s *Span) End() {
	if s == nil {
		return
	}
	now := s.r.clock.Now()
	s.e.TS = s.start.UnixMicro()
	s.e.Dur = now.Sub(s.start).Microseconds()
	if s.e.Dur < 0 {
		s.e.Dur = 0
	}
	s.r.emit(s.e)
}

// HotCounters is the engine-attachable hot-path tally: plain (non-atomic)
// fields, because a simulated engine is single-goroutine by contract and
// an atomic add per simulated load would be measurable. Each shard owns
// its engine, so each shard flushes its own HotCounters into the shared
// recorder exactly once, at shard end.
type HotCounters struct {
	Loads  int64
	Stores int64
}

// FlushHot folds an engine's hot tallies into the recorder's counters and
// resets them.
func (r *Recorder) FlushHot(h *HotCounters) {
	if h == nil {
		return
	}
	r.Add(CEngineLoads, h.Loads)
	r.Add(CEngineStores, h.Stores)
	h.Loads, h.Stores = 0, 0
}

// CounterValue is one counter's exported value.
type CounterValue struct {
	C Counter `json:"c"`
	N int64   `json:"n"`
}

// Telemetry is the wire form of a recorder's pending state — what a
// fabric worker ships back after each shard. It is telemetry-frame
// payload only: never digested, never merged into campaign bytes.
type Telemetry struct {
	Events   []Event        `json:"events,omitempty"`
	Counters []CounterValue `json:"counters,omitempty"`
}

// Drain takes and clears the recorder's pending events and counter
// deltas. Repeated drains ship increments, so merging every drain
// reconstructs the recorder's totals.
func (r *Recorder) Drain() Telemetry {
	if r == nil {
		return Telemetry{}
	}
	var t Telemetry
	r.mu.Lock()
	if len(r.events) > 0 {
		t.Events = r.events
		r.events = nil
	}
	r.mu.Unlock()
	for c := Counter(0); c < numCounters; c++ {
		if n := atomic.SwapInt64(&r.counters[c], 0); n != 0 {
			t.Counters = append(t.Counters, CounterValue{C: c, N: n})
		}
	}
	return t
}

// Merge folds drained telemetry (typically from a worker process) into
// this recorder: events keep their original PIDs, counters accumulate.
func (r *Recorder) Merge(t Telemetry) {
	if r == nil {
		return
	}
	r.ingest(t.Events)
	for _, cv := range t.Counters {
		r.Add(cv.C, cv.N)
	}
}
