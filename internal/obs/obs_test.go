package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// fakeClock advances a fixed step per Now call, so spans get
// deterministic, positive durations.
type fakeClock struct {
	t    time.Time
	step time.Duration
}

func (f *fakeClock) Now() time.Time {
	now := f.t
	f.t = f.t.Add(f.step)
	return now
}

func newFake() *fakeClock {
	return &fakeClock{t: time.UnixMicro(1_000_000), step: 250 * time.Microsecond}
}

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	r.Add(CShardsDone, 1)
	r.SetPhase("collect")
	r.MarkExtra(0, "x", "y", "")
	r.MarkExtra(3, "x", "y", "z")
	r.FlushHot(&HotCounters{Loads: 5})
	r.Merge(Telemetry{Events: []Event{{Name: "e"}}})
	sp := r.Span("cat", "name")
	sp.End()
	r.ShardSpan(1, 2, 3).End()
	if got := r.Get(CShardsDone); got != 0 {
		t.Fatalf("nil recorder counter = %d", got)
	}
	if r.Phase() != "" || r.Events() != nil || r.ElapsedMS() != 0 {
		t.Fatalf("nil recorder leaked state")
	}
	if r.Clock() == nil {
		t.Fatalf("nil recorder must still serve a clock")
	}
	if d := r.Drain(); len(d.Events) != 0 || len(d.Counters) != 0 {
		t.Fatalf("nil recorder drained %+v", d)
	}
}

func TestSpansAndCounters(t *testing.T) {
	r := New(Config{Clock: newFake(), Label: "test"})
	sp := r.Span("pipeline", "collect")
	inner := r.ShardSpan(2, 7, 3)
	inner.End()
	sp.End()
	r.Add(CShardsDone, 2)
	r.Add(CShardsDone, 1)
	if got := r.Get(CShardsDone); got != 3 {
		t.Fatalf("counter = %d, want 3", got)
	}
	events := r.Events()
	if len(events) != 2 {
		t.Fatalf("got %d events, want 2", len(events))
	}
	shard := events[0]
	if shard.Name != "shard 7" || shard.TID != 2 || shard.Shard != 8 || shard.Class != 3 {
		t.Fatalf("shard span = %+v", shard)
	}
	for _, e := range events {
		if e.Ph != "X" || e.Dur <= 0 || e.PID == 0 {
			t.Fatalf("bad span event %+v", e)
		}
	}
}

func TestDrainMergeRoundTrip(t *testing.T) {
	worker := New(Config{Clock: newFake(), Label: "worker"})
	worker.ShardSpan(0, 4, 1).End()
	worker.Add(CProfilesCollected, 50)
	first := worker.Drain()
	if len(first.Events) != 1 || len(first.Counters) != 1 {
		t.Fatalf("drain = %+v", first)
	}
	if d := worker.Drain(); len(d.Events) != 0 || len(d.Counters) != 0 {
		t.Fatalf("second drain not empty: %+v", d)
	}
	worker.Add(CProfilesCollected, 25)
	second := worker.Drain()

	// Telemetry must round-trip through JSON (the fabric frame payload).
	data, err := json.Marshal(first)
	if err != nil {
		t.Fatal(err)
	}
	var decoded Telemetry
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatal(err)
	}

	coord := New(Config{Clock: newFake(), Label: "coord"})
	coord.Merge(decoded)
	coord.Merge(second)
	if got := coord.Get(CProfilesCollected); got != 75 {
		t.Fatalf("merged counter = %d, want 75", got)
	}
	evs := coord.Events()
	if len(evs) != 1 || evs[0].Name != "shard 4" {
		t.Fatalf("merged events = %+v", evs)
	}
	if evs[0].PID == 0 {
		t.Fatalf("merged event lost its PID")
	}
}

func TestFlushHot(t *testing.T) {
	r := New(Config{Clock: newFake()})
	h := HotCounters{Loads: 10, Stores: 4}
	r.FlushHot(&h)
	if h.Loads != 0 || h.Stores != 0 {
		t.Fatalf("FlushHot did not reset: %+v", h)
	}
	if r.Get(CEngineLoads) != 10 || r.Get(CEngineStores) != 4 {
		t.Fatalf("FlushHot lost counts: loads=%d stores=%d", r.Get(CEngineLoads), r.Get(CEngineStores))
	}
}

func TestWriteTraceShape(t *testing.T) {
	r := New(Config{Clock: newFake(), Label: "trace-test"})
	r.Span("pipeline", "collect").End()
	r.MarkExtra(1, "fabric", "worker-exit", "exited cleanly")
	var buf bytes.Buffer
	if err := r.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	// process_name metadata + span + mark.
	if len(tf.TraceEvents) != 3 {
		t.Fatalf("got %d trace events, want 3", len(tf.TraceEvents))
	}
	if tf.TraceEvents[0]["ph"] != "M" {
		t.Fatalf("first trace event is %v, want process_name metadata", tf.TraceEvents[0])
	}
	for _, te := range tf.TraceEvents[1:] {
		ph, _ := te["ph"].(string)
		if ph != "X" && ph != "i" {
			t.Fatalf("unexpected phase %q", ph)
		}
		if _, ok := te["ts"].(float64); !ok {
			t.Fatalf("trace event without ts: %v", te)
		}
	}
}

func TestJSONLStreaming(t *testing.T) {
	var buf bytes.Buffer
	r := New(Config{Clock: newFake(), JSONL: &buf})
	r.MarkExtra(0, "a", "one", "")
	r.Span("b", "two").End()
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d JSONL lines, want 2", len(lines))
	}
	for _, ln := range lines {
		var e Event
		if err := json.Unmarshal([]byte(ln), &e); err != nil {
			t.Fatalf("bad JSONL line %q: %v", ln, err)
		}
	}
}

func TestWriteMetricsOrderAndPhase(t *testing.T) {
	r := New(Config{Clock: newFake()})
	r.Add(CShardsPlanned, 8)
	r.Add(CShardsDone, 3)
	r.SetPhase("collect")
	var buf bytes.Buffer
	if err := r.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "obs_shards_planned 8\n") || !strings.Contains(out, "obs_shards_done 3\n") {
		t.Fatalf("metrics missing counters:\n%s", out)
	}
	// Fixed order: planned before done, every counter present.
	if strings.Index(out, "obs_shards_planned") > strings.Index(out, "obs_shards_done") {
		t.Fatalf("metrics out of order:\n%s", out)
	}
	if got := len(strings.Split(strings.TrimSpace(out), "\n")); got != len(AllCounters())+1 {
		t.Fatalf("metrics has %d lines, want %d", got, len(AllCounters())+1)
	}
	if r.Phase() != "collect" {
		t.Fatalf("phase = %q", r.Phase())
	}
}

func TestCounterNames(t *testing.T) {
	seen := map[string]bool{}
	for _, c := range AllCounters() {
		n := c.String()
		if n == "" || strings.HasPrefix(n, "counter(") {
			t.Fatalf("counter %d has no name", c)
		}
		if seen[n] {
			t.Fatalf("duplicate counter name %q", n)
		}
		seen[n] = true
	}
}
