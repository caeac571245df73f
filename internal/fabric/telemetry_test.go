package fabric

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strconv"
	"testing"

	"repro/internal/obs"
)

// FuzzTelemetryFrame: whatever payload a worker's telemetry frame
// carries, ingesting it into an armed pool recorder never panics and
// never fails the campaign. A payload that is not a Telemetry object
// leaves the recorder untouched, an out-of-range counter or an event no
// Recorder records is dropped, every other event is kept, and every
// exporter of the merged state still writes well-formed output: a trace
// whose every event passes obsview's schema check.
func FuzzTelemetryFrame(f *testing.F) {
	worker := obs.New(obs.Config{Label: "worker"})
	worker.SpanT(1, "shard", "shard 0").End()
	worker.ShardSpan(2, 3, 1).End()
	worker.MarkExtra(0, "fabric", "journal-skip", "shard 4")
	worker.Add(obs.CEngineLoads, 120)
	worker.Add(obs.CProfilesCollected, 6)
	drained, err := json.Marshal(worker.Drain())
	if err != nil {
		f.Fatal(err)
	}
	numCounters := len(obs.AllCounters())
	f.Add(drained)
	f.Add([]byte("not json"))
	f.Add([]byte(`{"counters":[{"c":-1,"n":5},{"c":1,"n":2}]}`))
	f.Add([]byte(`{"counters":[{"c":` + strconv.Itoa(numCounters) + `,"n":7}]}`))
	f.Add([]byte(`{"events":[{"ts":-3,"ph":"X","name":""}]}`))
	f.Add([]byte(`[]`))
	f.Fuzz(func(t *testing.T, payload []byte) {
		var log bytes.Buffer
		rec := obs.New(obs.Config{Label: "coordinator", JSONL: &log})
		p := &ProcPool{cfg: PoolConfig{Obs: rec}}
		p.ingestTelemetry(Frame{Type: TypeTelemetry, Payload: payload})

		var want obs.Telemetry
		wellFormed := json.Unmarshal(payload, &want) == nil
		if !wellFormed {
			want = obs.Telemetry{}
		}
		var kept []obs.Event
		for _, e := range want.Events {
			if recordable(e) {
				kept = append(kept, e)
			}
		}
		if got := rec.Events(); !reflect.DeepEqual(got, kept) {
			t.Fatalf("recorder holds %d events, want the payload's %d recordable ones of %d (well-formed %v)",
				len(got), len(kept), len(want.Events), wellFormed)
		}
		sums := make([]int64, numCounters)
		for _, cv := range want.Counters {
			if cv.C >= 0 && int(cv.C) < numCounters {
				sums[cv.C] += cv.N
			}
		}
		for _, c := range obs.AllCounters() {
			if got := rec.Get(c); got != sums[c] {
				t.Fatalf("counter %s = %d, want %d from the payload's in-range entries", c, got, sums[c])
			}
		}

		var lines [][]byte
		if log.Len() > 0 {
			lines = bytes.Split(bytes.TrimSuffix(log.Bytes(), []byte("\n")), []byte("\n"))
		}
		if len(lines) != len(kept) {
			t.Fatalf("JSONL log has %d lines, want %d", len(lines), len(kept))
		}
		for i, line := range lines {
			if !json.Valid(line) {
				t.Fatalf("JSONL line %d is not JSON: %q", i, line)
			}
		}
		events := writtenTrace(t, rec)
		if len(events) != len(kept)+1 { // + process_name
			t.Fatalf("trace has %d events, want %d", len(events), len(kept)+1)
		}
		if err := rec.WriteMetrics(&bytes.Buffer{}); err != nil {
			t.Fatalf("WriteMetrics: %v", err)
		}
	})
}

// TestIngestDropsUnrecordableEvents: a worker event with an empty name
// and a negative timestamp, shipped beside a real span, is dropped at
// ingest; the written trace keeps the span and holds no invalid event.
func TestIngestDropsUnrecordableEvents(t *testing.T) {
	worker := obs.New(obs.Config{Label: "worker"})
	worker.SpanT(1, "shard", "shard 0").End()
	drained, err := json.Marshal(worker.Drain())
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.New(obs.Config{Label: "coordinator"})
	p := &ProcPool{cfg: PoolConfig{Obs: rec}}
	p.ingestTelemetry(Frame{Type: TypeTelemetry, Payload: drained})
	p.ingestTelemetry(Frame{Type: TypeTelemetry, Payload: []byte(`{"events":[{"ts":-3,"ph":"X","name":""}]}`)})

	spans := 0
	for _, e := range writtenTrace(t, rec) {
		if e.Ph == "X" && e.Name == "shard 0" {
			spans++
		}
	}
	if spans != 1 {
		t.Fatalf("trace holds %d copies of the worker's span, want 1", spans)
	}
}

// traceEvent is the part of a written trace event obsview -check reads.
type traceEvent struct {
	Name string `json:"name"`
	Ph   string `json:"ph"`
	TS   *int64 `json:"ts"`
	Dur  int64  `json:"dur"`
	PID  *int   `json:"pid"`
	TID  *int   `json:"tid"`
}

// writtenTrace writes rec's trace and returns its events, failing the
// test on any event that cmd/obsview -check would reject.
func writtenTrace(t *testing.T, rec *obs.Recorder) []traceEvent {
	t.Helper()
	var trace bytes.Buffer
	if err := rec.WriteTrace(&trace); err != nil {
		t.Fatalf("WriteTrace: %v", err)
	}
	var tf struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(trace.Bytes(), &tf); err != nil {
		t.Fatalf("trace is not JSON: %v", err)
	}
	for i, e := range tf.TraceEvents {
		ok := e.Name != "" && e.PID != nil && e.TID != nil
		switch e.Ph {
		case "X":
			ok = ok && e.TS != nil && *e.TS >= 0 && e.Dur >= 0
		case "i":
			ok = ok && e.TS != nil && *e.TS >= 0
		case "M":
		default:
			ok = false
		}
		if !ok {
			t.Fatalf("trace event %d (name %q, phase %q) fails obsview's schema check", i, e.Name, e.Ph)
		}
	}
	return tf.TraceEvents
}
