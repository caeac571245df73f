package fabric

import (
	"bytes"
	"encoding/json"
	"strconv"
	"testing"

	"repro/internal/obs"
)

// FuzzTelemetryFrame: whatever payload a worker's telemetry frame
// carries, ingesting it into an armed pool recorder never panics and
// never fails the campaign. A payload that is not a Telemetry object
// leaves the recorder untouched, an out-of-range counter is dropped, and
// every exporter of the merged state still writes well-formed output.
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
		if got := len(rec.Events()); got != len(want.Events) {
			t.Fatalf("recorder holds %d events, payload carries %d (well-formed %v)", got, len(want.Events), wellFormed)
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
		if len(lines) != len(want.Events) {
			t.Fatalf("JSONL log has %d lines, want %d", len(lines), len(want.Events))
		}
		for i, line := range lines {
			if !json.Valid(line) {
				t.Fatalf("JSONL line %d is not JSON: %q", i, line)
			}
		}
		var trace bytes.Buffer
		if err := rec.WriteTrace(&trace); err != nil {
			t.Fatalf("WriteTrace: %v", err)
		}
		var tf struct {
			TraceEvents []json.RawMessage `json:"traceEvents"`
		}
		if err := json.Unmarshal(trace.Bytes(), &tf); err != nil {
			t.Fatalf("trace is not JSON: %v", err)
		}
		if len(tf.TraceEvents) != len(want.Events)+1 { // + process_name
			t.Fatalf("trace has %d events, want %d", len(tf.TraceEvents), len(want.Events)+1)
		}
		if err := rec.WriteMetrics(&bytes.Buffer{}); err != nil {
			t.Fatalf("WriteMetrics: %v", err)
		}
	})
}
