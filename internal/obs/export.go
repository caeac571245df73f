package obs

// The exporters: a JSONL event log (one Event per line, streamed as
// events are recorded), a Chrome trace_event timeline
// (load chrome://tracing or https://ui.perfetto.dev and open the file),
// and the text counter dump behind the audit server's /metrics endpoint.

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// writeJSONLine encodes one event as a single JSON line.
func writeJSONLine(w io.Writer, e Event) error {
	data, err := json.Marshal(e)
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

// traceEvent is the Chrome trace_event wire form of one Event. The
// "args" of shard spans carry the shard identity; a named struct keeps
// the schema explicit (and the repo's wiredigest analyzer quiet).
type traceEvent struct {
	Name string     `json:"name"`
	Cat  string     `json:"cat,omitempty"`
	Ph   string     `json:"ph"`
	TS   int64      `json:"ts"`
	Dur  int64      `json:"dur,omitempty"`
	PID  int        `json:"pid"`
	TID  int        `json:"tid"`
	S    string     `json:"s,omitempty"` // instant-event scope
	Args *traceArgs `json:"args,omitempty"`
}

// traceArgs annotates a trace event.
type traceArgs struct {
	Shard *int   `json:"shard,omitempty"`
	Class *int   `json:"class,omitempty"`
	Extra string `json:"extra,omitempty"`
	Name  string `json:"name,omitempty"` // process_name metadata payload
}

// traceFile is the top-level trace_event JSON object.
type traceFile struct {
	TraceEvents []traceEvent `json:"traceEvents"`
}

// WriteTrace exports the recorded events as a Chrome trace_event JSON
// object. Spans recorded by worker processes keep their own PID rows, so
// one file shows the whole fabric's shard parallelism.
func (r *Recorder) WriteTrace(w io.Writer) error {
	events := r.Events()
	// Stable presentation order: by timestamp, then by recording order
	// (spans are recorded at End, so they arrive out of start order).
	sort.SliceStable(events, func(a, b int) bool { return events[a].TS < events[b].TS })
	tf := traceFile{TraceEvents: make([]traceEvent, 0, len(events)+1)}
	if r != nil {
		label := r.label
		if label == "" {
			label = "repro"
		}
		tf.TraceEvents = append(tf.TraceEvents, traceEvent{
			Name: "process_name", Ph: "M", PID: r.pid,
			Args: &traceArgs{Name: label},
		})
	}
	for _, e := range events {
		te := traceEvent{
			Name: e.Name, Cat: e.Cat, Ph: e.Ph, TS: e.TS, Dur: e.Dur,
			PID: e.PID, TID: e.TID,
		}
		if te.Ph == "i" {
			te.S = "p" // process-scoped instant
		}
		if e.Shard != 0 || e.Class != 0 || e.Extra != "" {
			args := &traceArgs{Extra: e.Extra}
			if e.Shard != 0 {
				shard := e.Shard - 1
				args.Shard = &shard
				class := e.Class
				args.Class = &class
			}
			te.Args = args
		}
		tf.TraceEvents = append(tf.TraceEvents, te)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(tf)
}

// WriteMetrics dumps every counter as "obs_<name> <value>" lines in the
// fixed Counter order, followed by the elapsed-time gauge — the text
// format the audit server's /metrics endpoint serves.
func (r *Recorder) WriteMetrics(w io.Writer) error {
	for c := Counter(0); c < numCounters; c++ {
		if _, err := fmt.Fprintf(w, "obs_%s %d\n", c, r.Get(c)); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "obs_elapsed_ms %d\n", r.ElapsedMS())
	return err
}

// FileRecorder builds a system-clock recorder exporting to the given
// paths — the shared -trace/-obs CLI wiring. tracePath receives the
// Chrome trace_event timeline when finish is called; jsonlPath streams
// the JSONL event log as events are recorded. Both empty returns a nil
// recorder and a no-op finish: campaign code passes the result through
// unconditionally.
func FileRecorder(tracePath, jsonlPath, label string) (*Recorder, func() error, error) {
	if tracePath == "" && jsonlPath == "" {
		return nil, func() error { return nil }, nil
	}
	var jsonl *os.File
	if jsonlPath != "" {
		f, err := os.Create(jsonlPath)
		if err != nil {
			return nil, nil, fmt.Errorf("obs: creating event log: %w", err)
		}
		jsonl = f
	}
	rec := New(Config{Label: label, JSONL: jsonl})
	finish := func() error {
		var firstErr error
		if tracePath != "" {
			f, err := os.Create(tracePath)
			if err != nil {
				firstErr = fmt.Errorf("obs: creating trace: %w", err)
			} else {
				if err := rec.WriteTrace(f); err != nil && firstErr == nil {
					firstErr = err
				}
				if err := f.Close(); err != nil && firstErr == nil {
					firstErr = err
				}
			}
		}
		if jsonl != nil {
			if err := jsonl.Close(); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		return firstErr
	}
	return rec, finish, nil
}
