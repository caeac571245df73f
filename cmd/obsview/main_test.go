package main

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/obs"
)

func TestCheckValidTraceFromRecorder(t *testing.T) {
	r := obs.New(obs.Config{Label: "obsview-test"})
	r.Span("pipeline", "collect").End()
	r.ShardSpan(1, 3, 0).End()
	r.MarkExtra(0, "fabric", "journal-skip", "")
	var buf bytes.Buffer
	if err := r.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	s, err := Check(&buf)
	if err != nil {
		t.Fatalf("Check rejected a recorder trace: %v", err)
	}
	if s.Spans != 2 || s.Instants != 1 || s.Metadata != 1 {
		t.Fatalf("summary = %+v", s)
	}
	if s.Processes != 1 {
		t.Fatalf("processes = %d, want 1", s.Processes)
	}
}

func TestCheckRejections(t *testing.T) {
	cases := map[string]string{
		"not json":          `{"traceEvents": [`,
		"missing array":     `{}`,
		"empty trace":       `{"traceEvents": []}`,
		"unknown phase":     `{"traceEvents": [{"name":"a","ph":"Q","ts":1,"pid":1,"tid":0}]}`,
		"missing name":      `{"traceEvents": [{"ph":"X","ts":1,"pid":1,"tid":0}]}`,
		"missing pid":       `{"traceEvents": [{"name":"a","ph":"X","ts":1,"tid":0}]}`,
		"span without ts":   `{"traceEvents": [{"name":"a","ph":"X","pid":1,"tid":0}]}`,
		"negative duration": `{"traceEvents": [{"name":"a","ph":"X","ts":1,"dur":-5,"pid":1,"tid":0}]}`,
		"metadata only":     `{"traceEvents": [{"name":"process_name","ph":"M","pid":1,"tid":0}]}`,
	}
	for name, raw := range cases {
		if _, err := Check(strings.NewReader(raw)); err == nil {
			t.Errorf("%s: Check accepted invalid trace", name)
		}
	}
}

func TestSummaryOutput(t *testing.T) {
	s := &Summary{Events: 3, Spans: 2, Instants: 1, Processes: 2, TotalDur: 42,
		ByCat: map[string]int{"pipeline": 2, "fabric": 1}}
	var buf bytes.Buffer
	s.write(&buf)
	out := buf.String()
	for _, want := range []string{"spans     2", "processes 2", "cat fabric", "cat pipeline"} {
		if !strings.Contains(out, want) {
			t.Fatalf("summary output missing %q:\n%s", want, out)
		}
	}
}
