package repro

// Telemetry byte-invariance: arming a fully-loaded obs.Recorder — live
// JSONL stream, trace export afterwards, every span and counter firing —
// must not move a single byte of any campaign result. Telemetry is
// observational output only; these tests run the golden report, attack
// and monitor campaigns with obs off and obs fully armed and require the
// serialized results to be identical.

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/obs"
)

// armedRecorder builds a Recorder with the JSONL exporter streaming into
// a buffer, so every emit path (not just in-memory recording) is active
// during the campaign.
func armedRecorder() (*obs.Recorder, *bytes.Buffer) {
	jsonl := &bytes.Buffer{}
	return obs.New(obs.Config{Label: "invariance", JSONL: jsonl}), jsonl
}

// requireArmed asserts the recorder actually observed the campaign —
// otherwise the invariance comparison would pass vacuously — and that
// both exporters produce output.
func requireArmed(t *testing.T, rec *obs.Recorder, jsonl *bytes.Buffer) {
	t.Helper()
	if len(rec.Events()) == 0 {
		t.Fatal("armed recorder captured no events; the campaign was not instrumented")
	}
	if rec.Get(obs.CShardsDone) == 0 {
		t.Fatal("armed recorder counted no finished shards")
	}
	if jsonl.Len() == 0 {
		t.Fatal("JSONL exporter received nothing")
	}
	trace := &bytes.Buffer{}
	if err := rec.WriteTrace(trace); err != nil {
		t.Fatalf("WriteTrace: %v", err)
	}
	if trace.Len() == 0 {
		t.Fatal("trace exporter produced nothing")
	}
}

// TestObsReportByteInvariant: golden evaluate campaign at eight workers,
// obs off vs fully armed, identical report bytes.
func TestObsReportByteInvariant(t *testing.T) {
	s, err := NewScenario(ScenarioConfig{Dataset: DatasetMNIST, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	cfg := EvalConfig{
		Classes:      []int{1, 2},
		RunsPerClass: 60,
		Workers:      8,
		Seed:         17,
	}
	off, err := s.EvaluateCtx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}

	rec, jsonl := armedRecorder()
	cfg.Obs = rec
	on, err := s.EvaluateCtx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	requireArmed(t, rec, jsonl)
	if !bytes.Equal(mustJSON(t, off), mustJSON(t, on)) {
		t.Fatal("report bytes differ between obs-off and obs-armed runs")
	}
}

// TestObsAttackByteInvariant: the golden attack campaign is likewise
// untouched by an armed recorder.
func TestObsAttackByteInvariant(t *testing.T) {
	cfg := AttackConfig{
		Classes:     []int{1, 2, 3},
		ProfileRuns: 40,
		AttackRuns:  20,
		Workers:     8,
		Seed:        17,
	}
	off, err := attackScenario(t).Attack(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}

	rec, jsonl := armedRecorder()
	cfg.Obs = rec
	on, err := attackScenario(t).Attack(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	requireArmed(t, rec, jsonl)
	if !bytes.Equal(mustJSON(t, off), mustJSON(t, on)) {
		t.Fatal("attack result bytes differ between obs-off and obs-armed runs")
	}
}

// TestObsMonitorByteInvariant: the early-stopping monitor — the stage
// most sensitive to ordering, since its stop point depends on arrival
// sequence — is byte-invariant under an armed recorder.
func TestObsMonitorByteInvariant(t *testing.T) {
	s := monitorScenario(t)
	cfg := goldenMonitorConfig()
	off, err := s.MonitorCtx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}

	rec, jsonl := armedRecorder()
	cfg = goldenMonitorConfig()
	cfg.Obs = rec
	on, err := s.MonitorCtx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	requireArmed(t, rec, jsonl)
	if !bytes.Equal(mustJSON(t, off), mustJSON(t, on)) {
		t.Fatal("monitor result bytes differ between obs-off and obs-armed runs")
	}
}
