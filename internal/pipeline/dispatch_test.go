package pipeline

// The dispatcher seam's own guarantee: executing the wire plans through
// an Executor and merging the encoded payloads must reproduce the
// in-process collection exactly — every byte that will later cross a
// process boundary is pinned here first.

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/hpc"
)

func TestExecutorMatchesCollectProfiles(t *testing.T) {
	net := testNet(t)
	pools := testPools(3, 4)
	evCfg := core.Config{RunsPerClass: 18, WarmupRuns: 1}
	p := newPipeline(t, evCfg, Config{Workers: 2, RootSeed: 9, ShardRuns: 6})

	want, err := p.CollectProfilesByClass(context.Background(), classAgnostic(testFactory(t, net)), pools)
	if err != nil {
		t.Fatal(err)
	}

	exec, err := p.Executor(classAgnostic(testFactory(t, net)), pools)
	if err != nil {
		t.Fatal(err)
	}
	plans, err := p.WirePlans(pools)
	if err != nil {
		t.Fatal(err)
	}
	if len(plans) != 3*3 { // 18 runs / 6 shard runs = 3 shards per class
		t.Fatalf("planned %d shards, want 9", len(plans))
	}
	// Execute in deliberately scrambled order: the merge must be keyed by
	// the plan, never by completion order.
	payloads := make([][]byte, len(plans))
	for i := len(plans) - 1; i >= 0; i-- {
		payloads[i] = executeEncoded(t, exec, plans[i])
	}
	got, err := p.MergeEncoded(plans, payloads)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("wire-dispatched collection differs from in-process collection")
	}
}

// TestReportFromProfilesRejectsMissingEvent: a worker payload that
// lacks one of the campaign's events must fail the report, naming the
// class, run and event, instead of scoring the absent counter as zero.
func TestReportFromProfilesRejectsMissingEvent(t *testing.T) {
	p := newPipeline(t, core.Config{RunsPerClass: 1}, Config{Workers: 1})
	full, err := DecodeProfiles([]byte(`[{"branches":2,"cache-misses":1}]`))
	if err != nil {
		t.Fatal(err)
	}
	short, err := DecodeProfiles([]byte(`[{"cache-misses":1}]`))
	if err != nil {
		t.Fatal(err)
	}
	_, err = p.ReportFromProfiles(context.Background(), "short", map[int][]hpc.Profile{0: full, 1: short})
	if err == nil {
		t.Fatal("profile missing the branches event was scored")
	}
	for _, want := range []string{"class 1", "run 0", "branches"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("err = %v, want it to name %q", err, want)
		}
	}
}

func TestExecutorValidatesPlans(t *testing.T) {
	net := testNet(t)
	pools := testPools(2, 3)
	p := newPipeline(t, core.Config{RunsPerClass: 10, WarmupRuns: 1}, Config{Workers: 1, RootSeed: 3})
	exec, err := p.Executor(classAgnostic(testFactory(t, net)), pools)
	if err != nil {
		t.Fatal(err)
	}
	cases := []Plan{
		{Index: 0, Class: 99, Start: 0, Count: 5, Seed: 1}, // unknown class
		{Index: 1, Class: 0, Start: 8, Count: 5, Seed: 1},  // runs out of range
		{Index: 2, Class: 0, Start: -1, Count: 2, Seed: 1}, // negative start
		{Index: 3, Class: 0, Start: 0, Count: 0, Seed: 1},  // empty shard
	}
	for _, plan := range cases {
		if _, err := exec.Execute(context.Background(), plan); err == nil {
			t.Fatalf("invalid plan %+v executed silently", plan)
		}
	}
}

// executeEncoded runs one plan and returns its canonical wire payload —
// what a shardworker sends back for it.
func executeEncoded(t *testing.T, exec *Executor, plan Plan) []byte {
	t.Helper()
	profs, err := exec.Execute(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := EncodeProfiles(profs)
	if err != nil {
		t.Fatal(err)
	}
	return payload
}

// TestExecutorPlanIsPure: duplicate delivery of the same plan must
// reproduce identical bytes — shard execution is a pure function of the
// plan, which is what lets the fabric re-dispatch a lost shard.
func TestExecutorPlanIsPure(t *testing.T) {
	net := testNet(t)
	pools := testPools(2, 3)
	p := newPipeline(t, core.Config{RunsPerClass: 8, WarmupRuns: 1}, Config{Workers: 1, RootSeed: 5, ShardRuns: 4})
	exec, err := p.Executor(classAgnostic(testFactory(t, net)), pools)
	if err != nil {
		t.Fatal(err)
	}
	plans, err := p.WirePlans(pools)
	if err != nil {
		t.Fatal(err)
	}
	a := executeEncoded(t, exec, plans[0])
	if b := executeEncoded(t, exec, plans[0]); string(a) != string(b) {
		t.Fatal("duplicate execution of one plan produced different bytes")
	}
	profs, err := DecodeProfiles(a)
	if err != nil {
		t.Fatal(err)
	}
	if len(profs) != plans[0].Count {
		t.Fatalf("payload has %d profiles, want %d", len(profs), plans[0].Count)
	}
}
