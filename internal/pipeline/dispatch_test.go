package pipeline

// The dispatcher seam's own guarantee: executing the wire plans through
// Executor/InProcess and merging the encoded payloads must reproduce the
// in-process collection and reports exactly — every byte that will later
// cross a process boundary is pinned here first.

import (
	"context"
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/core"
)

// classAgnostic adapts a TargetFactory for the class-aware collection
// and executor paths: every class deploys the same victim.
func classAgnostic(f TargetFactory) ClassTargetFactory {
	return func(_ int, seed int64) (core.Target, error) { return f(seed) }
}

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
		payloads[i], err = exec.ExecuteEncoded(context.Background(), plans[i])
		if err != nil {
			t.Fatal(err)
		}
	}
	got, err := p.MergeEncoded(plans, payloads)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("wire-dispatched collection differs from in-process collection")
	}
}

func TestReportFromProfilesMatchesEvaluate(t *testing.T) {
	net := testNet(t)
	pools := testPools(2, 3)
	evCfg := core.Config{RunsPerClass: 12, WarmupRuns: 1, HolmCorrection: true}

	p := newPipeline(t, evCfg, Config{Workers: 2, RootSeed: 11, ShardRuns: 4})
	want, err := p.Evaluate(context.Background(), "fabric", testFactory(t, net), pools)
	if err != nil {
		t.Fatal(err)
	}

	q := newPipeline(t, evCfg, Config{Workers: 2, RootSeed: 11, ShardRuns: 4})
	byClass, err := q.CollectProfilesByClass(context.Background(), classAgnostic(testFactory(t, net)), pools)
	if err != nil {
		t.Fatal(err)
	}
	got, err := q.ReportFromProfiles(context.Background(), "fabric", byClass)
	if err != nil {
		t.Fatal(err)
	}

	wantJSON, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	if string(wantJSON) != string(gotJSON) {
		t.Fatalf("profile-transposed report differs from direct evaluation:\n%s\n%s", gotJSON, wantJSON)
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

func TestInProcessDispatcher(t *testing.T) {
	net := testNet(t)
	pools := testPools(2, 3)
	p := newPipeline(t, core.Config{RunsPerClass: 8, WarmupRuns: 1}, Config{Workers: 1, RootSeed: 5, ShardRuns: 4})
	exec, err := p.Executor(classAgnostic(testFactory(t, net)), pools)
	if err != nil {
		t.Fatal(err)
	}
	d := InProcess(exec, 0)
	if d.Procs() != 1 {
		t.Fatalf("Procs() = %d, want clamped 1", d.Procs())
	}
	plans, err := p.WirePlans(pools)
	if err != nil {
		t.Fatal(err)
	}
	a, err := d.Dispatch(context.Background(), plans[0])
	if err != nil {
		t.Fatal(err)
	}
	// Duplicate delivery of the same plan must reproduce identical bytes:
	// shard execution is a pure function of the plan.
	b, err := d.Dispatch(context.Background(), plans[0])
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatal("duplicate dispatch of one plan produced different bytes")
	}
	profs, err := DecodeProfiles(a)
	if err != nil {
		t.Fatal(err)
	}
	if len(profs) != plans[0].Count {
		t.Fatalf("payload has %d profiles, want %d", len(profs), plans[0].Count)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}
