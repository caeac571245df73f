package repro

// The distributed audit fabric's end-to-end test suite: the four golden
// campaigns re-executed through real shardworker OS processes (bytes
// must match the in-process pipeline exactly, at any process count and
// over either transport), and the fault-injection regressions — a
// worker SIGKILLed mid-shard, a journal with a torn tail, a worker
// exiting non-zero — every one of which must either resume to the exact
// clean-run bytes or fail loudly with the worker's fate in the error.
//
// The shardworker binary is built once per test binary from
// ./cmd/shardworker; tests that need it share the build.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/nn"
	"repro/internal/obs"
)

var (
	workerBinOnce sync.Once
	workerBinDir  string
	workerBinPath string
	workerBinErr  error
)

func TestMain(m *testing.M) {
	if out := os.Getenv(specCaptureEnv); out != "" {
		captureSpec(out)
	}
	code := m.Run()
	if workerBinDir != "" {
		os.RemoveAll(workerBinDir)
	}
	os.Exit(code)
}

// shardworkerBin builds cmd/shardworker once and returns the binary path.
func shardworkerBin(t *testing.T) string {
	t.Helper()
	workerBinOnce.Do(func() {
		workerBinDir, workerBinErr = os.MkdirTemp("", "repro-shardworker")
		if workerBinErr != nil {
			return
		}
		bin := filepath.Join(workerBinDir, "shardworker")
		out, err := exec.Command("go", "build", "-o", bin, "./cmd/shardworker").CombinedOutput()
		if err != nil {
			workerBinErr = fmt.Errorf("building shardworker: %v\n%s", err, out)
			return
		}
		workerBinPath = bin
	})
	if workerBinErr != nil {
		t.Fatal(workerBinErr)
	}
	return workerBinPath
}

func fabricCfg(t *testing.T) FabricConfig {
	return FabricConfig{WorkerBin: shardworkerBin(t)}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// smallEvalConfig is the shared small report campaign of the fault
// tests: 2 classes × 200 runs in pipeline.DefaultShardRuns-run shards —
// 8 shards, enough to keep several processes busy and to make partial
// completion observable.
func smallEvalConfig(procs int, fc FabricConfig) EvalConfig {
	return EvalConfig{
		Classes:      []int{1, 2},
		RunsPerClass: 200,
		Workers:      2,
		Seed:         17,
		Processes:    procs,
		Fabric:       fc,
	}
}

// smallEvalShards is the shard count smallEvalConfig plans.
const smallEvalShards = 8

// smallEvalBytes runs the small campaign and serializes its report. The
// in-process run, which every fault test takes as its reference, also
// checks the planned shard count, so the fault tests cannot silently
// shrink to a campaign of one shard per class.
func smallEvalBytes(t *testing.T, procs int, fc FabricConfig) []byte {
	t.Helper()
	cfg := smallEvalConfig(procs, fc)
	if procs == 0 {
		cfg.Obs = obs.New(obs.Config{})
	}
	rep, err := attackScenario(t).Evaluate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if procs == 0 {
		if got := cfg.Obs.Get(obs.CShardsPlanned); got != smallEvalShards {
			t.Fatalf("small campaign planned %d shards, want %d", got, smallEvalShards)
		}
	}
	return mustJSON(t, toGolden(rep))
}

// TestGoldenReportByteInvariantAcrossProcesses executes the exact golden
// report campaign through the subprocess dispatcher at processes=1 and
// processes=4: every worker process rebuilds the scenario from the wire
// spec alone, and all serialized reports must be byte-for-byte identical
// to the in-process pipeline's.
func TestGoldenReportByteInvariantAcrossProcesses(t *testing.T) {
	want := mustJSON(t, toGolden(goldenCampaign(t)))
	s, err := NewScenario(ScenarioConfig{
		Dataset: DatasetMNIST,
		Seed:    5,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, procs := range []int{1, 4} {
		rep, err := s.Evaluate(EvalConfig{
			Classes:      []int{1, 2},
			RunsPerClass: 60,
			Workers:      2,
			Seed:         17,
			Processes:    procs,
			Fabric:       fabricCfg(t),
		})
		if err != nil {
			t.Fatalf("processes=%d: %v", procs, err)
		}
		if got := mustJSON(t, toGolden(rep)); !bytes.Equal(got, want) {
			t.Fatalf("processes=%d report differs from in-process bytes:\n--- processes=%d ---\n%s\n--- in-process ---\n%s", procs, procs, got, want)
		}
	}
}

// TestAttackGoldenByteInvariantAcrossProcesses runs the exact golden
// attack campaign at processes=1 and processes=4; the confusion matrices
// must match the in-process run byte-for-byte.
func TestAttackGoldenByteInvariantAcrossProcesses(t *testing.T) {
	want := mustJSON(t, toGoldenAttack(goldenAttackCampaign(t, 2)))
	for _, procs := range []int{1, 4} {
		res, err := attackScenario(t).Attack(context.Background(), AttackConfig{
			Classes:     []int{1, 2, 3},
			ProfileRuns: 40,
			AttackRuns:  20,
			Workers:     2,
			Seed:        17,
			Processes:   procs,
			Fabric:      fabricCfg(t),
		})
		if err != nil {
			t.Fatalf("processes=%d: %v", procs, err)
		}
		if got := mustJSON(t, toGoldenAttack(res)); !bytes.Equal(got, want) {
			t.Fatalf("processes=%d attack result differs from in-process bytes:\n--- processes=%d ---\n%s\n--- in-process ---\n%s", procs, procs, got, want)
		}
	}
}

// TestArchIDGoldenByteInvariantAcrossProcesses runs the exact golden
// fingerprinting campaign at processes=1 and processes=4 and also pins
// the result against the committed golden file.
func TestArchIDGoldenByteInvariantAcrossProcesses(t *testing.T) {
	want := mustJSON(t, toGoldenArchID(goldenArchIDCampaign(t, 2)))
	for _, procs := range []int{1, 4} {
		res, err := attackScenario(t).ArchID(context.Background(), ArchIDConfig{
			ProfileRuns: 12,
			AttackRuns:  6,
			MaxInputs:   12,
			Workers:     2,
			Seed:        17,
			Processes:   procs,
			Fabric:      fabricCfg(t),
		})
		if err != nil {
			t.Fatalf("processes=%d: %v", procs, err)
		}
		if got := mustJSON(t, toGoldenArchID(res)); !bytes.Equal(got, want) {
			t.Fatalf("processes=%d archid result differs from in-process bytes:\n--- processes=%d ---\n%s\n--- in-process ---\n%s", procs, procs, got, want)
		}
	}
	golden, err := os.ReadFile(goldenArchIDPath)
	if err != nil {
		t.Fatalf("missing golden file: %v", err)
	}
	if string(want)+"\n" != string(golden) {
		t.Fatalf("in-process archid result diverged from committed golden")
	}
}

// TestTopoGoldenByteInvariantAcrossProcesses runs the exact golden
// topology-recovery campaigns (baseline and padded-envelope) at
// processes=1 and processes=4; both serialized scorecards must match the
// in-process bytes.
func TestTopoGoldenByteInvariantAcrossProcesses(t *testing.T) {
	want := mustJSON(t, goldenTopoCampaigns(t, 2))
	run := func(procs int) goldenTopo {
		runLevel := func(level DefenseLevel) goldenTopoCampaign {
			res, err := attackScenario(t).TopoGrouped(context.Background(), level, TopoConfig{
				TrainZoo:  6,
				Holdout:   5,
				Runs:      6,
				MaxInputs: 8,
				Workers:   2,
				Seed:      17,
				Processes: procs,
				Fabric:    fabricCfg(t),
			})
			if err != nil {
				t.Fatalf("processes=%d %s: %v", procs, level, err)
			}
			return toGoldenTopoCampaign(res)
		}
		return goldenTopo{
			Baseline: runLevel(DefenseBaseline),
			Padded:   runLevel(DefensePaddedEnvelope),
		}
	}
	for _, procs := range []int{1, 4} {
		if got := mustJSON(t, run(procs)); !bytes.Equal(got, want) {
			t.Fatalf("processes=%d topo result differs from in-process bytes:\n--- processes=%d ---\n%s\n--- in-process ---\n%s", procs, procs, got, want)
		}
	}
}

// TestFabricTCPTransportByteIdentical re-runs the small report campaign
// with shards dispatched over loopback TCP connections instead of
// stdin/stdout pipes; the transport must be invisible in the bytes.
func TestFabricTCPTransportByteIdentical(t *testing.T) {
	want := smallEvalBytes(t, 0, FabricConfig{})
	fc := fabricCfg(t)
	fc.TCP = true
	if got := smallEvalBytes(t, 2, fc); !bytes.Equal(got, want) {
		t.Fatalf("TCP transport changed report bytes:\n--- tcp ---\n%s\n--- in-process ---\n%s", got, want)
	}
}

// journalFiles lists the per-session journal files under base.
func journalFiles(t *testing.T, base string) []string {
	t.Helper()
	matches, err := filepath.Glob(base + ".*")
	if err != nil {
		t.Fatal(err)
	}
	return matches
}

// TestFabricSIGKILLResumeByteIdentical is the crash-recovery regression:
// a campaign loses one worker to SIGKILL mid-shard (the fault hook kills
// exactly one process, right before it would execute a shard), the
// campaign fails loudly naming the signal — and a rerun over the same
// journal resumes the completed shards and produces a report
// byte-identical to a clean run.
func TestFabricSIGKILLResumeByteIdentical(t *testing.T) {
	want := smallEvalBytes(t, 0, FabricConfig{})
	dir := t.TempDir()

	fc := fabricCfg(t)
	fc.Journal = filepath.Join(dir, "audit")
	fc.Env = []string{"REPRO_FABRIC_TEST_KILL_BEFORE_SHARD=" + filepath.Join(dir, "kill-claimed")}
	_, err := attackScenario(t).Evaluate(smallEvalConfig(2, fc))
	if err == nil {
		t.Fatal("campaign with a SIGKILLed worker succeeded")
	}
	if !strings.Contains(err.Error(), "signal: killed") {
		t.Fatalf("error does not name the worker's death: %v", err)
	}
	if len(journalFiles(t, fc.Journal)) == 0 {
		t.Fatal("failed campaign left no journal")
	}

	fc.Env = nil
	got := smallEvalBytes(t, 2, fc)
	if !bytes.Equal(got, want) {
		t.Fatalf("journal-resumed report differs from clean run:\n--- resumed ---\n%s\n--- clean ---\n%s", got, want)
	}
}

// TestFabricJournalCorruptTailReRunsOnlyMissing truncates the journal's
// final entry mid-line after a clean campaign; the rerun must discard
// only the torn entry, re-measure exactly that one shard (the fault hook
// kills the worker after one result, so a second re-run would fail the
// campaign) and still produce the clean bytes. A third run then proves
// the repaired journal satisfies the whole campaign with zero shard
// executions.
func TestFabricJournalCorruptTailReRunsOnlyMissing(t *testing.T) {
	want := smallEvalBytes(t, 0, FabricConfig{})
	dir := t.TempDir()
	fc := fabricCfg(t)
	fc.Journal = filepath.Join(dir, "audit")
	if got := smallEvalBytes(t, 1, fc); !bytes.Equal(got, want) {
		t.Fatalf("clean journaled run differs from in-process bytes")
	}
	files := journalFiles(t, fc.Journal)
	if len(files) != 1 {
		t.Fatalf("journal files = %v, want exactly one", files)
	}

	// Tear the final entry: keep the line's first half, drop the newline.
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	trimmed := bytes.TrimRight(data, "\n")
	lastLine := trimmed[bytes.LastIndexByte(trimmed, '\n')+1:]
	torn := trimmed[:len(trimmed)-len(lastLine)/2]
	if err := os.WriteFile(files[0], torn, 0o644); err != nil {
		t.Fatal(err)
	}

	fc.Env = []string{"REPRO_FABRIC_TEST_FAIL_AFTER_RESULTS=1"}
	if got := smallEvalBytes(t, 1, fc); !bytes.Equal(got, want) {
		t.Fatalf("corrupt-tail resume differs from clean run:\n--- resumed ---\n%s\n--- clean ---\n%s", got, want)
	}

	// Everything is journaled again: this run must dispatch nothing, so
	// even a worker that dies after its first result never gets the chance.
	if got := smallEvalBytes(t, 1, fc); !bytes.Equal(got, want) {
		t.Fatalf("fully-journaled rerun differs from clean run")
	}
}

// TestFabricWorkerExitSurfacesStderr is the failure-propagation
// regression: every worker exits 1 after its first result, so the
// campaign cannot finish — the coordinator must cancel what is left and
// return an error carrying the worker's exit status and stderr.
func TestFabricWorkerExitSurfacesStderr(t *testing.T) {
	fc := fabricCfg(t)
	fc.Env = []string{"REPRO_FABRIC_TEST_FAIL_AFTER_RESULTS=1"}
	_, err := attackScenario(t).Evaluate(smallEvalConfig(2, fc))
	if err == nil {
		t.Fatal("campaign with dying workers succeeded")
	}
	if !strings.Contains(err.Error(), "exit status 1") {
		t.Fatalf("error does not carry the worker exit status: %v", err)
	}
	if !strings.Contains(err.Error(), "injected failure after 1 results") {
		t.Fatalf("error does not carry the worker stderr: %v", err)
	}
}

// TestFabricSpecProtoMismatchFailsLoudly pins the spec-layout version
// check: a worker handed a spec from a different binary generation must
// refuse it before any collection.
func TestFabricSpecProtoMismatchFailsLoudly(t *testing.T) {
	spec, err := json.Marshal(WorkerSpec{Proto: "repro-fabric-0", Stage: StageReport})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewWorkerRunner(context.Background(), spec); err == nil ||
		!strings.Contains(err.Error(), "out of sync") {
		t.Fatalf("stale spec proto not rejected loudly: %v", err)
	}
}

// TestFabricNeedsWorkerBinary pins the configuration error: Processes ≥ 1
// without a worker binary must fail with a message naming both knobs.
func TestFabricNeedsWorkerBinary(t *testing.T) {
	t.Setenv("REPRO_SHARDWORKER", "")
	_, err := attackScenario(t).Evaluate(smallEvalConfig(1, FabricConfig{}))
	if err == nil || !strings.Contains(err.Error(), "REPRO_SHARDWORKER") {
		t.Fatalf("missing worker binary not reported: %v", err)
	}
}

// TestWideEventSetByteInvariantAcrossProcesses runs every collecting
// stage with a two-register-group event set (the paper's eight Figure
// 2(b) events) on two shardworker processes: each register group is its
// own fabric session, and the joined result must match the in-process
// single-worker bytes.
func TestWideEventSetByteInvariantAcrossProcesses(t *testing.T) {
	s := attackScenario(t)
	ctx := context.Background()
	events := AllPaperEvents()
	for _, tc := range []struct {
		name string
		run  func(procs int, fc FabricConfig) (any, error)
	}{
		{"report", func(procs int, fc FabricConfig) (any, error) {
			return s.EvaluateCtx(ctx, EvalConfig{Classes: []int{1, 2}, Events: events, RunsPerClass: 8,
				Workers: 1, Seed: 17, Processes: procs, Fabric: fc})
		}},
		{"report-grouped", func(procs int, fc FabricConfig) (any, error) {
			return s.EvaluateGrouped(ctx, DefenseConstantTime, EvalConfig{Classes: []int{1, 2}, Events: events, RunsPerClass: 8,
				Workers: 1, Seed: 17, Processes: procs, Fabric: fc})
		}},
		{"attack", func(procs int, fc FabricConfig) (any, error) {
			return s.Attack(ctx, AttackConfig{Classes: []int{1, 2}, Events: events, ProfileRuns: 6, AttackRuns: 3,
				Workers: 1, Seed: 17, Processes: procs, Fabric: fc})
		}},
		{"archid", func(procs int, fc FabricConfig) (any, error) {
			return s.ArchID(ctx, ArchIDConfig{Events: events, ProfileRuns: 4, AttackRuns: 2, MaxInputs: 4,
				Workers: 1, Seed: 17, Processes: procs, Fabric: fc})
		}},
		{"topo", func(procs int, fc FabricConfig) (any, error) {
			return s.Topo(ctx, TopoConfig{Events: events, TrainZoo: 4, Holdout: 3, Runs: 3, MaxInputs: 4,
				Workers: 1, Seed: 17, Processes: procs, Fabric: fc})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want, err := tc.run(0, FabricConfig{})
			if err != nil {
				t.Fatalf("in-process: %v", err)
			}
			got, err := tc.run(2, fabricCfg(t))
			if err != nil {
				t.Fatalf("processes=2: %v", err)
			}
			if g, w := mustJSON(t, got), mustJSON(t, want); !bytes.Equal(g, w) {
				t.Fatalf("processes=2 result differs from in-process bytes:\n--- processes=2 ---\n%s\n--- in-process ---\n%s", g, w)
			}
		})
	}
}

// TestWorkerUsesShippedNet: a spec whose scenario seeds would train one
// network but which carries another (trained under a different seed)
// makes every worker deploy the shipped network. The fabric campaign
// must measure exactly what the in-process deployment of that network
// measures, and not what the seeds' own network measures.
func TestWorkerUsesShippedNet(t *testing.T) {
	s := attackScenario(t)
	other, err := NewScenario(ScenarioConfig{Dataset: DatasetMNIST, Seed: s.Config.Seed + 100,
		PerClassTrain: 20, PerClassTest: 10, Epochs: 1})
	if err != nil {
		t.Fatal(err)
	}
	shipped, err := newScenarioData(s.Config)
	if err != nil {
		t.Fatal(err)
	}
	if shipped, err = shipped.deploy(other.Net); err != nil {
		t.Fatal(err)
	}
	run := func(sc *Scenario, procs int, fc FabricConfig) []byte {
		rep, err := sc.Evaluate(smallEvalConfig(procs, fc))
		if err != nil {
			t.Fatal(err)
		}
		return mustJSON(t, toGolden(rep))
	}
	want := run(shipped, 0, FabricConfig{})
	if bytes.Equal(want, run(s, 0, FabricConfig{})) {
		t.Fatal("fixture: the two networks measure the same bytes, so the test cannot tell them apart")
	}
	if got := run(shipped, 2, fabricCfg(t)); !bytes.Equal(got, want) {
		t.Fatalf("fabric workers did not deploy the shipped network:\n--- processes=2 ---\n%s\n--- in-process ---\n%s", got, want)
	}
}

// TestWorkerRejectsForeignNet: a worker handed weights of the wrong
// architecture, or a damaged weight blob, refuses the spec with an error
// naming the problem instead of deploying something else.
func TestWorkerRejectsForeignNet(t *testing.T) {
	s := attackScenario(t)
	cifar, err := nn.Build(nn.CIFARArch(), rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	blob := nn.EncodeModel(s.Arch, s.Net)
	for _, tc := range []struct {
		name, want string
		net        []byte
	}{
		{"cifar net in an mnist spec", `architecture "cifar-cnn"`, nn.EncodeModel(nn.CIFARArch(), cifar)},
		{"truncated blob", "truncated", blob[:len(blob)-1]},
		{"bad magic", "bad magic", append([]byte("X"), blob[1:]...)},
	} {
		spec := s.workerSpec(StageReport, s.Config.Defense, []Event{EvBranches})
		spec.Scenario.Net = tc.net
		raw, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		_, err = NewWorkerRunner(context.Background(), raw)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: NewWorkerRunner error = %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}
