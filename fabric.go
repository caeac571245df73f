package repro

// The repro side of the distributed audit fabric (internal/fabric): the
// campaign spec that crosses the process boundary and the worker-side
// runner construction. Sessions themselves are built in session.go, by
// the same functions on both sides of the boundary.
//
// The spec carries seeds, budgets and the trained network's weights,
// never measured data. A shardworker process rebuilds the campaign from
// it: the synthetic dataset, victims and envelope from seeds, the
// deployed network from the shipped weights (nn.EncodeModel, canonical
// bytes). The weights sit inside the spec bytes, so the campaign digest
// that names a journal binds them too. Every construction step is seeded
// or copied bit for bit, so the rebuilt state is identical to the
// coordinator's — without relying on training reproducing the same
// floats in another process — and a shard measured in another process
// returns the exact bytes the in-process pipeline would have produced.
// That is the whole determinism argument: processes=N only changes
// *where* shards run, never *what* they observe.

import (
	"context"
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/fabric"
	"repro/internal/march"
	"repro/internal/nn"
)

// FabricConfig configures the distributed audit fabric for campaigns
// with Processes ≥ 1.
type FabricConfig struct {
	// WorkerBin is the shardworker binary to launch; "" falls back to the
	// REPRO_SHARDWORKER environment variable.
	WorkerBin string
	// Journal is the base path of the shard-completion journal; each
	// collection session appends ".<stage>.g<session>". "" disables
	// journaling (campaigns are not resumable after a crash).
	Journal string
	// Env adds environment variables to every worker process (the
	// fault-injection hooks in tests).
	Env []string
}

func (fc FabricConfig) workerBin() (string, error) {
	if fc.WorkerBin != "" {
		return fc.WorkerBin, nil
	}
	if bin := os.Getenv("REPRO_SHARDWORKER"); bin != "" {
		return bin, nil
	}
	return "", fmt.Errorf("repro: the fabric needs a shardworker binary (FabricConfig.WorkerBin or $REPRO_SHARDWORKER)")
}

// ScenarioSpec is the wire form of ScenarioConfig: everything a worker
// process needs to rebuild the scenario. Dataset generation and
// deployment are seeded; the network comes from Net when it is set
// (every spec a coordinator sends) and is otherwise retrained from the
// seeds, so the rebuild is bit-identical either way.
type ScenarioSpec struct {
	Dataset        Dataset `json:"dataset"`
	Seed           int64   `json:"seed"`
	PerClassTrain  int     `json:"per_class_train"`
	PerClassTest   int     `json:"per_class_test"`
	Epochs         int     `json:"epochs"`
	LR             float64 `json:"lr,omitempty"`
	Defense        string  `json:"defense"`
	DisableRuntime bool    `json:"disable_runtime,omitempty"`
	DisableNoise   bool    `json:"disable_noise,omitempty"`
	// Net is the deployed network's canonical encoding (nn.EncodeModel).
	Net []byte `json:"net,omitempty"`
}

// spec captures the scenario's rebuild recipe and its trained weights.
func (s *Scenario) spec() ScenarioSpec {
	c := s.Config
	return ScenarioSpec{
		Dataset:        c.Dataset,
		Seed:           c.Seed,
		PerClassTrain:  c.PerClassTrain,
		PerClassTest:   c.PerClassTest,
		Epochs:         c.Epochs,
		LR:             c.LR,
		Defense:        c.Defense.String(),
		DisableRuntime: c.DisableRuntime,
		DisableNoise:   c.DisableNoise,
		Net:            nn.EncodeModel(s.Arch, s.Net),
	}
}

// Build rebuilds the spec's scenario: with shipped weights it generates
// the dataset and deploys the decoded network (no training, no accuracy
// pass); without them it runs the full recipe (NewScenario).
func (sp ScenarioSpec) Build() (*Scenario, error) {
	level, err := ParseDefense(sp.Defense)
	if err != nil {
		return nil, err
	}
	cfg := ScenarioConfig{
		Dataset:        sp.Dataset,
		Seed:           sp.Seed,
		PerClassTrain:  sp.PerClassTrain,
		PerClassTest:   sp.PerClassTest,
		Epochs:         sp.Epochs,
		LR:             sp.LR,
		Defense:        level,
		DisableRuntime: sp.DisableRuntime,
		DisableNoise:   sp.DisableNoise,
	}
	if len(sp.Net) == 0 {
		return NewScenario(cfg)
	}
	arch, net, err := nn.DecodeModel(sp.Net)
	if err != nil {
		return nil, fmt.Errorf("repro: shipped network: %w", err)
	}
	s, err := newScenarioData(cfg)
	if err != nil {
		return nil, err
	}
	if arch != s.Arch {
		return nil, fmt.Errorf("repro: shipped network is architecture %q, the %s scenario deploys %q", arch.Name, cfg.Dataset, s.Arch.Name)
	}
	return s.deploy(net)
}

// Fabric stage names, the WorkerSpec.Stage values. Report and attack
// collections execute identically on a worker (a scenario-target
// pipeline session); the distinct names keep their journals and
// campaign digests apart.
const (
	StageReport  = "report"
	StageAttack  = "attack"
	StageArchID  = "archid"
	StageTopo    = "topo"
	StageMonitor = "monitor"
)

// WorkerSpec is the opaque campaign spec a coordinator sends in the init
// frame: one collection session, fully self-contained. Its canonical
// JSON encoding doubles as the campaign identity — fabric.CampaignDigest
// of these bytes binds the session's journal.
type WorkerSpec struct {
	// Proto pins the spec layout; mismatches fail before any collection.
	Proto string `json:"proto"`
	// Stage selects the campaign kind (Stage* constants).
	Stage string `json:"stage"`
	// Scenario rebuilds the case study on the worker.
	Scenario ScenarioSpec `json:"scenario"`
	// Level is the deployment hardening of this session's victims (sweeps
	// evaluate levels other than the scenario's own).
	Level string `json:"level"`
	// Events are this session's monitored counters (≤ one register group).
	Events []string `json:"events"`
	// Session is the register-group index within a wide-event campaign.
	Session int `json:"session"`

	// Scenario sessions: input classes, run budget and the session's
	// already-derived pipeline root seed. Batch is the monitor stage's
	// window size (core.Config.Batch), the number of runs per window a
	// stream cuts each delivered shard into; it never changes an
	// observation.
	Classes      []int `json:"classes,omitempty"`
	RunsPerClass int   `json:"runs_per_class,omitempty"`
	RootSeed     int64 `json:"root_seed,omitempty"`
	Batch        int   `json:"batch,omitempty"`

	// Monitor sessions: tenant count (≥ 2 co-locates a second classifier
	// on every shard engine, interleaved at Quantum instructions).
	Tenants int `json:"tenants,omitempty"`

	// ArchID/topo sessions: the campaign root seed (victim weights derive
	// from it) and the stage budgets.
	Seed        int64  `json:"campaign_seed,omitempty"`
	ProfileRuns int    `json:"profile_runs,omitempty"`
	AttackRuns  int    `json:"attack_runs,omitempty"`
	MaxInputs   int    `json:"max_inputs,omitempty"`
	NoPad       bool   `json:"no_pad,omitempty"`
	TrainZoo    int    `json:"train_zoo,omitempty"`
	Holdout     int    `json:"holdout,omitempty"`
	Runs        int    `json:"runs,omitempty"`
	Quantum     uint64 `json:"quantum,omitempty"`
}

// specProto is the WorkerSpec layout version, checked independently of
// the frame protocol so a spec-layout drift between binaries also fails
// loudly.
const specProto = "repro-fabric-1"

func eventNames(events []march.Event) []string {
	names := make([]string, len(events))
	for i, e := range events {
		names[i] = e.String()
	}
	return names
}

func parseEventNames(names []string) ([]march.Event, error) {
	events := make([]march.Event, len(names))
	for i, n := range names {
		e, err := march.ParseEvent(n)
		if err != nil {
			return nil, err
		}
		events[i] = e
	}
	return events, nil
}

// NewWorkerRunner is the fabric.BuildRunner of cmd/shardworker: it
// decodes a WorkerSpec, rebuilds the scenario (deploying the shipped
// network when the spec carries one), and builds the spec's
// session through the same collector the coordinator used, returning the
// plan executor the serve loop answers shard frames with.
func NewWorkerRunner(ctx context.Context, raw []byte) (fabric.Runner, error) {
	var spec WorkerSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return nil, fmt.Errorf("repro: decoding worker spec: %w", err)
	}
	if spec.Proto != specProto {
		return nil, fmt.Errorf("repro: worker spec proto %q, want %q — coordinator and shardworker binaries are out of sync", spec.Proto, specProto)
	}
	s, err := spec.Scenario.Build()
	if err != nil {
		return nil, fmt.Errorf("repro: rebuilding scenario: %w", err)
	}
	c, err := s.newCollector(spec, runOpts{workers: 1})
	if err != nil {
		return nil, err
	}
	ss, err := c.session(spec)
	if err != nil {
		return nil, err
	}
	exec, err := ss.p.Executor(ss.factory, ss.pools)
	if err != nil {
		return nil, err
	}
	return exec, nil
}

// journalPath derives the session's journal file from the configured
// base: one campaign runs several sessions (stages × register groups),
// and sweeps run many campaigns side by side — the stage, session and a
// campaign-digest prefix keep every completion log distinct while a
// rerun of the same session always finds its own.
func (fc FabricConfig) journalPath(spec WorkerSpec, digest string) string {
	return fmt.Sprintf("%s.%s.g%d.%s", fc.Journal, spec.Stage, spec.Session, digest[:12])
}
