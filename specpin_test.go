package repro

// The wire spec pin: the exact bytes a coordinator sends a shardworker
// in its init frame. Those bytes are the campaign's identity — their
// fabric.CampaignDigest names and binds every journal — so a refactor of
// the stage configs must leave them untouched, or journals written by
// the previous build would no longer resume.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/fabric"
)

// specCaptureEnv turns the test binary into a one-shot fake shardworker:
// it reads the init frame, writes the spec bytes to the named file and
// rejects the campaign, so the coordinator fails before any shard runs.
const specCaptureEnv = "REPRO_TEST_CAPTURE_SPEC"

func captureSpec(out string) {
	code := 0
	f, err := fabric.ReadFrame(os.Stdin)
	if err == nil {
		err = os.WriteFile(out, f.Spec, 0o644)
	}
	if err != nil {
		code = 1
	}
	fabric.WriteFrame(os.Stdout, fabric.Frame{Type: fabric.TypeError, Err: "spec captured"})
	os.Exit(code)
}

// capturedSpec runs campaign against the capturing fake worker and
// returns the SHA-256 of the spec bytes its init frame carried.
func capturedSpec(t *testing.T, campaign func(FabricConfig) error) string {
	t.Helper()
	bin, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(t.TempDir(), "spec.json")
	if err := campaign(FabricConfig{WorkerBin: bin, Env: []string{specCaptureEnv + "=" + out}}); err == nil {
		t.Fatal("campaign succeeded against the spec-capturing worker")
	}
	spec, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(spec)
	return hex.EncodeToString(sum[:])
}

// TestWireSpecPinned pins the init-frame spec of the golden report,
// archid and topo campaigns (baseline and padded-envelope).
func TestWireSpecPinned(t *testing.T) {
	report := func(fc FabricConfig) error {
		s, err := NewScenario(ScenarioConfig{Dataset: DatasetMNIST, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		_, err = s.Evaluate(EvalConfig{Classes: []int{1, 2}, RunsPerClass: 60, Workers: 2, Seed: 17, Processes: 1, Fabric: fc})
		return err
	}
	archID := func(fc FabricConfig) error {
		_, err := attackScenario(t).ArchID(context.Background(), ArchIDConfig{
			ProfileRuns: 12, AttackRuns: 6, MaxInputs: 12, Workers: 2, Seed: 17, Processes: 1, Fabric: fc,
		})
		return err
	}
	topo := func(level DefenseLevel) func(FabricConfig) error {
		return func(fc FabricConfig) error {
			_, err := attackScenario(t).TopoGrouped(context.Background(), level, TopoConfig{
				TrainZoo: 6, Holdout: 5, Runs: 6, MaxInputs: 8, Workers: 2, Seed: 17, Processes: 1, Fabric: fc,
			})
			return err
		}
	}
	for _, tc := range []struct {
		name     string
		campaign func(FabricConfig) error
		want     string
	}{
		{"report", report, "8a385ddf0d0476424f15a39c16195ae892a0c2c64a5011ddb9cc63a3ee6885d9"},
		{"archid", archID, "e95d17701bd1b85c3dba794a1784a63831aaaa30fb816dafddaae3fef82eafae"},
		{"topo-baseline", topo(DefenseBaseline), "0e7473ca97dbe61dfed3cd4089c6a383751b84392890f71db5ca2dd912eac4fe"},
		{"topo-padded", topo(DefensePaddedEnvelope), "280cee52417c9cabc390ef7fbbd7c7a3c659810cd0149d7ba4a0058b70fc9a29"},
	} {
		if got := capturedSpec(t, tc.campaign); got != tc.want {
			t.Errorf("%s: wire spec sha256 %s, want %s", tc.name, got, tc.want)
		}
	}
}
