package archid

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/dataset"
	"repro/internal/defense"
	"repro/internal/march"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// testZoo and testInputs build the shared campaign fixtures once: the full
// default zoo over MNIST-shaped inputs and a small image pool.
func testZoo(t *testing.T) *nn.Zoo {
	t.Helper()
	z, err := nn.DefaultZoo(28, 28, 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	return z
}

func testInputs(t *testing.T, n int) []*tensor.Tensor {
	t.Helper()
	_, test, err := dataset.MNISTLike(dataset.Config{PerClassTrain: 1, PerClassTest: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	var out []*tensor.Tensor
	for _, s := range test.Samples {
		out = append(out, s.Image)
		if len(out) == n {
			break
		}
	}
	return out
}

// runCampaign is the end-to-end single-session campaign the tests score:
// NewCampaign, one Collect of events (default cache-misses and branches), then Score.
func runCampaign(cfg Config, events ...march.Event) (*Result, error) {
	if len(events) == 0 {
		events = []march.Event{march.EvCacheMisses, march.EvBranches}
	}
	c, err := NewCampaign(cfg)
	if err != nil {
		return nil, err
	}
	byArch, err := c.Collect(context.Background(), events, 0)
	if err != nil {
		return nil, err
	}
	return c.Score(events, byArch)
}

func TestConfigValidation(t *testing.T) {
	if _, err := runCampaign(Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
	z := testZoo(t)
	if _, err := runCampaign(Config{Zoo: z}); err == nil {
		t.Fatal("config without inputs accepted")
	}
	ins := testInputs(t, 2)
	if _, err := runCampaign(Config{Zoo: z, Inputs: ins, ProfileRuns: 1, AttackRuns: 2}); err == nil {
		t.Fatal("single profiling run accepted")
	}
	if _, err := runCampaign(Config{Zoo: z, Inputs: ins}, march.ExtendedEvents()...); err == nil {
		t.Fatal("events beyond one register group accepted")
	}
}

// TestBaselineFingerprintsArchitecture is the scenario's headline: at the
// baseline level the template attacker recovers the deployed architecture
// from the zoo far above chance (the architectures' footprints differ by
// orders of magnitude).
func TestBaselineFingerprintsArchitecture(t *testing.T) {
	res, err := runCampaign(Config{
		Name:        "test/baseline",
		Zoo:         testZoo(t),
		Inputs:      testInputs(t, 6),
		ProfileRuns: 10,
		AttackRuns:  5,
		Workers:     2,
		Seed:        17,
	})
	if err != nil {
		t.Fatal(err)
	}
	chance := res.ChanceLevel()
	if acc := res.Attack.Template.Accuracy(); acc < 3*chance {
		t.Fatalf("baseline template recovery = %.3f, want >= 3x chance (%.3f)", acc, chance)
	}
	if acc := res.Attack.KNN.Accuracy(); acc < 3*chance {
		t.Fatalf("baseline kNN recovery = %.3f, want >= 3x chance (%.3f)", acc, chance)
	}
	if res.Padded {
		t.Fatal("baseline deployment reported as padded")
	}
	if len(res.Specs) != res.Attack.Template.Total/5 { // 5 attack runs per arch
		t.Fatalf("specs %d vs matrix total %d", len(res.Specs), res.Attack.Template.Total)
	}
}

// TestConstantTimePaddingHidesArchitecture: the envelope-padded
// constant-time deployment reduces recovery to (near) chance — and not via
// the old templates[0] fallback: predictions must spread over multiple
// architectures and per-arch variances must carry the scale-relative
// floor, proving the scores stayed finite and comparable.
func TestConstantTimePaddingHidesArchitecture(t *testing.T) {
	res, err := runCampaign(Config{
		Name:        "test/constant-time",
		Zoo:         testZoo(t),
		Inputs:      testInputs(t, 6),
		Level:       defense.ConstantTime,
		ProfileRuns: 10,
		AttackRuns:  5,
		Workers:     2,
		Seed:        17,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Padded {
		t.Fatal("constant-time deployment not padded")
	}
	chance := res.ChanceLevel()
	if acc := res.Attack.Template.Accuracy(); acc > 2.5*chance {
		t.Fatalf("padded constant-time template recovery = %.3f, want <= 2.5x chance (%.3f)", acc, chance)
	}
	// The fallback signature would be every prediction landing on the
	// lowest architecture id; genuine chance-level behavior spreads.
	predicted := map[int]bool{}
	for _, row := range res.Attack.Template.Matrix {
		for pred, n := range row {
			if n > 0 {
				predicted[pred] = true
			}
		}
	}
	if len(predicted) < 2 {
		t.Fatalf("template predictions collapsed onto %v — the templates[0] fallback", predicted)
	}
	for _, tpl := range res.Attack.Templates {
		for e, v := range tpl.Variance {
			if v <= 1e-9 {
				t.Fatalf("arch %d event %s variance %g at the degenerate absolute floor", tpl.Class, e, v)
			}
		}
	}
}

// TestConstantTimeWithoutPadStillLeaks is the ablation that justifies the
// envelope pad: per-kernel constant time alone leaves every architecture's
// own fixed footprint observable, and recovery stays far above chance.
func TestConstantTimeWithoutPadStillLeaks(t *testing.T) {
	res, err := runCampaign(Config{
		Name:        "test/constant-time-nopad",
		Zoo:         testZoo(t),
		Inputs:      testInputs(t, 6),
		Level:       defense.ConstantTime,
		NoPad:       true,
		ProfileRuns: 10,
		AttackRuns:  5,
		Workers:     2,
		Seed:        17,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Padded {
		t.Fatal("NoPad deployment reported as padded")
	}
	chance := res.ChanceLevel()
	if acc := res.Attack.Template.Accuracy(); acc < 3*chance {
		t.Fatalf("unpadded constant-time recovery = %.3f, want >= 3x chance (%.3f)", acc, chance)
	}
}

// TestWorkerInvariance: the serialized result is byte-identical at
// workers 1, 2 and 5 (an uneven split of the 7 victims), for bare
// baseline victims and for envelope-padded constant-time ones, so the
// fanned-out layer evidence and envelope footprints are covered as well
// as the collection (run under -race in CI).
func TestWorkerInvariance(t *testing.T) {
	for _, level := range []defense.Level{defense.Baseline, defense.ConstantTime} {
		run := func(workers int) []byte {
			res, err := runCampaign(Config{
				Name:        "test/invariance",
				Zoo:         testZoo(t),
				Inputs:      testInputs(t, 4),
				Level:       level,
				ProfileRuns: 6,
				AttackRuns:  3,
				Workers:     workers,
				Seed:        23,
			})
			if err != nil {
				t.Fatal(err)
			}
			if want := level == defense.ConstantTime; res.Padded != want {
				t.Fatalf("%s: padded %v, want %v", level, res.Padded, want)
			}
			data, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			return data
		}
		one := run(1)
		for _, workers := range []int{2, 5} {
			if got := run(workers); !bytes.Equal(one, got) {
				t.Fatalf("%s: archid results differ across worker counts:\n  workers=1: %s\n  workers=%d: %s", level, one, workers, got)
			}
		}
	}
}

// TestPaddedEnvelopeLevelMatchesConstantTimePad: the promoted
// defense.PaddedEnvelope level is the same campaign as the legacy
// ConstantTime-with-pad spelling — byte-identical results.
func TestPaddedEnvelopeLevelMatchesConstantTimePad(t *testing.T) {
	run := func(level defense.Level) []byte {
		res, err := runCampaign(Config{
			Name:        "test/padded-equivalence",
			Zoo:         testZoo(t),
			Inputs:      testInputs(t, 4),
			Level:       level,
			ProfileRuns: 6,
			AttackRuns:  3,
			Workers:     2,
			Seed:        23,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Padded {
			t.Fatalf("%s campaign not padded", level)
		}
		res.Level = 0 // the level itself is the one intended difference
		data, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	ct, pe := run(defense.ConstantTime), run(defense.PaddedEnvelope)
	if string(ct) != string(pe) {
		t.Fatalf("constant-time+pad and padded-envelope campaigns differ:\n%s\nvs\n%s", ct, pe)
	}
}

// TestEvidenceMatchesSpecs: the deterministic layer evidence must report
// exactly the layer stacks the zoo registered.
func TestEvidenceMatchesSpecs(t *testing.T) {
	zoo := testZoo(t)
	nets, err := Nets(zoo, 1, SeedDomainWeights)
	if err != nil {
		t.Fatal(err)
	}
	input := testInputs(t, 1)[0]
	evidence, err := evidenceForNets(zoo, nets, input, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(evidence) != zoo.Len() {
		t.Fatalf("evidence for %d architectures, want %d", len(evidence), zoo.Len())
	}
	for _, ev := range evidence {
		spec, ok := zoo.ByID(ev.ArchID)
		if !ok {
			t.Fatalf("evidence for unknown arch %d", ev.ArchID)
		}
		if ev.Layers != spec.Layers {
			t.Fatalf("%s: evidence reports %d layers, spec has %d", spec.Name, ev.Layers, spec.Layers)
		}
		if len(ev.PerLayer) != ev.Layers {
			t.Fatalf("%s: %d per-layer profiles for %d layers", spec.Name, len(ev.PerLayer), ev.Layers)
		}
		wantConv := 0
		if spec.Family == "cnn" {
			wantConv = spec.Depth - 1
		}
		if ev.Kinds["conv"] != wantConv {
			t.Fatalf("%s: evidence kinds %v, want %d conv layers", spec.Name, ev.Kinds, wantConv)
		}
	}
	// Determinism: a second computation, fanned out over workers, is
	// identical.
	again, err := evidenceForNets(zoo, nets, input, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(evidence, again) {
		t.Fatal("layer evidence not deterministic")
	}
}
