package defense

import (
	"math/rand"
	"testing"

	"repro/internal/instrument"
	"repro/internal/march"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// envelopeZooNets builds a small mixed hypothesis set (MLP and CNN
// variants over a 12×12 input) with deterministic weights.
func envelopeZooNets(t *testing.T) []*nn.Network {
	t.Helper()
	zoo, err := nn.GenerateZoo(nn.ZooGenConfig{InH: 12, InW: 12, InC: 1, Classes: 4, Size: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	nets := make([]*nn.Network, zoo.Len())
	for _, s := range zoo.Infos() {
		if nets[s.ID], err = zoo.Build(s.ID, int64(100+s.ID)); err != nil {
			t.Fatal(err)
		}
	}
	return nets
}

// TestEnvelopePadsEqualizeExtendedFootprints is the regression test for
// the residual channel the original archid padding left open: padded
// deterministic footprints of every hypothesis member must be identical
// across the *full* default event set — the eight paper events plus the
// per-level L1/LLC/dTLB events — not just the directly-padded LLC and
// instruction counters. Only the ratio-derived bus/ref-cycles may wobble
// by ±1 count (truncation at each deployment's own absolute offset).
func TestEnvelopePadsEqualizeExtendedFootprints(t *testing.T) {
	nets := envelopeZooNets(t)
	input := tensor.New(12, 12, 1)
	rng := rand.New(rand.NewSource(3))
	for i := range input.Data {
		if rng.Float64() < 0.5 {
			input.Data[i] = rng.Float32()
		}
	}
	env, err := NewEnvelope(nets, input, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(env.pads) != len(nets) {
		t.Fatalf("envelope has %d members, want %d", len(env.pads), len(nets))
	}
	var want march.Counts
	for i, net := range nets {
		engine, err := march.NewEngine(march.Config{Hierarchy: instrument.SimHierarchy()})
		if err != nil {
			t.Fatal(err)
		}
		target, err := New(net, engine, Config{
			Level:         PaddedEnvelope,
			Runtime:       instrument.NoRuntime(),
			Envelope:      env,
			EnvelopeIndex: i,
		})
		if err != nil {
			t.Fatal(err)
		}
		engine.ColdReset()
		for w := 0; w < padWarmup; w++ {
			if _, err := target.Classify(input); err != nil {
				t.Fatal(err)
			}
		}
		before := engine.Counts()
		if _, err := target.Classify(input); err != nil {
			t.Fatal(err)
		}
		got := engine.Counts().Sub(before)
		if i == 0 {
			want = got
			continue
		}
		for _, e := range march.ExtendedEvents() {
			g, w := got.Get(e), want.Get(e)
			if e == march.EvBusCycles || e == march.EvRefCycles {
				// The ratio-derived counters truncate at each member's own
				// absolute cycle offset (warm-up cold runs differ), so their
				// per-run deltas may wobble by one count.
				diff := int64(g) - int64(w)
				if diff < -1 || diff > 1 {
					t.Fatalf("member %d padded %s = %d, member 0 = %d — beyond the ±1 truncation wobble", i, e, g, w)
				}
				continue
			}
			if g != w {
				t.Fatalf("member %d padded %s = %d, member 0 = %d — envelope not equalized", i, e, g, w)
			}
		}
	}
	// The equalized totals must match the envelope's reported counts on
	// every directly-counted (non-cycle-family) event.
	envCounts := env.Counts()
	for _, e := range []march.Event{
		march.EvInstructions, march.EvBranches, march.EvBranchMisses,
		march.EvCacheReferences, march.EvCacheMisses,
		march.EvL1DLoads, march.EvL1DLoadMisses,
		march.EvLLCLoads, march.EvLLCLoadMisses,
		march.EvDTLBLoads, march.EvDTLBLoadMisses,
	} {
		if want.Get(e) != envCounts.Get(e) {
			t.Fatalf("padded %s = %d, envelope reports %d", e, want.Get(e), envCounts.Get(e))
		}
	}
}

// TestPaddedEnvelopeNeedsEnvelope: the level must refuse to deploy
// without a precomputed envelope instead of silently not padding.
func TestPaddedEnvelopeNeedsEnvelope(t *testing.T) {
	nets := envelopeZooNets(t)
	engine, err := march.NewEngine(march.Config{Hierarchy: instrument.SimHierarchy()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(nets[0], engine, Config{Level: PaddedEnvelope}); err == nil {
		t.Fatal("PaddedEnvelope deployment without an envelope accepted")
	}
	env, err := NewEnvelope(nets[:1], tensor.New(12, 12, 1), 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(nets[0], engine, Config{Level: PaddedEnvelope, Envelope: env, EnvelopeIndex: 5}); err == nil {
		t.Fatal("out-of-range envelope index accepted")
	}
}
