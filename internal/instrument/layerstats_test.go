package instrument

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/march"
)

func TestAttributionMatchesPlainClassify(t *testing.T) {
	a, net := buildClassifier(t, Options{SparsitySkip: true})
	b, _ := buildClassifier(t, Options{SparsitySkip: true})
	_ = net
	img := randImage(21)
	plain, err := a.Classify(img)
	if err != nil {
		t.Fatal(err)
	}
	attributed, layers, err := b.ClassifyWithAttribution(img)
	if err != nil {
		t.Fatal(err)
	}
	if plain != attributed {
		t.Fatalf("attributed classify predicted %d, plain %d", attributed, plain)
	}
	// One entry per layer plus the runtime pseudo-layer.
	// tiny arch: conv relu pool conv relu pool flatten dense = 8 layers.
	if len(layers) != 9 {
		t.Fatalf("attribution has %d entries, want 9", len(layers))
	}
	if layers[len(layers)-1].Kind != "runtime" || layers[len(layers)-1].Index != -1 {
		t.Fatal("runtime pseudo-layer missing or misplaced")
	}
}

// TestClassifyWarmStateAttribution: attribution observes, never
// perturbs. Warming two identical classifiers on the same inputs — one
// through Classify, one through ClassifyWithAttribution — must leave
// byte-identical micro-architectural state: a subsequent attributed
// probe sees the same prediction and the same per-layer counter deltas.
func TestClassifyWarmStateAttribution(t *testing.T) {
	opts := Options{SparsitySkip: true, Runtime: DefaultRuntime(), Seed: 21}
	plain, _ := buildClassifier(t, opts)
	attributed, _ := buildClassifier(t, opts)
	for k := int64(0); k < 4; k++ {
		img := randImage(5 + k)
		if _, err := plain.Classify(img); err != nil {
			t.Fatal(err)
		}
		if _, _, err := attributed.ClassifyWithAttribution(img); err != nil {
			t.Fatal(err)
		}
	}
	probe := randImage(17)
	wantCls, wantLayers, err := attributed.ClassifyWithAttribution(probe)
	if err != nil {
		t.Fatal(err)
	}
	gotCls, gotLayers, err := plain.ClassifyWithAttribution(probe)
	if err != nil {
		t.Fatal(err)
	}
	if gotCls != wantCls {
		t.Fatalf("probe prediction after Classify warm-up %d, after attributed warm-up %d", gotCls, wantCls)
	}
	if !reflect.DeepEqual(gotLayers, wantLayers) {
		t.Fatalf("per-layer attribution diverges with warm-up path:\nClassify   %+v\nattributed %+v", gotLayers, wantLayers)
	}
}

func TestAttributionSumsToTotal(t *testing.T) {
	c, _ := buildClassifier(t, Options{SparsitySkip: true, Runtime: DefaultRuntime(), Seed: 4})
	img := randImage(22)
	before := c.Engine().Counts()
	_, layers, err := c.ClassifyWithAttribution(img)
	if err != nil {
		t.Fatal(err)
	}
	total := c.Engine().Counts().Sub(before)
	var sum march.Counts
	for _, lc := range layers {
		for i := range sum {
			sum[i] += lc.Counts[i]
		}
	}
	// The attribution misses only the input streaming store and the argmax
	// scan (tiny); instructions must agree within 1%.
	si := sum.Get(march.EvInstructions)
	ti := total.Get(march.EvInstructions)
	diff := float64(int64(ti) - int64(si))
	if diff < 0 {
		diff = -diff
	}
	if diff/float64(ti) > 0.01 {
		t.Fatalf("attributed instructions %d vs total %d", si, ti)
	}
}

func TestAttributionConvDominatesForConvNet(t *testing.T) {
	c, _ := buildClassifier(t, Options{SparsitySkip: true})
	_, layers, err := c.ClassifyWithAttribution(randImage(23))
	if err != nil {
		t.Fatal(err)
	}
	var convInstr, otherInstr uint64
	for _, lc := range layers {
		if lc.Kind == "conv" {
			convInstr += lc.Counts.Get(march.EvInstructions)
		} else if lc.Kind != "runtime" {
			otherInstr += lc.Counts.Get(march.EvInstructions)
		}
	}
	if convInstr <= otherInstr {
		t.Fatalf("conv layers (%d instr) not dominant over others (%d)", convInstr, otherInstr)
	}
}

func TestAttributionRejectsWrongShape(t *testing.T) {
	c, _ := buildClassifier(t, Options{SparsitySkip: true})
	if _, _, err := c.ClassifyWithAttribution(randImage(1)); err != nil {
		t.Fatal(err) // correct shape must pass
	}
	bad := randImage(1)
	bad.Shape = []int{4, 4, 1}
	bad.Data = bad.Data[:16]
	if _, _, err := c.ClassifyWithAttribution(bad); err == nil {
		t.Fatal("wrong shape accepted")
	}
}

// TestSummarizeAttributionDegenerate is the table-driven hardening suite
// for the attribution consumers: the topology-recovery segmenter feeds on
// these summaries, so empty traces, single layers, runtime-only traces and
// unknown kind strings must all reduce cleanly (non-nil histogram, no
// "" bucket, runtime excluded).
func TestSummarizeAttributionDegenerate(t *testing.T) {
	mk := func(index int, kind string) LayerCounts {
		return LayerCounts{Index: index, Kind: kind}
	}
	cases := []struct {
		name      string
		attr      []LayerCounts
		layers    int
		kinds     map[string]int
		rendered  []string // substrings RenderAttribution must emit
		forbidden []string // substrings it must not emit
	}{
		{
			name:     "empty",
			attr:     nil,
			layers:   0,
			kinds:    map[string]int{},
			rendered: []string{"layer", "(empty attribution)"},
		},
		{
			name:     "single layer",
			attr:     []LayerCounts{mk(0, "dense")},
			layers:   1,
			kinds:    map[string]int{"dense": 1},
			rendered: []string{"dense"},
		},
		{
			name:      "runtime only",
			attr:      []LayerCounts{mk(-1, "runtime")},
			layers:    0,
			kinds:     map[string]int{},
			rendered:  []string{"runtime"},
			forbidden: []string{"(empty attribution)"},
		},
		{
			name:     "unknown kind string",
			attr:     []LayerCounts{mk(0, "conv"), mk(1, "")},
			layers:   2,
			kinds:    map[string]int{"conv": 1, UnknownKind: 1},
			rendered: []string{"conv", UnknownKind},
		},
		{
			name:   "mixed with runtime",
			attr:   []LayerCounts{mk(0, "conv"), mk(1, "relu"), mk(-1, "runtime")},
			layers: 2,
			kinds:  map[string]int{"conv": 1, "relu": 1},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			layers, kinds := SummarizeAttribution(tc.attr)
			if layers != tc.layers {
				t.Fatalf("layers = %d, want %d", layers, tc.layers)
			}
			if kinds == nil {
				t.Fatal("kind histogram is nil")
			}
			if len(kinds) != len(tc.kinds) {
				t.Fatalf("kinds = %v, want %v", kinds, tc.kinds)
			}
			for k, n := range tc.kinds {
				if kinds[k] != n {
					t.Fatalf("kinds[%q] = %d, want %d (full: %v)", k, kinds[k], n, kinds)
				}
			}
			var b strings.Builder
			RenderAttribution(&b, tc.attr)
			out := b.String()
			for _, want := range tc.rendered {
				if !strings.Contains(out, want) {
					t.Fatalf("rendered table missing %q:\n%s", want, out)
				}
			}
			for _, bad := range tc.forbidden {
				if strings.Contains(out, bad) {
					t.Fatalf("rendered table contains %q:\n%s", bad, out)
				}
			}
		})
	}
}

func TestRenderAttribution(t *testing.T) {
	c, _ := buildClassifier(t, Options{SparsitySkip: true})
	_, layers, err := c.ClassifyWithAttribution(randImage(24))
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	RenderAttribution(&b, layers)
	out := b.String()
	if !strings.Contains(out, "conv") || !strings.Contains(out, "runtime") {
		t.Fatalf("attribution table malformed:\n%s", out)
	}
	if !strings.Contains(out, "cache-misses") {
		t.Fatalf("default events missing:\n%s", out)
	}
	b.Reset()
	RenderAttribution(&b, layers, march.EvCycles)
	if !strings.Contains(b.String(), "cycles") {
		t.Fatal("custom event column missing")
	}
}
