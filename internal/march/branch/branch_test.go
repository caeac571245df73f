package branch

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// mispredictRate returns mispredicts/branches (0 when no branches).
func mispredictRate(s Stats) float64 {
	if s.Branches == 0 {
		return 0
	}
	return float64(s.Mispredicts) / float64(s.Branches)
}

func TestKindString(t *testing.T) {
	names := map[Kind]string{
		StaticTaken: "static-taken", Bimodal: "bimodal", GShare: "gshare",
		Tournament: "tournament", Kind(7): "kind(7)",
	}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("Kind(%d).String() = %q, want %q", int(k), k.String(), want)
		}
	}
}

func TestStaticTaken(t *testing.T) {
	p := New(StaticTaken)
	p.Record(0x40, true)
	p.Record(0x40, false)
	st := p.Stats()
	if st.Branches != 2 || st.Mispredicts != 1 {
		t.Fatalf("stats = %+v, want 2 branches / 1 miss", st)
	}
	if mispredictRate(st) != 0.5 {
		t.Fatalf("rate = %v, want 0.5", mispredictRate(st))
	}
}

func TestBimodalLearnsConstantBranch(t *testing.T) {
	p := New(Bimodal)
	// Always-taken branch: after warm-up, no more mispredicts.
	for i := 0; i < 100; i++ {
		p.Record(0x1000, true)
	}
	st := p.Stats()
	if st.Mispredicts > 2 {
		t.Fatalf("bimodal mispredicted %d times on a constant branch", st.Mispredicts)
	}
}

func TestBimodalAlternatingWorstCase(t *testing.T) {
	p := New(Bimodal)
	for i := 0; i < 1000; i++ {
		p.Record(0x2000, i%2 == 0)
	}
	// A strict alternation defeats a 2-bit counter: expect a high rate.
	if r := mispredictRate(p.Stats()); r < 0.4 {
		t.Fatalf("bimodal rate on alternation = %v, want >= 0.4", r)
	}
}

func TestGShareLearnsAlternation(t *testing.T) {
	p := New(GShare)
	for i := 0; i < 2000; i++ {
		p.Record(0x2000, i%2 == 0)
	}
	// History lets gshare nail a period-2 pattern after warm-up.
	if r := mispredictRate(p.Stats()); r > 0.1 {
		t.Fatalf("gshare rate on alternation = %v, want <= 0.1", r)
	}
}

func TestGShareLearnsLongerPattern(t *testing.T) {
	p := New(GShare)
	pattern := []bool{true, true, false, true, false, false}
	for i := 0; i < 6000; i++ {
		p.Record(0x3000, pattern[i%len(pattern)])
	}
	if r := mispredictRate(p.Stats()); r > 0.1 {
		t.Fatalf("gshare rate on period-6 pattern = %v, want <= 0.1", r)
	}
}

func TestTournamentBeatsOrMatchesComponents(t *testing.T) {
	// Mixed workload: one biased branch (bimodal-friendly) + one patterned
	// branch (gshare-friendly).
	run := func(kind Kind) float64 {
		p := New(kind)
		rng := rand.New(rand.NewSource(3))
		for i := 0; i < 8000; i++ {
			p.Record(0x100, rng.Float64() < 0.95)
			p.Record(0x200, i%2 == 0)
		}
		return mispredictRate(p.Stats())
	}
	tRate := run(Tournament)
	bRate := run(Bimodal)
	gRate := run(GShare)
	if tRate > bRate+0.02 && tRate > gRate+0.02 {
		t.Fatalf("tournament (%.3f) worse than both bimodal (%.3f) and gshare (%.3f)", tRate, bRate, gRate)
	}
}

func TestPredictorReset(t *testing.T) {
	for _, kind := range []Kind{StaticTaken, Bimodal, GShare, Tournament} {
		p := New(kind)
		for i := 0; i < 50; i++ {
			p.Record(uint64(i*4), i%3 == 0)
		}
		p.Reset()
		if st := p.Stats(); st.Branches != 0 || st.Mispredicts != 0 {
			t.Errorf("%v: Reset left stats %+v", kind, st)
		}
		if p.Kind() != kind {
			t.Errorf("Kind() = %v, want %v", p.Kind(), kind)
		}
	}
}

// TestBimodalTableSize: the pattern table has 4096 counters, so PCs
// 4096×4 apart share one and PCs 2048×4 apart do not.
func TestBimodalTableSize(t *testing.T) {
	p := New(Bimodal)
	for i := 0; i < 4; i++ {
		p.Record(0x1000, true)
	}
	if !p.Record(0x1000+4096*4, true) {
		t.Fatal("a PC 4096 entries away missed the trained counter it aliases")
	}
	if p.Record(0x1000+2048*4, true) {
		t.Fatal("a PC 2048 entries away hit on an untrained counter")
	}
}

func TestUnknownKindFallsBackToStatic(t *testing.T) {
	p := New(Kind(42))
	if p.Kind() != StaticTaken {
		t.Fatalf("unknown kind produced %v", p.Kind())
	}
}

func TestBTB(t *testing.T) {
	b := NewBTB()
	if b.Lookup(0x40, 0x100) {
		t.Fatal("cold BTB lookup hit")
	}
	if !b.Lookup(0x40, 0x100) {
		t.Fatal("warm BTB lookup missed")
	}
	// Target change is a miss and retrains.
	if b.Lookup(0x40, 0x200) {
		t.Fatal("changed target reported as hit")
	}
	if !b.Lookup(0x40, 0x200) {
		t.Fatal("retrained target missed")
	}
	// 512 entries: a PC 256 entries away has its own entry, one 512
	// entries away evicts it.
	if b.Lookup(0x40+256*4, 0x300) || !b.Lookup(0x40, 0x200) {
		t.Fatal("PCs 256 entries apart share a BTB entry")
	}
	if b.Lookup(0x40+512*4, 0x300) || b.Lookup(0x40, 0x200) {
		t.Fatal("PCs 512 entries apart do not share a BTB entry")
	}
	b.Reset()
	if b.Lookup(0x40, 0x200) {
		t.Fatal("Reset kept a BTB entry")
	}
}

func TestQuickStatsInvariant(t *testing.T) {
	// branches == number of Record calls; mispredicts <= branches.
	f := func(seed int64, kindRaw uint8) bool {
		p := New(Kind(int(kindRaw) % 4))
		rng := rand.New(rand.NewSource(seed))
		n := 500 + rng.Intn(500)
		for i := 0; i < n; i++ {
			p.Record(uint64(rng.Intn(64)*4), rng.Intn(2) == 0)
		}
		st := p.Stats()
		return st.Branches == uint64(n) && st.Mispredicts <= st.Branches
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickDeterminism(t *testing.T) {
	f := func(seed int64) bool {
		run := func() Stats {
			p := New(Tournament)
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 1500; i++ {
				p.Record(uint64(rng.Intn(128)*4), rng.Float64() < 0.7)
			}
			return p.Stats()
		}
		return run() == run()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
