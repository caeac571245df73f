package branch

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// rates feeds n branches (pc(i), taken(i)) to p and returns the
// mispredict rate of the tournament and of each of its components. A
// component's tables train the same whatever the chooser picks, so its
// rate here is the rate it would have on its own.
func rates(p *Predictor, n int, pc func(i int) uint64, taken func(i int) bool) (tour, bim, gsh float64) {
	var tm, bm, gm int
	for i := 0; i < n; i++ {
		at, tk := pc(i), taken(i)
		key := at >> 2
		if (p.bimodal[key&tableMask] >= 2) != tk {
			bm++
		}
		if (p.gshare[(key^p.history)&tableMask] >= 2) != tk {
			gm++
		}
		if !p.Record(at, tk) {
			tm++
		}
	}
	return float64(tm) / float64(n), float64(bm) / float64(n), float64(gm) / float64(n)
}

func TestBimodalLearnsConstantBranch(t *testing.T) {
	// Always-taken branch: after warm-up, neither the bimodal component
	// nor the tournament mispredicts any more.
	tour, bim, _ := rates(New(), 100, func(int) uint64 { return 0x1000 }, func(int) bool { return true })
	if tour > 0.02 || bim > 0.02 {
		t.Fatalf("rates on a constant branch = %v (tournament), %v (bimodal), want <= 0.02", tour, bim)
	}
}

func TestBimodalAlternatingWorstCase(t *testing.T) {
	// A strict alternation defeats a 2-bit counter: expect a high rate
	// from the bimodal component.
	_, bim, _ := rates(New(), 1000, func(int) uint64 { return 0x2000 }, func(i int) bool { return i%2 == 0 })
	if bim < 0.4 {
		t.Fatalf("bimodal rate on alternation = %v, want >= 0.4", bim)
	}
}

func TestGShareLearnsAlternation(t *testing.T) {
	// History lets gshare nail a period-2 pattern after warm-up, and the
	// chooser hands the branch to it.
	tour, _, gsh := rates(New(), 2000, func(int) uint64 { return 0x2000 }, func(i int) bool { return i%2 == 0 })
	if tour > 0.1 || gsh > 0.1 {
		t.Fatalf("rates on alternation = %v (tournament), %v (gshare), want <= 0.1", tour, gsh)
	}
}

func TestGShareLearnsLongerPattern(t *testing.T) {
	pattern := []bool{true, true, false, true, false, false}
	tour, _, gsh := rates(New(), 6000, func(int) uint64 { return 0x3000 }, func(i int) bool { return pattern[i%len(pattern)] })
	if tour > 0.1 || gsh > 0.1 {
		t.Fatalf("rates on period-6 pattern = %v (tournament), %v (gshare), want <= 0.1", tour, gsh)
	}
}

func TestTournamentBeatsOrMatchesComponents(t *testing.T) {
	// Mixed workload: one biased branch (bimodal-friendly) + one patterned
	// branch (gshare-friendly), interleaved.
	rng := rand.New(rand.NewSource(3))
	tour, bim, gsh := rates(New(), 16000,
		func(i int) uint64 { return 0x100 << (i % 2) },
		func(i int) bool {
			if i%2 == 0 {
				return rng.Float64() < 0.95
			}
			return i%4 == 1
		})
	if tour > bim+0.02 && tour > gsh+0.02 {
		t.Fatalf("tournament (%.3f) worse than both bimodal (%.3f) and gshare (%.3f)", tour, bim, gsh)
	}
}

func TestPredictorReset(t *testing.T) {
	p := New()
	for i := 0; i < 50; i++ {
		p.Record(uint64(i*4), i%3 == 0)
	}
	p.Reset()
	if *p != *New() {
		t.Fatal("Reset left trained state behind")
	}
}

// TestBimodalTableSize: the pattern tables have 4096 counters, so PCs
// 4096×4 apart share one and PCs 2048×4 apart do not.
func TestBimodalTableSize(t *testing.T) {
	p := New()
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

func TestQuickDeterminism(t *testing.T) {
	f := func(seed int64) bool {
		run := func() (*Predictor, int) {
			p := New()
			rng := rand.New(rand.NewSource(seed))
			miss := 0
			for i := 0; i < 1500; i++ {
				if !p.Record(uint64(rng.Intn(128)*4), rng.Float64() < 0.7) {
					miss++
				}
			}
			return p, miss
		}
		a, am := run()
		b, bm := run()
		return am == bm && *a == *b
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickRecordRunMatchesRecords: RecordRun(pc, taken, n) leaves the
// predictor exactly where n Record(pc, taken) calls leave it and returns
// the number of those calls that mispredict — for n below, at and well
// past the point where the run's state stops changing.
func TestQuickRecordRunMatchesRecords(t *testing.T) {
	lengths := []uint64{0, 1, 2, 3, 4, 5, 8, 12, 13, 16, 24, 40, 1000}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		run, each := New(), New()
		for step := 0; step < 200; step++ {
			pc := uint64(rng.Intn(16)) * 4
			if rng.Intn(4) == 0 {
				pc += uint64(rng.Intn(4)) << 14 // aliases the same table entries
			}
			taken := rng.Intn(3) != 0
			n := lengths[rng.Intn(len(lengths))]
			got := run.RecordRun(pc, taken, n)
			var want uint64
			for i := uint64(0); i < n; i++ {
				if !each.Record(pc, taken) {
					want++
				}
			}
			if got != want {
				t.Logf("seed %d step %d: RecordRun(%#x, %v, %d) = %d mispredicts, Record calls %d", seed, step, pc, taken, n, got, want)
				return false
			}
			if *run != *each {
				t.Logf("seed %d step %d: state diverged after RecordRun(%#x, %v, %d)", seed, step, pc, taken, n)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
