package hpc

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/march"
	"repro/internal/march/mem"
)

func newEngine(t *testing.T) *march.Engine {
	t.Helper()
	e, err := march.NewEngine(march.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestNewPMUValidation(t *testing.T) {
	if _, err := NewPMU(nil, 0); err == nil {
		t.Fatal("nil engine accepted")
	}
	p, err := NewPMU(newEngine(t), 0)
	if err != nil {
		t.Fatal(err)
	}
	if p.Registers() != DefaultCounters {
		t.Fatalf("default registers = %d, want %d", p.Registers(), DefaultCounters)
	}
}

func TestProgramValidation(t *testing.T) {
	p, _ := NewPMU(newEngine(t), 4)
	if err := p.Program(); err == nil {
		t.Fatal("empty program accepted")
	}
	if err := p.Program(march.EvCycles, march.EvCycles); err == nil {
		t.Fatal("duplicate event accepted")
	}
	if err := p.Program(march.Event(99)); err == nil {
		t.Fatal("invalid event accepted")
	}
	if err := p.Program(march.EvCycles, march.EvBranches); err != nil {
		t.Fatal(err)
	}
	if p.Multiplexed() {
		t.Fatal("2 events on 4 registers reported multiplexed")
	}
}

func TestMeasureWithoutProgram(t *testing.T) {
	p, _ := NewPMU(newEngine(t), 4)
	if _, err := p.Measure(1, func(int) {}); err == nil {
		t.Fatal("Measure before Program accepted")
	}
}

func TestMeasureOnceCountsExactly(t *testing.T) {
	e := newEngine(t)
	p, _ := NewPMU(e, 6)
	if err := p.Program(march.EvInstructions, march.EvBranches); err != nil {
		t.Fatal(err)
	}
	prof, err := p.MeasureOnce(func() {
		e.Ops(100)
		for i := 0; i < 10; i++ {
			e.Branch(0x40, true)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if prof.Get(march.EvInstructions) != 110 {
		t.Fatalf("instructions = %v, want 110", prof.Get(march.EvInstructions))
	}
	if prof.Get(march.EvBranches) != 10 {
		t.Fatalf("branches = %v, want 10", prof.Get(march.EvBranches))
	}
}

func TestMeasureIsolatesInterval(t *testing.T) {
	// Activity before Measure must not leak into the profile.
	e := newEngine(t)
	e.Ops(5000)
	p, _ := NewPMU(e, 6)
	p.Program(march.EvInstructions)
	prof, err := p.MeasureOnce(func() { e.Ops(7) })
	if err != nil {
		t.Fatal(err)
	}
	if prof.Get(march.EvInstructions) != 7 {
		t.Fatalf("interval not isolated: %v", prof.Get(march.EvInstructions))
	}
}

func TestMultiplexingSchedulesAllEventsWithScaling(t *testing.T) {
	// 8 events on 6 registers → 2 groups, as on the paper's machine.
	e := newEngine(t)
	p, _ := NewPMU(e, 6)
	if err := p.Program(march.AllEvents()...); err != nil {
		t.Fatal(err)
	}
	if !p.Multiplexed() {
		t.Fatal("8 events on 6 registers not multiplexed")
	}
	// MeasureOnce must refuse: it cannot rotate groups.
	if _, err := p.MeasureOnce(func() {}); err == nil {
		t.Fatal("MeasureOnce accepted a multiplexed program")
	}
	// A uniform workload over 10 slices: scaled counts must approximate
	// the true totals.
	const slices = 10
	prof, err := p.Measure(slices, func(int) {
		e.Ops(1000)
		for i := 0; i < 100; i++ {
			e.Branch(0x80, true)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	wantInstr := float64(slices * 1100)
	got := prof.Get(march.EvInstructions)
	if math.Abs(got-wantInstr)/wantInstr > 0.25 {
		t.Fatalf("scaled instructions = %v, want ≈ %v", got, wantInstr)
	}
	wantBr := float64(slices * 100)
	if got := prof.Get(march.EvBranches); math.Abs(got-wantBr)/wantBr > 0.25 {
		t.Fatalf("scaled branches = %v, want ≈ %v", got, wantBr)
	}
	// Every one of the 8 requested events must be present.
	if len(prof) != len(march.AllEvents()) {
		t.Fatalf("profile has %d events, want %d", len(prof), len(march.AllEvents()))
	}
}

func TestReprogramScrubsStaleProfileKeys(t *testing.T) {
	// A Profile reused across Program calls with different event sets must
	// not keep the previous programming's counts: stale keys would leak
	// into Profile.Events() and attacker feature vectors.
	eng := newEngine(t)
	p, _ := NewPMU(eng, 4)
	if err := p.Program(march.EvInstructions, march.EvBranches); err != nil {
		t.Fatal(err)
	}
	prof := Profile{}
	work := func() { eng.Ops(100) }
	if err := p.MeasureOnceInto(prof, work); err != nil {
		t.Fatal(err)
	}
	if _, ok := prof[march.EvBranches]; !ok {
		t.Fatal("first programming did not record branches")
	}

	if err := p.Program(march.EvInstructions, march.EvCycles); err != nil {
		t.Fatal(err)
	}
	if err := p.MeasureOnceInto(prof, work); err != nil {
		t.Fatal(err)
	}
	if _, ok := prof[march.EvBranches]; ok {
		t.Fatalf("stale branches key survived reprogramming: %v", prof)
	}
	evs := prof.Events()
	if len(evs) != 2 || evs[0] != march.EvCycles || evs[1] != march.EvInstructions {
		t.Fatalf("Events() after reprogramming = %v, want [cycles instructions]", evs)
	}

	// The multiplexed Measure path scrubs too.
	if err := p.Program(march.EvInstructions, march.EvBranches, march.EvCycles,
		march.EvBusCycles, march.EvRefCycles); err != nil {
		t.Fatal(err)
	}
	if err := p.MeasureInto(prof, 2, func(int) { eng.Ops(10) }); err != nil {
		t.Fatal(err)
	}
	if len(prof) != 5 {
		t.Fatalf("multiplexed profile has %d events, want 5: %v", len(prof), prof)
	}
	if err := p.Program(march.EvCacheMisses); err != nil {
		t.Fatal(err)
	}
	if err := p.MeasureInto(prof, 1, func(int) { eng.Ops(10) }); err != nil {
		t.Fatal(err)
	}
	if len(prof) != 1 {
		t.Fatalf("profile after narrowing has %d events, want 1: %v", len(prof), prof)
	}
	if _, ok := prof[march.EvCacheMisses]; !ok {
		t.Fatal("current programming's event missing after scrub")
	}
}

func TestMeasureSliceValidation(t *testing.T) {
	e := newEngine(t)
	p, _ := NewPMU(e, 2)
	p.Program(march.EvCycles, march.EvInstructions, march.EvBranches) // 2 groups
	if _, err := p.Measure(0, func(int) {}); err == nil {
		t.Fatal("zero slices accepted")
	}
	if _, err := p.Measure(1, func(int) {}); err == nil {
		t.Fatal("fewer slices than groups accepted")
	}
	if _, err := p.Measure(2, func(int) { e.Ops(1) }); err != nil {
		t.Fatal(err)
	}
}

func TestProfileAccessors(t *testing.T) {
	prof := Profile{march.EvCycles: 10, march.EvBranches: 5}
	evs := prof.Events()
	if len(evs) != 2 || evs[0] != march.EvBranches {
		t.Fatalf("Events order = %v, want branches first (alphabetical)", evs)
	}
}

func TestFormatIndian(t *testing.T) {
	cases := map[uint64]string{
		0:           "0",
		999:         "999",
		1000:        "1,000",
		83_64_694:   "83,64,694",
		6_24_60_873: "6,24,60,873",
		// From Figure 2(b): 2,26,77,01,129 branches.
		2_26_77_01_129: "2,26,77,01,129",
		// From Figure 2(b): 16,22,12,80,350 cycles.
		16_22_12_80_350: "16,22,12,80,350",
	}
	for n, want := range cases {
		if got := FormatIndian(n); got != want {
			t.Errorf("FormatIndian(%d) = %q, want %q", n, got, want)
		}
	}
}

func TestFormatStatLayout(t *testing.T) {
	prof := Profile{
		march.EvBranches:    2_26_77_01_129,
		march.EvCacheMisses: 83_64_694,
	}
	out := FormatStat(prof)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("FormatStat produced %d lines, want 2", len(lines))
	}
	if !strings.Contains(lines[0], "2,26,77,01,129") || !strings.HasSuffix(lines[0], "branches") {
		t.Fatalf("line 0 = %q", lines[0])
	}
	if !strings.Contains(lines[1], "83,64,694") || !strings.HasSuffix(lines[1], "cache-misses") {
		t.Fatalf("line 1 = %q", lines[1])
	}
	// Counts right-aligned: both count columns end at the same offset.
	if strings.Index(lines[0], " branches") < strings.Index(lines[1], " cache-misses")-4 {
		t.Fatalf("columns misaligned:\n%s", out)
	}
}

func TestParseEventList(t *testing.T) {
	evs, err := ParseEventList("cache-misses, branches")
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 2 || evs[0] != march.EvCacheMisses || evs[1] != march.EvBranches {
		t.Fatalf("parsed %v", evs)
	}
	if _, err := ParseEventList(""); err == nil {
		t.Fatal("empty list accepted")
	}
	if _, err := ParseEventList("cache-misses,bogus"); err == nil {
		t.Fatal("bogus event accepted")
	}
}

func TestRegistrySpawnLookupKill(t *testing.T) {
	r := NewRegistry()
	if _, err := r.Spawn("x", nil); err == nil {
		t.Fatal("nil engine accepted")
	}
	p1, err := r.Spawn("classifier", newEngine(t))
	if err != nil {
		t.Fatal(err)
	}
	p2, _ := r.Spawn("other", newEngine(t))
	if p2.PID <= p1.PID {
		t.Fatal("PIDs not increasing")
	}
	got, err := r.Lookup(p1.PID)
	if err != nil || got.Name != "classifier" {
		t.Fatalf("Lookup = %v, %v", got, err)
	}
	if _, err := r.Lookup(p2.PID + 1); err == nil {
		t.Fatal("unknown pid found")
	}
}

func TestAttachMeasuresTargetProcessOnly(t *testing.T) {
	r := NewRegistry()
	victim, _ := r.Spawn("victim", newEngine(t))
	bystander, _ := r.Spawn("bystander", newEngine(t))
	pmu, err := r.Attach(victim.PID, 6)
	if err != nil {
		t.Fatal(err)
	}
	pmu.Program(march.EvInstructions)
	prof, err := pmu.MeasureOnce(func() {
		victim.Engine.Ops(42)
		bystander.Engine.Ops(9999) // other process's work is invisible
	})
	if err != nil {
		t.Fatal(err)
	}
	if prof.Get(march.EvInstructions) != 42 {
		t.Fatalf("attached PMU saw %v instructions, want 42", prof.Get(march.EvInstructions))
	}
	if _, err := r.Attach(55555, 6); err == nil {
		t.Fatal("attach to missing pid accepted")
	}
}

func TestQuickFormatIndianDigitsPreserved(t *testing.T) {
	// Stripping commas recovers the decimal representation.
	f := func(n uint64) bool {
		s := FormatIndian(n)
		return strings.ReplaceAll(s, ",", "") == fmt_uint(n) && !strings.HasPrefix(s, ",")
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func fmt_uint(n uint64) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

func TestQuickMultiplexScalingUnbiased(t *testing.T) {
	// For a uniform workload, scaled counts converge to truth regardless
	// of register count.
	f := func(regRaw uint8) bool {
		regs := 1 + int(regRaw%6)
		e, err := march.NewEngine(march.Config{})
		if err != nil {
			return false
		}
		p, err := NewPMU(e, regs)
		if err != nil {
			return false
		}
		if err := p.Program(march.AllEvents()...); err != nil {
			return false
		}
		groups := (len(march.AllEvents()) + regs - 1) / regs
		slices := groups * 6
		prof, err := p.Measure(slices, func(int) {
			e.Ops(500)
			e.Load(mem.Addr(0x1000), 4)
		})
		if err != nil {
			return false
		}
		want := float64(slices) * 501
		got := prof.Get(march.EvInstructions)
		return math.Abs(got-want)/want < 0.35
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
