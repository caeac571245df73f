// Package march is the micro-architecture simulation engine: it combines
// the cache hierarchy and branch predictor into an execution environment
// that instrumented code drives with loads, stores, branches and retired
// instruction counts, and it derives the eight hardware events the paper's
// Figure 2(b) lists (branches, branch-misses, bus-cycles, cache-misses,
// cache-references, cycles, instructions, ref-cycles).
package march

import (
	"fmt"
	"math/rand"

	"repro/internal/march/branch"
	"repro/internal/march/cache"
	"repro/internal/march/mem"
	"repro/internal/obs"
)

// Event identifies a hardware event, mirroring the perf event names used
// throughout the paper.
type Event int

// The eight events of Figure 2(b), followed by the extended per-level
// events a real perf installation also exposes (the paper notes "more
// than 1000" events exist; we model the ones our simulated structures can
// honestly produce).
const (
	EvBranches Event = iota
	EvBranchMisses
	EvBusCycles
	EvCacheMisses
	EvCacheReferences
	EvCycles
	EvInstructions
	EvRefCycles
	// Extended events beyond Figure 2(b).
	EvL1DLoads
	EvL1DLoadMisses
	EvLLCLoads
	EvLLCLoadMisses
	EvDTLBLoads
	EvDTLBLoadMisses
	numEvents
)

// NumEvents is the number of defined hardware events.
const NumEvents = int(numEvents)

var eventNames = [NumEvents]string{
	EvBranches:        "branches",
	EvBranchMisses:    "branch-misses",
	EvBusCycles:       "bus-cycles",
	EvCacheMisses:     "cache-misses",
	EvCacheReferences: "cache-references",
	EvCycles:          "cycles",
	EvInstructions:    "instructions",
	EvRefCycles:       "ref-cycles",
	EvL1DLoads:        "L1-dcache-loads",
	EvL1DLoadMisses:   "L1-dcache-load-misses",
	EvLLCLoads:        "LLC-loads",
	EvLLCLoadMisses:   "LLC-load-misses",
	EvDTLBLoads:       "dTLB-loads",
	EvDTLBLoadMisses:  "dTLB-load-misses",
}

// String returns the perf-style event name.
func (e Event) String() string {
	if e >= 0 && int(e) < NumEvents {
		return eventNames[e]
	}
	return fmt.Sprintf("event(%d)", int(e))
}

// ParseEvent resolves a perf-style event name.
func ParseEvent(name string) (Event, error) {
	for e := Event(0); e < numEvents; e++ {
		if e.String() == name {
			return e, nil
		}
	}
	return 0, fmt.Errorf("march: unknown event %q", name)
}

// BaseEvents returns the paper's base event set (Tables 1 and 2):
// cache-misses and branches. Every campaign defaults to it, and it is the
// "base" event spec.
func BaseEvents() []Event { return []Event{EvCacheMisses, EvBranches} }

// AllEvents returns the eight events of Figure 2(b) in the paper's
// (alphabetical) order, as perf prints them.
func AllEvents() []Event {
	return []Event{EvBranches, EvBranchMisses, EvBusCycles, EvCacheMisses,
		EvCacheReferences, EvCycles, EvInstructions, EvRefCycles}
}

// ExtendedEvents returns every modeled event, including the per-level
// cache and TLB events beyond Figure 2(b).
func ExtendedEvents() []Event {
	out := make([]Event, NumEvents)
	for i := range out {
		out[i] = Event(i)
	}
	return out
}

// Counts is a snapshot of all event counters.
type Counts [NumEvents]uint64

// Get returns the count for an event.
func (c Counts) Get(e Event) uint64 { return c[e] }

// Sub returns c - o element-wise (callers ensure monotonicity).
func (c Counts) Sub(o Counts) Counts {
	var out Counts
	for i := range c {
		out[i] = c[i] - o[i]
	}
	return out
}

// TimingModel converts architectural activity into cycles. The shape (not
// the absolute values) is what matters for the reproduction; defaults are
// loosely Xeon-class.
type TimingModel struct {
	BaseCPI           float64 // cycles per retired instruction, pipeline-ideal
	L2HitPenalty      uint64  // extra cycles for an L1 miss that hits L2
	LLCHitPenalty     uint64  // extra cycles for an L2 miss that hits LLC
	MemPenalty        uint64  // extra cycles for an LLC miss
	MispredictPenalty uint64  // pipeline flush cost
	TLBMissPenalty    uint64  // page-walk cost for a dTLB miss
	// RefCycleRatio is ref-cycles per core cycle (TSC vs turbo ratio);
	// BusCycleRatio is bus-cycles per core cycle.
	RefCycleRatio float64
	BusCycleRatio float64
}

// DefaultTiming returns the reference timing model.
func DefaultTiming() TimingModel {
	return TimingModel{
		BaseCPI:           0.75,
		L2HitPenalty:      10,
		LLCHitPenalty:     30,
		MemPenalty:        180,
		MispredictPenalty: 15,
		TLBMissPenalty:    24,
		RefCycleRatio:     0.98,
		BusCycleRatio:     0.38,
	}
}

// NoiseModel injects per-run measurement noise into the final counts,
// standing in for the OS/background activity a real `perf stat` session
// sees. Relative sigmas are per-event multiplicative Gaussian noise; Floor
// adds an absolute per-event Gaussian component (e.g. timer interrupts
// polluting cache-misses regardless of workload size).
type NoiseModel struct {
	RelSigma   [NumEvents]float64
	FloorSigma [NumEvents]float64
	rng        *rand.Rand
}

// DefaultNoise calibrates the measurement noise so the reproduction's
// t-statistics land in the paper's bands: the cache-miss noise floor stays
// below the kernel-induced class signal (so every pair separates, as in
// Tables 1 and 2), while branch noise — combined with the runtime model's
// jitter — dominates the tiny class dependence of branch counts (so most
// branch pairs stay indistinguishable).
func DefaultNoise(seed int64) *NoiseModel {
	n := &NoiseModel{rng: rand.New(rand.NewSource(seed))}
	n.RelSigma[EvCacheMisses] = 0.004
	n.RelSigma[EvCacheReferences] = 0.003
	n.RelSigma[EvBranches] = 0.0015
	n.RelSigma[EvBranchMisses] = 0.01
	n.RelSigma[EvInstructions] = 0.001
	n.RelSigma[EvCycles] = 0.01
	n.RelSigma[EvBusCycles] = 0.01
	n.RelSigma[EvRefCycles] = 0.01
	n.FloorSigma[EvCacheMisses] = 6
	n.FloorSigma[EvBranches] = 25
	n.FloorSigma[EvBranchMisses] = 10
	return n
}

// Apply perturbs a snapshot of counts in place.
func (n *NoiseModel) Apply(c *Counts) {
	if n == nil {
		return
	}
	for i := range c {
		v := float64(c[i])
		v += v*n.RelSigma[i]*n.rng.NormFloat64() + n.FloorSigma[i]*n.rng.NormFloat64()
		if v < 0 {
			v = 0
		}
		c[i] = uint64(v)
	}
}

// Config assembles an Engine. Every engine also gets the tournament branch
// predictor, a 512-entry BTB, the DefaultTLB data-side TLB, the
// DefaultTiming model and an arena at mem.DefaultBase with 64-byte
// alignment.
type Config struct {
	Hierarchy *cache.Hierarchy // nil → cache.DefaultHierarchy()
	Noise     *NoiseModel      // nil → no noise
}

// DefaultTLB models a 64-entry 4-way data TLB with 4 KiB pages. A TLB is
// just a set-associative cache of page translations, so the cache
// simulator is reused with the line size set to the page size.
func DefaultTLB() *cache.Cache {
	t, err := cache.New(cache.Config{
		Name: "dTLB", Size: 64 * 4096, LineSize: 4096, Assoc: 4, Policy: cache.LRU,
		AltLineMemo: true,
	})
	if err != nil {
		panic(err) // static configuration; cannot fail
	}
	return t
}

// touchSlots sizes the engine's resolved-touch cache (direct-mapped,
// indexed by line). The conv kernels keep every weight-row line plus a
// sliding window of input and output-row lines live at once (~100+ lines
// for the largest zoo convolution), so 512 slots keep conflict evictions
// rare; contiguous regions can never self-conflict below 32 KiB.
const touchSlots = 512

// Engine is the simulated core. It is not safe for concurrent use; each
// simulated process owns one Engine.
type Engine struct {
	caches *cache.Hierarchy
	l1     *cache.Cache // caches.Levels[0], cached for the fast path
	pred   *branch.Predictor
	btb    *branch.BTB
	tlb    *cache.Cache
	timing TimingModel
	noise  *NoiseModel
	arena  *mem.Arena

	instructions uint64
	branches     uint64
	mispredicts  uint64
	extraCycles  uint64 // accumulated stall cycles

	// Quantum-yield hook: when yieldFn is non-nil, the engine invokes it
	// at the first operation boundary at or beyond every yieldQuantum
	// retired instructions — the preemption point a multi-tenant
	// scheduler (march.Ring) interleaves tenants at. The hook may drive
	// this same engine for another tenant: nextYield is always advanced
	// past the current instruction count *before* the hook runs, so
	// reentrant operations cannot re-trigger the same yield.
	yieldQuantum uint64
	nextYield    uint64
	yieldFn      func()

	// Resolved-touch cache: recently touched lines with their L1/TLB
	// placement pre-resolved (cache.Placement), so repeat touches replay
	// guaranteed hits without walking either lookup path. touchOn gates it
	// to hierarchies whose L1 line and TLB page are at least the engine's
	// 64-byte access granularity (a 64-byte piece then maps to exactly one
	// line and one page, which is what makes a cached placement reusable).
	touch   [touchSlots]cache.Placement
	pair    cache.Pair
	touchOn bool

	// L2/LLC resolved placements for the miss walk: thrashing kernels miss
	// the same L1 lines cyclically while the deeper levels still hold them,
	// so the walk's L2 (and, past it, LLC) hit replays at the resolved slot.
	// l2/llc are nil when the hierarchy lacks that level (or its line size
	// is below the access granularity).
	l2     *cache.Cache
	touch2 [touchSlots]cache.Solo
	llc    *cache.Cache
	touch3 [touchSlots]cache.Solo

	// Optional telemetry tally. Engines are single-goroutine, so plain
	// increments suffice; the nil check keeps the hot path allocation-free
	// and branch-predictable when observability is off.
	hot *obs.HotCounters
}

// SetHotCounters attaches a telemetry tally for Load/Store operations.
// Pass nil to detach. The tally only counts operations — it never feeds
// back into timing, placement, or any other simulated state.
func (e *Engine) SetHotCounters(h *obs.HotCounters) { e.hot = h }

// NewEngine builds an engine, filling defaults for nil fields.
func NewEngine(cfg Config) (*Engine, error) {
	arena, err := mem.NewArena(mem.DefaultBase, 64)
	if err != nil {
		return nil, err
	}
	e := &Engine{
		caches: cfg.Hierarchy,
		pred:   branch.New(),
		btb:    branch.NewBTB(),
		tlb:    DefaultTLB(),
		timing: DefaultTiming(),
		noise:  cfg.Noise,
		arena:  arena,
	}
	if e.caches == nil {
		e.caches = cache.DefaultHierarchy()
	}
	e.l1 = e.caches.Levels[0]
	e.pair = cache.Pair{Data: e.l1, TLB: e.tlb}
	e.touchOn = e.l1.Config().LineSize >= lineSize && e.tlb.Config().LineSize >= lineSize
	if e.touchOn && len(e.caches.Levels) > 1 && e.caches.Levels[1].Config().LineSize >= lineSize {
		e.l2 = e.caches.Levels[1]
		if len(e.caches.Levels) == 3 && e.caches.Levels[2].Config().LineSize >= lineSize {
			e.llc = e.caches.Levels[2]
		}
	}
	return e, nil
}

// Arena exposes the simulated address space for allocations.
func (e *Engine) Arena() *mem.Arena { return e.arena }

// Hierarchy exposes the cache levels (for per-level stats in reports).
func (e *Engine) Hierarchy() *cache.Hierarchy { return e.caches }

// SetQuantumYield installs (or, with quantum 0 or a nil fn, removes)
// the scheduling hook: after every quantum retired instructions the
// engine calls fn at the next operation boundary. Instructions retired
// by the hook itself count toward the shared core's quantum clock, so
// two tenants driving one engine alternate in strict quantum turns.
func (e *Engine) SetQuantumYield(quantum uint64, fn func()) {
	if quantum == 0 || fn == nil {
		e.yieldQuantum, e.nextYield, e.yieldFn = 0, 0, nil
		return
	}
	e.yieldQuantum = quantum
	e.nextYield = e.instructions + quantum
	e.yieldFn = fn
}

// maybeYield fires the quantum hook when the retired-instruction clock
// has crossed the next yield threshold. The threshold is advanced past
// the current count before the hook runs (the hook re-enters the engine
// for the other tenant), and bulk operations that skip several quanta
// at once advance it to the next boundary beyond them — one yield per
// crossing, however large the operation.
//
//detlint:allocpath
func (e *Engine) maybeYield() {
	if e.yieldFn == nil || e.instructions < e.nextYield {
		return
	}
	next := e.nextYield + e.yieldQuantum
	if next <= e.instructions {
		n := (e.instructions-next)/e.yieldQuantum + 1
		next += n * e.yieldQuantum
	}
	e.nextYield = next
	e.yieldFn()
}

// Load simulates a data load of `size` bytes at addr (split into line-sized
// pieces) and retires one load instruction per piece.
//
//detlint:allocpath
func (e *Engine) Load(addr mem.Addr, size uint64) {
	if e.hot != nil {
		e.hot.Loads++
	}
	e.access(addr, size, false)
	e.maybeYield()
}

// Store simulates a data store.
//
//detlint:allocpath
func (e *Engine) Store(addr mem.Addr, size uint64) {
	if e.hot != nil {
		e.hot.Stores++
	}
	e.access(addr, size, true)
	e.maybeYield()
}

// lineSize is the simulated core's cache-line granularity for access
// splitting (matches every configured hierarchy in this repo).
const lineSize = 64

//detlint:allocpath
func (e *Engine) access(addr mem.Addr, size uint64, write bool) {
	if size == 0 {
		size = 1
	}
	// Single-piece fast path: the access fits inside one line (almost every
	// kernel access). Identical to one iteration of the split loop below.
	if uint64(addr)%lineSize+size <= lineSize {
		e.instructions++
		if !e.pair.Touch(&e.touch[(uint64(addr)>>6)&(touchSlots-1)], uint64(addr), write) {
			e.slowPiece(addr, write)
		}
		return
	}
	for off := uint64(0); off < size; {
		a := addr + mem.Addr(off)
		e.instructions++
		// Resolved-touch fast path: when a falls in a line whose placement
		// is cached and still current (the L1 slot and TLB slot both hold
		// the expected tags), the hits are guaranteed and replay directly at
		// the resolved (set, way), skipping both lookup walks. Counters and
		// replacement state change exactly as the full path's hits would.
		if !e.pair.Touch(&e.touch[(uint64(a)>>6)&(touchSlots-1)], uint64(a), write) {
			e.slowPiece(a, write)
		}
		off += lineSize - (uint64(a))%lineSize
	}
}

// slowPiece is the full per-piece path: TLB translation (memo replay or
// lookup with page-walk penalty), L1 lookup, miss walk, and finally the
// resolved-touch capture that makes repeat touches of this line fast.
//
//detlint:allocpath
func (e *Engine) slowPiece(a mem.Addr, write bool) {
	// Address translation first: a dTLB miss costs a page walk. A
	// same-page repeat replays the guaranteed hit without the full lookup.
	if e.tlb.MemoIs(a) {
		e.tlb.HitLastN(1, false)
	} else if !e.tlb.Access(a, false) {
		e.extraCycles += e.timing.TLBMissPenalty
	}
	// L1 first (the common hit needs no stall accounting at all); only
	// misses walk the deeper levels.
	if !e.l1.Access(a, write) {
		e.missWalk(a, write)
	}
	if e.touchOn {
		// Capture a's now-resident placement into the resolved-touch cache
		// (skipped when a memo is not on a's line — then the line simply
		// stays on the slow path).
		e.pair.Resolve(&e.touch[(uint64(a)>>6)&(touchSlots-1)], uint64(a))
	}
}

// missWalk resolves an L1 miss through the deeper levels, charging the
// stall penalty of the level that finally hits (or memory).
//
//detlint:allocpath
func (e *Engine) missWalk(a mem.Addr, write bool) {
	if e.l2 != nil {
		t2 := &e.touch2[(uint64(a)>>6)&(touchSlots-1)]
		if e.l2.TouchSolo(t2, uint64(a), write) {
			// Resolved L2 replay: the hit is guaranteed, skip the lookup.
			e.extraCycles += e.timing.L2HitPenalty
			return
		}
		hit := e.l2.Access(a, write)
		// Hit or install — either way the line is now L2-resident; capture
		// its placement for the next walk of this line.
		e.l2.ResolveSolo(t2, uint64(a))
		if hit {
			e.extraCycles += e.timing.L2HitPenalty
			return
		}
		if e.llc != nil {
			// Same resolved replay one level down: L2-missing lines usually
			// still sit in the LLC.
			t3 := &e.touch3[(uint64(a)>>6)&(touchSlots-1)]
			if e.llc.TouchSolo(t3, uint64(a), write) {
				e.extraCycles += e.timing.LLCHitPenalty
				return
			}
			hit = e.llc.Access(a, write)
			e.llc.ResolveSolo(t3, uint64(a))
			if hit {
				e.extraCycles += e.timing.LLCHitPenalty
				return
			}
			e.extraCycles += e.timing.MemPenalty
			return
		}
		levels := e.caches.Levels
		for i := 2; i < len(levels); i++ {
			if levels[i].Access(a, write) {
				e.extraCycles += e.timing.LLCHitPenalty
				return
			}
		}
		e.extraCycles += e.timing.MemPenalty
		return
	}
	levels := e.caches.Levels
	for i := 1; i < len(levels); i++ {
		if levels[i].Access(a, write) {
			if i == 1 {
				e.extraCycles += e.timing.L2HitPenalty
			} else {
				e.extraCycles += e.timing.LLCHitPenalty
			}
			return
		}
	}
	e.extraCycles += e.timing.MemPenalty
}

// LoadRange simulates count sequential loads of elem bytes each, starting
// at base and striding by elem — counter-identical to count individual
// Load(base+i*elem, elem) calls. Elements that share a cache line are
// replayed through the batched hit path (one lookup per line instead of
// one per element), which is what makes streaming kernel walks cheap.
//
//detlint:allocpath
func (e *Engine) LoadRange(base mem.Addr, elem uint64, count int) {
	e.rangeAccess(base, elem, count, false)
	e.maybeYield()
}

// StoreRange is LoadRange for stores.
//
//detlint:allocpath
func (e *Engine) StoreRange(base mem.Addr, elem uint64, count int) {
	e.rangeAccess(base, elem, count, true)
	e.maybeYield()
}

//detlint:allocpath
func (e *Engine) rangeAccess(base mem.Addr, elem uint64, count int, write bool) {
	if elem == 0 {
		// Zero-size accesses do not advance; replay them individually.
		for i := 0; i < count; i++ {
			e.access(base, 0, write)
		}
		return
	}
	i := 0
	for i < count {
		a := base + mem.Addr(uint64(i)*elem)
		within := lineSize - uint64(a)%lineSize
		if elem > within {
			// Element crosses a line boundary: take the exact multi-piece
			// path for it.
			e.access(a, elem, write)
			i++
			continue
		}
		var n int // elements wholly inside this line
		if elem == 4 {
			n = int(within >> 2) // dominant element size: avoid the division
		} else {
			n = int(within / elem)
		}
		if n > count-i {
			n = count - i
		}
		// Warm path: the whole chunk — first element included — replays as
		// one resolved bulk touch.
		nu := uint64(n)
		var nw uint64
		if write {
			nw = nu
		}
		if e.pair.TouchRun(&e.touch[(uint64(a)>>6)&(touchSlots-1)], uint64(a), nu, nw) {
			e.instructions += nu
			i += n
			continue
		}
		e.access(a, elem, write) // first element: full path (resolves the line)
		if n > 1 {
			k := nu - 1
			var kw uint64
			if write {
				kw = k
			}
			if e.pair.TouchRun(&e.touch[(uint64(a)>>6)&(touchSlots-1)], uint64(a), k, kw) {
				// The first element refreshed the placement: bulk-replay the
				// remaining guaranteed hits at it.
				e.instructions += k
			} else if e.l1.MemoIs(a) && e.tlb.MemoIs(a) {
				// The line is now resident (hit or just installed): the
				// remaining elements are guaranteed TLB + L1 hits.
				e.instructions += k
				e.tlb.HitLastN(k, false)
				e.l1.HitLastN(k, write)
			} else {
				// A memo is not on a's line (an exotic hierarchy): fall
				// back to exact per-element replay.
				for j := 1; j < n; j++ {
					e.access(a+mem.Addr(uint64(j)*elem), elem, write)
				}
			}
		}
		i += n
	}
}

// MacRow simulates the convolution scatter's per-position access triple —
// Load(w, size), Load(o, size), Store(o, size) — exactly, replaying the
// three events fused when both rows' placements are resolved and current.
// The fused path is taken only when each row fits inside one cache line;
// otherwise (or when either placement is stale) the triple goes through
// the ordinary access path piece by piece.
//
//detlint:allocpath
func (e *Engine) MacRow(w, o mem.Addr, size uint64) {
	e.macRow(w, o, size)
	e.maybeYield()
}

//detlint:allocpath
func (e *Engine) macRow(w, o mem.Addr, size uint64) {
	if (uint64(w)&(lineSize-1))+size <= lineSize && (uint64(o)&(lineSize-1))+size <= lineSize {
		tw := &e.touch[(uint64(w)>>6)&(touchSlots-1)]
		to := &e.touch[(uint64(o)>>6)&(touchSlots-1)]
		if e.pair.MacRow(tw, to, uint64(w), uint64(o)) {
			e.instructions += 3
			return
		}
		// Partial replay: the weight row (the thrashing side of the conv2
		// working set) walks the full path in order; the output row's
		// load+store pair still fuses when its placement is current. Each
		// leg is exactly one single-piece access.
		e.instructions++
		if !e.pair.Touch(tw, uint64(w), false) {
			e.slowPiece(w, false)
		}
		if e.pair.TouchRun(to, uint64(o), 2, 1) {
			e.instructions += 2
			return
		}
		e.instructions++
		if !e.pair.Touch(to, uint64(o), false) {
			e.slowPiece(o, false)
		}
		e.instructions++
		if !e.pair.Touch(to, uint64(o), true) {
			e.slowPiece(o, true)
		}
		return
	}
	e.access(w, size, false)
	e.access(o, size, false)
	e.access(o, size, true)
}

// MacSpan simulates n consecutive MacRow triples: position i loads
// w + i*wStep, then loads and stores o - i*size (the convolution scatter's
// inner kernel-column walk, whose output rows recede as the kernel column
// advances). Counter-identical to n individual MacRow calls; the leading
// resolved positions replay fused in one pass over the placement cache.
//
//detlint:allocpath
func (e *Engine) MacSpan(w, o mem.Addr, wStep, size uint64, n int) {
	done := 0
	if e.touchOn {
		done = e.pair.MacSpan(e.touch[:], touchSlots-1, uint64(w), uint64(o), wStep, size, n)
		e.instructions += uint64(3 * done)
	}
	for i := done; i < n; i++ {
		e.MacRow(w+mem.Addr(uint64(i)*wStep), o-mem.Addr(uint64(i)*size), size)
	}
	e.maybeYield()
}

// LoadStoreRange simulates count load+store pairs of elem bytes each,
// striding by elem — counter-identical to count interleaved
// Load(a, elem); Store(a, elem) call pairs (the read-modify-write walk of
// the conv bias pass). Pairs sharing a cache line replay through the
// batched hit path.
//
//detlint:allocpath
func (e *Engine) LoadStoreRange(base mem.Addr, elem uint64, count int) {
	if elem == 0 {
		for i := 0; i < count; i++ {
			e.access(base, 0, false)
			e.access(base, 0, true)
		}
		e.maybeYield()
		return
	}
	i := 0
	for i < count {
		a := base + mem.Addr(uint64(i)*elem)
		within := lineSize - uint64(a)%lineSize
		if elem > within {
			// Element crosses a line boundary: exact multi-piece path.
			e.access(a, elem, false)
			e.access(a, elem, true)
			i++
			continue
		}
		var n int // elements wholly inside this line
		if elem == 4 {
			n = int(within >> 2)
		} else {
			n = int(within / elem)
		}
		if n > count-i {
			n = count - i
		}
		// Warm path: all 2n load/store events replay as one resolved bulk.
		if e.pair.TouchRun(&e.touch[(uint64(a)>>6)&(touchSlots-1)], uint64(a), uint64(2*n), uint64(n)) {
			e.instructions += uint64(2 * n)
			i += n
			continue
		}
		e.access(a, elem, false) // first load: full path (resolves the line)
		rest := uint64(2*n) - 1  // its store + load/store pairs after it
		if e.pair.TouchRun(&e.touch[(uint64(a)>>6)&(touchSlots-1)], uint64(a), rest, uint64(n)) {
			e.instructions += rest
		} else if e.l1.MemoIs(a) && e.tlb.MemoIs(a) {
			// Resident line: the remaining events are guaranteed hits. Split
			// the bulk replay into its n stores and n-1 loads — all same-line,
			// so the sums and final replacement stamp are order-exact.
			e.instructions += rest
			e.tlb.HitLastN(rest, false)
			e.l1.HitLastN(uint64(n), true)
			if n > 1 {
				e.l1.HitLastN(uint64(n)-1, false)
			}
		} else {
			e.access(a, elem, true)
			for j := 1; j < n; j++ {
				aj := a + mem.Addr(uint64(j)*elem)
				e.access(aj, elem, false)
				e.access(aj, elem, true)
			}
		}
		i += n
	}
	e.maybeYield()
}

// Branch simulates one data-dependent conditional branch at pc.
//
//detlint:allocpath
func (e *Engine) Branch(pc uint64, taken bool) {
	e.instructions++
	e.branches++
	if !e.pred.Record(pc, taken) {
		e.mispredicts++
		e.extraCycles += e.timing.MispredictPenalty
	}
	if taken {
		// Taken branches consult the BTB for the target; a miss costs a
		// small front-end bubble.
		if !e.btb.Lookup(pc, pc+64) {
			e.extraCycles += 2
		}
	}
	e.maybeYield()
}

// BranchRun simulates n consecutive data-dependent branches at pc with the
// same outcome — the shape the kernels' zero-skip scans and ReLU sign runs
// produce. Counters, predictor state, and BTB state end up exactly as n
// individual Branch(pc, taken) calls would leave them: the predictor
// replays the run with early fixpoint detection (RecordRun), and after the
// first BTB lookup installs the target, the remaining n-1 lookups are
// guaranteed hits, which change no state.
//
//detlint:allocpath
func (e *Engine) BranchRun(pc uint64, taken bool, n uint64) {
	if n == 0 {
		return
	}
	if n == 1 {
		e.Branch(pc, taken)
		return
	}
	e.instructions += n
	e.branches += n
	mis := e.pred.RecordRun(pc, taken, n)
	e.mispredicts += mis
	e.extraCycles += mis * e.timing.MispredictPenalty
	if taken {
		if !e.btb.Lookup(pc, pc+64) {
			e.extraCycles += 2
		}
	}
	e.maybeYield()
}

// PredictableBranches retires n branch instructions that real hardware
// predicts essentially perfectly (loop back-edges). They count as branches
// without walking the predictor tables, keeping simulation costs linear in
// data-dependent work.
func (e *Engine) PredictableBranches(n uint64) {
	e.branches += n
	e.instructions += n
	e.maybeYield()
}

// Ops retires n non-memory, non-branch instructions (arithmetic, address
// generation).
func (e *Engine) Ops(n uint64) {
	e.instructions += n
	e.maybeYield()
}

// Background injects activity that surrounds the instrumented kernels but
// is modeled statistically instead of being simulated access-by-access —
// the stand-in for the ML framework runtime (allocator, dispatcher,
// thread pool) whose footprint dominates the absolute counter values in
// the paper's Figure 2(b). LLC misses and branch mispredicts contribute
// their usual cycle penalties so derived cycle counts stay consistent.
func (e *Engine) Background(ops, branches, branchMisses, llcRefs, llcMisses uint64) {
	if branchMisses > branches {
		branchMisses = branches
	}
	e.instructions += ops + branches
	e.branches += branches
	e.mispredicts += branchMisses
	e.caches.Last().AddExternal(llcRefs, llcMisses)
	e.extraCycles += llcMisses*e.timing.MemPenalty + branchMisses*e.timing.MispredictPenalty
	e.maybeYield()
}

// PadSpec is the full per-classification pad of an envelope-padded
// deployment, in the engine's independent counter components: retired
// ops and branches, mispredicts, LLC references/misses, per-level L1 and
// dTLB events — the residual fingerprint the original archid padding
// left observable — and the raw stall-cycle residue.
type PadSpec struct {
	Ops, Branches, BranchMisses uint64
	LLCRefs, LLCMisses          uint64
	L1Loads, L1Misses           uint64
	TLBLoads, TLBMisses         uint64
	StallCycles                 uint64
}

// PadExtended injects the deterministic filler activity of a PadSpec. It
// is the envelope-padding primitive of the hardened deployments — a
// serving loop that tops every classification up to a fixed
// architecture-independent budget (dummy arithmetic, retired no-op
// branches, cache-thrashing sweeps, fence/spin stalls). Unlike Background
// it does not clamp BranchMisses to Branches: the pad deltas are computed
// against a consistent envelope by the caller, and clamping would
// silently break the equalization. The external L1/TLB pads are
// stats-only (they do not walk the hierarchy or charge page-walk
// penalties): the stall component already carries the exact cycle residue
// of the envelope, and charging the pads again would double-count it.
func (e *Engine) PadExtended(p PadSpec) {
	e.instructions += p.Ops + p.Branches
	e.branches += p.Branches
	e.mispredicts += p.BranchMisses
	e.caches.Last().AddExternal(p.LLCRefs, p.LLCMisses)
	e.caches.Levels[0].AddExternal(p.L1Loads, p.L1Misses)
	e.tlb.AddExternal(p.TLBLoads, p.TLBMisses)
	e.extraCycles += p.StallCycles
	e.maybeYield()
}

// StallCycles returns the accumulated stall-cycle residue — the exact
// non-base-CPI component of the cycle counter. Padding countermeasures
// read it around a measured interval to extract the interval's stall
// delta without reconstructing (and truncation-aliasing) it from Counts.
func (e *Engine) StallCycles() uint64 { return e.extraCycles }

// Counts derives every modeled event from the current architectural
// state. The returned snapshot is monotonically increasing across calls.
func (e *Engine) Counts() Counts {
	var c Counts
	l1 := e.caches.Levels[0].Stats()
	llc := e.caches.Last().Stats()
	tlb := e.tlb.Stats()
	cycles := uint64(float64(e.instructions)*e.timing.BaseCPI) + e.extraCycles
	c[EvBranches] = e.branches
	c[EvBranchMisses] = e.mispredicts
	c[EvCacheMisses] = llc.Misses
	c[EvCacheReferences] = llc.Accesses
	c[EvCycles] = cycles
	c[EvInstructions] = e.instructions
	c[EvRefCycles] = uint64(float64(cycles) * e.timing.RefCycleRatio)
	c[EvBusCycles] = uint64(float64(cycles) * e.timing.BusCycleRatio)
	c[EvL1DLoads] = l1.Accesses
	c[EvL1DLoadMisses] = l1.Misses
	c[EvLLCLoads] = llc.Accesses
	c[EvLLCLoadMisses] = llc.Misses
	c[EvDTLBLoads] = tlb.Accesses
	c[EvDTLBLoadMisses] = tlb.Misses
	return c
}

// Noise returns the configured noise model (may be nil).
func (e *Engine) Noise() *NoiseModel { return e.noise }

// ResetCounters clears all counters and per-level cache stats while keeping
// cache/predictor *state* (warm microarchitecture, cold counters) — the
// standard measure-after-warm-up discipline.
func (e *Engine) ResetCounters() {
	e.instructions, e.branches, e.mispredicts, e.extraCycles = 0, 0, 0, 0
	e.nextYield = e.yieldQuantum // quantum clock restarts with the instruction counter
	e.caches.ResetStats()
	e.tlb.ResetStats()
}

// ColdReset flushes caches, TLB, predictor and counters completely.
func (e *Engine) ColdReset() {
	e.ResetCounters()
	e.caches.Flush()
	e.tlb.Flush()
	e.pred.Reset()
	e.btb.Reset()
}
