// Package branch implements the branch predictor simulators behind the
// `branches` and `branch-misses` HPC events.
//
// The instrumented CNN routes its data-dependent branches (ReLU sign tests,
// sparsity-skip tests, max-pool comparisons) through a predictor; mispredict
// counts feed the branch-misses event and the cycle penalty model.
package branch

import "fmt"

// Kind selects the predictor algorithm.
type Kind int

// Predictor kinds.
const (
	StaticTaken Kind = iota
	Bimodal
	GShare
	Tournament
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case StaticTaken:
		return "static-taken"
	case Bimodal:
		return "bimodal"
	case GShare:
		return "gshare"
	case Tournament:
		return "tournament"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Stats holds predictor counters.
type Stats struct {
	Branches    uint64
	Mispredicts uint64
}

// Predictor is the common interface: Predict-then-Update per branch.
type Predictor interface {
	// Record predicts the branch at pc, compares with the actual outcome,
	// updates internal state, and returns whether the prediction was correct.
	Record(pc uint64, taken bool) bool
	// RecordRun replays n consecutive branches at pc with the same outcome
	// and returns the number of mispredicts. State and counters end up
	// exactly as n Record(pc, taken) calls would leave them; implementations
	// iterate only until the touched state reaches a fixpoint (saturating
	// counters and a saturated history register stop changing after a
	// handful of identical outcomes) and account the remainder in O(1).
	RecordRun(pc uint64, taken bool, n uint64) uint64
	// Stats returns the counters so far.
	Stats() Stats
	// Reset clears both state and counters.
	Reset()
	// Kind reports the algorithm.
	Kind() Kind
}

// tableBits is the log2 of every pattern table's size (4096 two-bit
// counters); GShare's global history is as long.
const tableBits = 12

// btbBits is the log2 of the BTB's entry count (512 entries).
const btbBits = 9

// New constructs a predictor of the given kind; an unknown kind is
// static-taken.
func New(kind Kind) Predictor {
	switch kind {
	case Bimodal:
		return newBimodal()
	case GShare:
		return newGShare()
	case Tournament:
		return &tournament{
			bim:     newBimodal(),
			gsh:     newGShare(),
			chooser: make([]uint8, 1<<tableBits),
			mask:    (1 << tableBits) - 1,
		}
	default:
		return &static{}
	}
}

// static always predicts taken.
type static struct{ stats Stats }

func (s *static) Record(_ uint64, taken bool) bool {
	s.stats.Branches++
	if !taken {
		s.stats.Mispredicts++
		return false
	}
	return true
}
func (s *static) RecordRun(_ uint64, taken bool, n uint64) uint64 {
	s.stats.Branches += n
	if !taken {
		s.stats.Mispredicts += n
		return n
	}
	return 0
}

func (s *static) Stats() Stats { return s.stats }
func (s *static) Reset()       { s.stats = Stats{} }
func (s *static) Kind() Kind   { return StaticTaken }

// bimodal is a classic table of 2-bit saturating counters indexed by pc.
type bimodal struct {
	table []uint8
	mask  uint64
	stats Stats
}

func newBimodal() *bimodal {
	b := &bimodal{table: make([]uint8, 1<<tableBits), mask: (1 << tableBits) - 1}
	for i := range b.table {
		b.table[i] = 1 // weakly not-taken
	}
	return b
}

func (b *bimodal) Record(pc uint64, taken bool) bool {
	idx := (pc >> 2) & b.mask
	pred := b.table[idx] >= 2
	b.table[idx] = bump(b.table[idx], taken)
	b.stats.Branches++
	if pred != taken {
		b.stats.Mispredicts++
		return false
	}
	return true
}

func (b *bimodal) RecordRun(pc uint64, taken bool, n uint64) uint64 {
	idx := (pc >> 2) & b.mask
	var mis uint64
	for n > 0 {
		ctr := b.table[idx]
		next := bump(ctr, taken)
		if next == ctr {
			// Saturated toward the outcome: the counter (and therefore the
			// prediction, which now matches taken) no longer changes.
			break
		}
		if (ctr >= 2) != taken {
			mis++
		}
		b.table[idx] = next
		b.stats.Branches++
		n--
	}
	if n > 0 {
		b.stats.Branches += n
		if (b.table[idx] >= 2) != taken {
			mis += n
		}
	}
	b.stats.Mispredicts += mis
	return mis
}

func (b *bimodal) Stats() Stats { return b.stats }
func (b *bimodal) Reset() {
	for i := range b.table {
		b.table[i] = 1
	}
	b.stats = Stats{}
}
func (b *bimodal) Kind() Kind { return Bimodal }

// gshare XORs global history into the table index.
type gshare struct {
	table   []uint8
	mask    uint64
	history uint64
	hmask   uint64
	stats   Stats
}

func newGShare() *gshare {
	g := &gshare{table: make([]uint8, 1<<tableBits), mask: (1 << tableBits) - 1, hmask: (1 << tableBits) - 1}
	for i := range g.table {
		g.table[i] = 1
	}
	return g
}

func (g *gshare) predictIdx(pc uint64) uint64 {
	return ((pc >> 2) ^ g.history) & g.mask
}

func (g *gshare) Record(pc uint64, taken bool) bool {
	idx := g.predictIdx(pc)
	pred := g.table[idx] >= 2
	g.table[idx] = bump(g.table[idx], taken)
	g.history = ((g.history << 1) | b2u(taken)) & g.hmask
	g.stats.Branches++
	if pred != taken {
		g.stats.Mispredicts++
		return false
	}
	return true
}

func (g *gshare) RecordRun(pc uint64, taken bool, n uint64) uint64 {
	tk := b2u(taken)
	var mis uint64
	for n > 0 {
		idx := g.predictIdx(pc)
		ctr := g.table[idx]
		next := bump(ctr, taken)
		nh := ((g.history << 1) | tk) & g.hmask
		if next == ctr && nh == g.history {
			// Fixpoint: the history register is saturated (so the table
			// index repeats) and the indexed counter is saturated toward
			// the outcome — no further iteration changes any state.
			break
		}
		if (ctr >= 2) != taken {
			mis++
		}
		g.table[idx] = next
		g.history = nh
		g.stats.Branches++
		n--
	}
	if n > 0 {
		g.stats.Branches += n
		if (g.table[g.predictIdx(pc)] >= 2) != taken {
			mis += n
		}
	}
	g.stats.Mispredicts += mis
	return mis
}

func (g *gshare) Stats() Stats { return g.stats }
func (g *gshare) Reset() {
	for i := range g.table {
		g.table[i] = 1
	}
	g.history = 0
	g.stats = Stats{}
}
func (g *gshare) Kind() Kind { return GShare }

// tournament arbitrates between bimodal and gshare with a chooser table of
// 2-bit counters (≥2 → trust gshare).
type tournament struct {
	bim     *bimodal
	gsh     *gshare
	chooser []uint8
	mask    uint64
	stats   Stats
}

func (t *tournament) Record(pc uint64, taken bool) bool {
	key := pc >> 2
	idx := key & t.mask
	bIdx := key & t.bim.mask
	gIdx := (key ^ t.gsh.history) & t.gsh.mask
	bCtr := t.bim.table[bIdx]
	gCtr := t.gsh.table[gIdx]
	cCtr := t.chooser[idx]
	bPred := bCtr >= 2
	gPred := gCtr >= 2
	pred := bPred
	if cCtr >= 2 {
		pred = gPred
	}
	// Train components inline — predictor state ends up exactly as
	// bim.Record/gsh.Record would leave it, without paying the calls and
	// the duplicate index computations on the hot path. The components'
	// own stats are not maintained here: they are unexported and
	// unobservable behind a tournament (its Stats() reports only the
	// arbitrated outcome).
	t.bim.table[bIdx] = bump(bCtr, taken)
	t.gsh.table[gIdx] = bump(gCtr, taken)
	t.gsh.history = ((t.gsh.history << 1) | b2u(taken)) & t.gsh.hmask
	// Train chooser toward whichever component was right.
	if bPred != gPred {
		t.chooser[idx] = bump(cCtr, taken == gPred)
	}
	t.stats.Branches++
	if pred != taken {
		t.stats.Mispredicts++
		return false
	}
	return true
}

func (t *tournament) RecordRun(pc uint64, taken bool, n uint64) uint64 {
	key := pc >> 2
	idx := key & t.mask
	bIdx := key & t.bim.mask
	tk := b2u(taken)
	// Hoist the per-pc state (fixed indices) and the gshare registers into
	// locals for the replay loop; only the gshare counter's index moves.
	gTab, gMask, hMask := t.gsh.table, t.gsh.mask, t.gsh.hmask
	hist := t.gsh.history
	bCtr := t.bim.table[bIdx]
	cCtr := t.chooser[idx]
	var mis, done uint64
	for n > 0 {
		// One exact iteration of Record's body, plus fixpoint detection.
		gIdx := (key ^ hist) & gMask
		gCtr := gTab[gIdx]
		bNext := bump(bCtr, taken)
		gNext := bump(gCtr, taken)
		nh := ((hist << 1) | tk) & hMask
		bPred := bCtr >= 2
		gPred := gCtr >= 2
		cNext := cCtr
		if bPred != gPred {
			cNext = bump(cCtr, taken == gPred)
		}
		if nh == hist && bNext == bCtr && gNext == gCtr && cNext == cCtr {
			// Fixpoint: history saturated (index repeats), both component
			// counters and the chooser unchanged — every remaining
			// iteration is state-identical.
			break
		}
		pred := bPred
		if cCtr >= 2 {
			pred = gPred
		}
		if pred != taken {
			mis++
		}
		gTab[gIdx] = gNext
		bCtr, cCtr, hist = bNext, cNext, nh
		done++
		n--
	}
	t.bim.table[bIdx] = bCtr
	t.chooser[idx] = cCtr
	t.gsh.history = hist
	t.stats.Branches += done
	if n > 0 {
		t.stats.Branches += n
		gIdx := (key ^ hist) & gMask
		pred := bCtr >= 2
		if cCtr >= 2 {
			pred = gTab[gIdx] >= 2
		}
		if pred != taken {
			mis += n
		}
	}
	t.stats.Mispredicts += mis
	return mis
}

func (t *tournament) Stats() Stats { return t.stats }
func (t *tournament) Reset() {
	t.bim.Reset()
	t.gsh.Reset()
	clear(t.chooser)
	t.stats = Stats{}
}
func (t *tournament) Kind() Kind { return Tournament }

// bumpTab folds the 2-bit saturating counter transition into a lookup
// (index = counter<<1 | taken): branchless on the predictor hot path.
var bumpTab = [8]uint8{
	0<<1 | 0: 0, 0<<1 | 1: 1,
	1<<1 | 0: 0, 1<<1 | 1: 2,
	2<<1 | 0: 1, 2<<1 | 1: 3,
	3<<1 | 0: 2, 3<<1 | 1: 3,
}

// bump moves a 2-bit saturating counter toward taken/not-taken.
func bump(c uint8, taken bool) uint8 {
	return bumpTab[uint64(c)<<1|b2u(taken)]
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// BTB is a small direct-mapped branch target buffer. It models target
// misses separately from direction misses; the engine charges a smaller
// front-end penalty for BTB misses on taken branches.
type BTB struct {
	tags    []uint64
	targets []uint64
	mask    uint64
}

// NewBTB builds a 512-entry BTB.
func NewBTB() *BTB {
	return &BTB{tags: make([]uint64, 1<<btbBits), targets: make([]uint64, 1<<btbBits), mask: (1 << btbBits) - 1}
}

// Lookup checks for pc's target; on miss (or target change) it installs
// the mapping and reports false.
func (b *BTB) Lookup(pc, target uint64) bool {
	idx := (pc >> 2) & b.mask
	if b.tags[idx] == pc && b.targets[idx] == target {
		return true
	}
	b.tags[idx] = pc
	b.targets[idx] = target
	return false
}

// Reset clears the BTB.
func (b *BTB) Reset() {
	clear(b.tags)
	clear(b.targets)
}
