// Package branch implements the branch predictor behind the `branches`
// and `branch-misses` HPC events, and the BTB beside it.
//
// The instrumented CNN routes its data-dependent branches (ReLU sign tests,
// sparsity-skip tests, max-pool comparisons) through one tournament
// predictor; mispredict counts feed the branch-misses event and the cycle
// penalty model.
package branch

// tableBits is the log2 of every pattern table's size (4096 two-bit
// counters); the global history is as long.
const (
	tableBits = 12
	tableMask = 1<<tableBits - 1
)

// btbBits is the log2 of the BTB's entry count (512 entries).
const btbBits = 9

// Predictor is a tournament predictor. A bimodal table of 2-bit saturating
// counters indexed by pc and a gshare table indexed by pc XOR the global
// history each predict; a chooser table of 2-bit counters indexed by pc
// picks one (≥2 → trust gshare) and, when the two disagree, trains toward
// whichever was right.
type Predictor struct {
	bimodal [1 << tableBits]uint8
	gshare  [1 << tableBits]uint8
	chooser [1 << tableBits]uint8
	history uint64
}

// New builds a predictor in its reset state.
func New() *Predictor {
	p := &Predictor{}
	p.Reset()
	return p
}

// Record predicts the branch at pc, compares with the actual outcome,
// trains every table, and returns whether the prediction was correct.
//
//detlint:allocpath
func (p *Predictor) Record(pc uint64, taken bool) bool {
	key := pc >> 2
	idx := key & tableMask
	gIdx := (key ^ p.history) & tableMask
	bCtr := p.bimodal[idx]
	gCtr := p.gshare[gIdx]
	cCtr := p.chooser[idx]
	bPred := bCtr >= 2
	gPred := gCtr >= 2
	pred := bPred
	if cCtr >= 2 {
		pred = gPred
	}
	p.bimodal[idx] = bump(bCtr, taken)
	p.gshare[gIdx] = bump(gCtr, taken)
	p.history = ((p.history << 1) | b2u(taken)) & tableMask
	if bPred != gPred {
		p.chooser[idx] = bump(cCtr, taken == gPred)
	}
	return pred == taken
}

// RecordRun replays n consecutive branches at pc with the same outcome and
// returns the number of mispredicts. The tables end up exactly as n
// Record(pc, taken) calls would leave them: the replay iterates only until
// the touched state reaches a fixpoint (saturating counters and a
// saturated history register stop changing after a handful of identical
// outcomes) and accounts the remainder in O(1).
//
//detlint:allocpath
func (p *Predictor) RecordRun(pc uint64, taken bool, n uint64) uint64 {
	key := pc >> 2
	idx := key & tableMask
	tk := b2u(taken)
	// The bimodal and chooser counters sit at pc's fixed index; only the
	// gshare counter's index moves with the history.
	hist := p.history
	bCtr := p.bimodal[idx]
	cCtr := p.chooser[idx]
	var mis uint64
	for n > 0 {
		// One exact iteration of Record's body, plus fixpoint detection.
		gIdx := (key ^ hist) & tableMask
		gCtr := p.gshare[gIdx]
		bNext := bump(bCtr, taken)
		gNext := bump(gCtr, taken)
		nh := ((hist << 1) | tk) & tableMask
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
		p.gshare[gIdx] = gNext
		bCtr, cCtr, hist = bNext, cNext, nh
		n--
	}
	p.bimodal[idx] = bCtr
	p.chooser[idx] = cCtr
	p.history = hist
	if n > 0 {
		pred := bCtr >= 2
		if cCtr >= 2 {
			pred = p.gshare[(key^hist)&tableMask] >= 2
		}
		if pred != taken {
			mis += n
		}
	}
	return mis
}

// Reset returns every table to its initial state: pattern counters weakly
// not-taken, chooser trusting bimodal, history clear.
func (p *Predictor) Reset() {
	for i := range p.bimodal {
		p.bimodal[i] = 1
		p.gshare[i] = 1
	}
	clear(p.chooser[:])
	p.history = 0
}

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
