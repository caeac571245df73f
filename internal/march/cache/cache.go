// Package cache implements the set-associative cache simulator that turns
// the instrumented CNN's memory accesses into cache-references and
// cache-misses — the central HPC events of the paper under reproduction.
//
// The simulator is trace-driven: callers feed it addresses and it tracks
// tags per set under a configurable replacement policy. A Hierarchy chains
// levels (L1D → L2 → LLC) the way the perf events are defined on Intel:
// cache-references and cache-misses count last-level-cache activity.
//
// # Hot path
//
// One classification issues millions of accesses, so Access is built for
// throughput without changing a single counter:
//
//   - set/tag decomposition uses shifts precomputed at construction
//     (tagShift) instead of recomputing log2(sets) per access;
//   - replacement policies are bound as a method table at construction, so
//     there is no per-access policy switch;
//   - a one-line memo remembers the last-touched (line, way): consecutive
//     accesses to the same line skip the way scan entirely. The memo is
//     maintained on every hit and install and invalidated by
//     Invalidate/Flush, so it can never go stale.
//
// HitLastN batches the memo path further: it replays n additional hits on
// the last-touched line in O(1), with replacement metadata updated exactly
// as n individual hits would have (see the per-policy hitN functions).
package cache

import (
	"fmt"
	"math/bits"

	"repro/internal/march/mem"
)

// Policy selects the replacement policy for a cache level.
type Policy int

// Replacement policies.
const (
	LRU Policy = iota
	TreePLRU
	FIFO
	Random
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case LRU:
		return "lru"
	case TreePLRU:
		return "tree-plru"
	case FIFO:
		return "fifo"
	case Random:
		return "random"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// Config describes one cache level.
type Config struct {
	Name     string
	Size     uint64 // total bytes
	LineSize uint64 // bytes per line, power of two
	Assoc    int    // ways per set
	Policy   Policy
	// NextLinePrefetch enables a simple sequential prefetcher: on a miss,
	// the following line is installed as well (without counting as a
	// reference).
	NextLinePrefetch bool
	// AltLineMemo enables the second touched-line memo entry. It pays for
	// access streams that strictly alternate between two lines — the dTLB
	// under the conv kernels' weight-page/output-page ping-pong — and
	// costs a little on streams that do not, so it is off by default.
	AltLineMemo bool
}

// Validate checks structural consistency.
func (c Config) Validate() error {
	switch {
	case c.LineSize == 0 || c.LineSize&(c.LineSize-1) != 0:
		return fmt.Errorf("cache: %s line size %d not a power of two", c.Name, c.LineSize)
	case c.Assoc <= 0:
		return fmt.Errorf("cache: %s associativity %d must be positive", c.Name, c.Assoc)
	case c.Size == 0 || c.Size%(c.LineSize*uint64(c.Assoc)) != 0:
		return fmt.Errorf("cache: %s size %d not divisible by line*assoc", c.Name, c.Size)
	}
	sets := c.Size / (c.LineSize * uint64(c.Assoc))
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache: %s set count %d not a power of two", c.Name, sets)
	}
	return nil
}

// Stats accumulates per-level counters.
type Stats struct {
	Accesses  uint64
	Hits      uint64
	Misses    uint64
	Evictions uint64
	Writes    uint64
}

// Cache is one set-associative level.
type Cache struct {
	cfg      Config
	sets     uint64
	lineBits uint
	setMask  uint64
	setBits  uint // log2(sets), precomputed (tag = line >> setBits)
	tagShift uint // lineBits + setBits (tag = addr >> tagShift)
	assoc    uint64

	// tags holds, per way, the line tag + 1; 0 marks an invalid way. The
	// sentinel encoding lets the hit scan touch one word per way instead
	// of a tag word plus a validity byte.
	tags  []uint64 // sets × assoc
	dirty []bool
	// LRU: age counters; FIFO: insertion order; PLRU: tree bits per set.
	age      []uint32
	clock    uint32
	plruTree []uint64 // one bit-tree word per set (supports assoc ≤ 64)
	rng      uint64   // xorshift state for Random policy
	// Precomputed PLRU updates: pointing the tree away from way w is
	// tree = (tree &^ plruClr[w]) | plruSet[w] — the walk depends only on
	// the way, so it is folded into masks at construction. For assoc ≤ 8
	// the victim walk is likewise folded into a table indexed by the
	// tree's node bits.
	plruSet   []uint64
	plruClr   []uint64
	plruVict  []uint8
	plruVMask uint64
	// fill counts valid ways per set; once a set is full the install path
	// skips the empty-way scan forever (Invalidate resets it).
	fill []uint8
	// mru records the most-recently-touched way per set: the scan probes
	// it first, which catches workloads that cycle through a few sets
	// (pool windows, row walks) without any semantic change — it is only
	// a probe order.
	mru []uint8

	// Replacement policy method table, bound once at construction so the
	// access path carries no per-access policy switch.
	hitFn    func(set uint64, way int)
	fillFn   func(set uint64, way int)
	victimFn func(set uint64) int
	// memoTouch is true when a repeat hit on the last-touched way must
	// restamp recency state (LRU's global clock). TreePLRU hits instead
	// take the mask-folded repoint (idempotent when the way was already the
	// set's last touch); FIFO and Random never update on hits.
	memoTouch bool

	// Two-entry touched-line memo (most recent + previous). Invariant: when
	// memoOK/memo2OK, the line is resident at its ways index. Hits and
	// installs refresh entry 0 (shifting the old entry 0 to entry 1);
	// installs invalidate entry 1 when the eviction lands on its way;
	// Invalidate/Flush clear both. The second entry is what catches the
	// conv kernels' strict weight-row/output-row alternation.
	memoLine uint64
	memoIdx  uint64
	memoSet  uint64
	memoWay  int
	memoOK   bool

	memo2On   bool
	memo2Line uint64
	memo2Idx  uint64
	memo2Set  uint64
	memo2Way  int
	memo2OK   bool

	stats Stats
}

// New constructs a level. The configuration is validated.
func New(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sets := cfg.Size / (cfg.LineSize * uint64(cfg.Assoc))
	c := &Cache{
		cfg:      cfg,
		sets:     sets,
		lineBits: uint(bits.TrailingZeros64(cfg.LineSize)),
		setMask:  sets - 1,
		setBits:  uint(bits.TrailingZeros64(sets)),
		assoc:    uint64(cfg.Assoc),
		tags:     make([]uint64, sets*uint64(cfg.Assoc)),
		dirty:    make([]bool, sets*uint64(cfg.Assoc)),
		age:      make([]uint32, sets*uint64(cfg.Assoc)),
		plruTree: make([]uint64, sets),
		fill:     make([]uint8, sets),
		mru:      make([]uint8, sets),
		rng:      0x9e3779b97f4a7c15,
	}
	c.tagShift = c.lineBits + c.setBits
	c.memo2On = cfg.AltLineMemo
	if cfg.Policy == TreePLRU {
		c.buildPLRUTables()
	}
	switch cfg.Policy {
	case LRU:
		c.hitFn, c.fillFn, c.victimFn = c.ageTouch, c.ageTouch, c.ageVictim
		c.memoTouch = true
	case TreePLRU:
		c.hitFn, c.fillFn, c.victimFn = c.plruPoint, c.plruPoint, c.plruVictim
	case FIFO:
		// FIFO ignores recency: hits do not refresh, fills set the order.
		c.hitFn, c.fillFn, c.victimFn = c.nopTouch, c.ageTouch, c.ageVictim
	case Random:
		c.hitFn, c.fillFn, c.victimFn = c.nopTouch, c.nopTouch, c.randVictim
	default:
		return nil, fmt.Errorf("cache: %s has unknown policy %d", cfg.Name, int(cfg.Policy))
	}
	return c, nil
}

// Config returns the level's configuration.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns a copy of the counters. Hits are derived on read
// (accesses − misses): every access either hits or misses, so the hot
// paths only maintain the access and miss counts and the hit count never
// needs a third read-modify-write per event.
func (c *Cache) Stats() Stats {
	s := c.stats
	s.Hits = s.Accesses - s.Misses
	return s
}

// ResetStats clears the counters but keeps cache contents (used between a
// warm-up pass and a measured pass).
func (c *Cache) ResetStats() { c.stats = Stats{} }

// AddExternal accounts traffic produced by co-resident activity that is
// modeled statistically rather than simulated line-by-line (e.g. the ML
// framework runtime around the instrumented kernels). misses is clamped
// to refs.
func (c *Cache) AddExternal(refs, misses uint64) {
	if misses > refs {
		misses = refs
	}
	c.stats.Accesses += refs
	c.stats.Misses += misses
}

// Flush invalidates all lines and clears stats.
func (c *Cache) Flush() {
	c.Invalidate()
	c.stats = Stats{}
}

// Invalidate drops all cached lines but keeps the counters — the state a
// fresh process sees while an attached PMU keeps counting.
func (c *Cache) Invalidate() {
	clear(c.tags)
	clear(c.dirty)
	clear(c.age)
	clear(c.plruTree)
	clear(c.fill)
	clear(c.mru)
	c.clock = 0
	c.memoOK = false
	c.memo2OK = false
}

func (c *Cache) index(addr mem.Addr) (set uint64, tag uint64) {
	line := uint64(addr) >> c.lineBits
	return line & c.setMask, line >> c.setBits
}

// Access simulates one access. write marks the line dirty. It returns true
// on hit. Misses install the line, evicting per the policy.
//
//detlint:allocpath
func (c *Cache) Access(addr mem.Addr, write bool) bool {
	c.stats.Accesses++
	if write {
		c.stats.Writes++
	}
	line := uint64(addr) >> c.lineBits
	if c.memoOK && line == c.memoLine {
		// Same line as the previous Access: guaranteed resident, skip the
		// way scan. Replacement state takes the inlined hit update; the
		// tree-PLRU repoint is idempotent when this way was also the set's
		// last touch, and corrective when a resolved touch (TouchResolved)
		// moved the tree in between.
		if c.memoTouch { // LRU: bump the global clock and restamp the way
			c.clock++
			c.age[c.memoIdx] = c.clock
		} else if c.plruSet != nil {
			w := c.memoWay
			c.plruTree[c.memoSet] = (c.plruTree[c.memoSet] &^ c.plruClr[w]) | c.plruSet[w]
		}
		if write {
			c.dirty[c.memoIdx] = true
		}
		return true
	}
	if c.memo2On && c.memo2OK && line == c.memo2Line {
		// Two-line alternation: promote the previous entry and take the
		// full hit update (the way differs from the last touch, so PLRU is
		// not idempotent here).
		c.memoLine, c.memo2Line = c.memo2Line, c.memoLine
		c.memoIdx, c.memo2Idx = c.memo2Idx, c.memoIdx
		c.memoSet, c.memo2Set = c.memo2Set, c.memoSet
		c.memoWay, c.memo2Way = c.memo2Way, c.memoWay
		c.memo2OK = c.memoOK
		c.memoOK = true
		set, w, i := c.memoSet, c.memoWay, c.memoIdx
		c.mru[set] = uint8(w)
		// hitUpdate, manually inlined (see hitUpdate).
		if c.memoTouch {
			c.clock++
			c.age[i] = c.clock
		} else if c.plruSet != nil {
			c.plruTree[set] = (c.plruTree[set] &^ c.plruClr[w]) | c.plruSet[w]
		} else {
			c.hitFn(set, w)
		}
		if write {
			c.dirty[i] = true
		}
		return true
	}
	set := line & c.setMask
	probe := (line >> c.setBits) + 1
	base := set * c.assoc
	// MRU-way fast hit check: probe the set's most-recently-touched way
	// before scanning.
	if m := uint64(c.mru[set]); c.tags[base+m] == probe {
		i := base + m
		c.hitUpdate(set, int(m), i, write)
		c.noteTouch(line, set, int(m), i)
		return true
	}
	ways := c.tags[base : base+c.assoc]
	for w := range ways {
		if ways[w] == probe {
			i := base + uint64(w)
			// hitUpdate, manually inlined (measured: the call is not
			// inlined and this is the hottest hit path).
			if c.memoTouch {
				c.clock++
				c.age[i] = c.clock
			} else if c.plruSet != nil {
				c.plruTree[set] = (c.plruTree[set] &^ c.plruClr[w]) | c.plruSet[w]
			} else {
				c.hitFn(set, w)
			}
			if write {
				c.dirty[i] = true
			}
			c.noteTouch(line, set, w, i)
			return true
		}
	}
	c.stats.Misses++
	c.installLine(line, set, probe, write)
	if c.cfg.NextLinePrefetch {
		next := addr + mem.Addr(c.cfg.LineSize)
		if !c.present(next) {
			nl := uint64(next) >> c.lineBits
			c.installLine(nl, nl&c.setMask, (nl>>c.setBits)+1, false)
		}
	}
	return false
}

// hitUpdate applies replacement metadata and the dirty bit for a hit at
// (set, way); the caller accounts the hit itself. Hot policies are handled
// inline (LRU clock stamp, PLRU mask fold); everything else goes through
// the bound method table. The same ladder is manually inlined in Access's
// memo-promote and way-scan hit paths — the call is not inlined by the
// compiler and is measurable there; keep the copies in sync.
func (c *Cache) hitUpdate(set uint64, w int, i uint64, write bool) {
	if c.memoTouch {
		c.clock++
		c.age[i] = c.clock
	} else if c.plruSet != nil {
		c.plruTree[set] = (c.plruTree[set] &^ c.plruClr[w]) | c.plruSet[w]
	} else {
		c.hitFn(set, w)
	}
	if write {
		c.dirty[i] = true
	}
}

// noteTouch refreshes the per-set MRU hint and the touched-line memo.
func (c *Cache) noteTouch(line, set uint64, w int, i uint64) {
	c.mru[set] = uint8(w)
	c.shiftMemo(line, set, w, i)
}

// shiftMemo records a newly touched resident line in entry 0, demoting the
// previous entry 0 to entry 1 when the second entry is enabled.
func (c *Cache) shiftMemo(line, set uint64, w int, i uint64) {
	if c.memo2On && c.memoOK {
		c.memo2Line, c.memo2Set, c.memo2Way, c.memo2Idx, c.memo2OK =
			c.memoLine, c.memoSet, c.memoWay, c.memoIdx, true
	}
	c.memoLine, c.memoSet, c.memoWay, c.memoIdx, c.memoOK = line, set, w, i, true
}

// MemoIs reports whether addr falls in the line most recently touched by
// Access — i.e. whether a repeat access is guaranteed to hit via the memo
// fast path. Used by the engine's same-line short-circuit.
func (c *Cache) MemoIs(addr mem.Addr) bool {
	return c.memoOK && uint64(addr)>>c.lineBits == c.memoLine
}

// HitLastN replays n additional hits on the line most recently touched by
// Access, in O(1) instead of n lookups. Counters and replacement metadata
// end up exactly as n individual hitting Access calls would leave them:
// LRU advances the clock n times and restamps the way (uint32 wraparound
// matches n increments); tree-PLRU repoints away from the way once (n
// identical repoints fold into one — the mask update is idempotent); FIFO
// and Random never update on hits. The caller must have touched the line
// via Access since the last Invalidate/Flush (checked: panics on a
// cleared memo).
func (c *Cache) HitLastN(n uint64, write bool) {
	if n == 0 {
		return
	}
	if !c.memoOK {
		panic("cache: HitLastN without a preceding Access")
	}
	c.stats.Accesses += n
	if write {
		c.stats.Writes += n
		c.dirty[c.memoIdx] = true
	}
	if c.memoTouch { // LRU: n clock bumps, final stamp on the way
		c.clock += uint32(n)
		c.age[c.memoIdx] = c.clock
	} else if c.plruSet != nil {
		w := c.memoWay
		c.plruTree[c.memoSet] = (c.plruTree[c.memoSet] &^ c.plruClr[w]) | c.plruSet[w]
	}
}

// present reports whether the line holding addr is cached, without
// updating any replacement or stats state.
func (c *Cache) present(addr mem.Addr) bool {
	set, tag := c.index(addr)
	probe := tag + 1
	base := set * c.assoc
	for w := uint64(0); w < c.assoc; w++ {
		if c.tags[base+w] == probe {
			return true
		}
	}
	return false
}

// installLine places a line into its set, evicting a victim per the
// policy. probe is the sentinel-encoded tag (tag + 1).
func (c *Cache) installLine(line, set, probe uint64, write bool) {
	base := set * c.assoc
	victim := -1
	if uint64(c.fill[set]) < c.assoc {
		for w := uint64(0); w < c.assoc; w++ {
			if c.tags[base+w] == 0 {
				victim = int(w)
				c.fill[set]++
				break
			}
		}
	}
	if victim < 0 {
		if c.plruVict != nil {
			victim = int(c.plruVict[c.plruTree[set]&c.plruVMask])
		} else {
			victim = c.victimFn(set)
		}
		c.stats.Evictions++
	}
	i := base + uint64(victim)
	c.tags[i] = probe
	c.dirty[i] = write
	if c.memoTouch {
		c.clock++
		c.age[i] = c.clock
	} else if c.plruSet != nil {
		c.plruTree[set] = (c.plruTree[set] &^ c.plruClr[victim]) | c.plruSet[victim]
	} else {
		c.fillFn(set, victim)
	}
	c.mru[set] = uint8(victim)
	c.shiftMemo(line, set, victim, i)
	if c.memo2OK && c.memo2Idx == i {
		// The eviction landed on the previous memo entry's way: its line
		// is gone.
		c.memo2OK = false
	}
}

// ageTouch bumps the global clock and stamps the way — the LRU hit/fill
// update and the FIFO fill update.
func (c *Cache) ageTouch(set uint64, way int) {
	c.clock++
	c.age[set*c.assoc+uint64(way)] = c.clock
}

func (c *Cache) nopTouch(set uint64, way int) {}

// ageVictim selects the way with the smallest stamp (LRU and FIFO share
// the mechanism; they differ in when ageTouch runs).
func (c *Cache) ageVictim(set uint64) int {
	base := set * c.assoc
	best, bestAge := 0, c.age[base]
	for w := uint64(1); w < c.assoc; w++ {
		if a := c.age[base+w]; a < bestAge {
			best, bestAge = int(w), a
		}
	}
	return best
}

// randVictim draws from the xorshift stream.
func (c *Cache) randVictim(set uint64) int {
	c.rng ^= c.rng << 13
	c.rng ^= c.rng >> 7
	c.rng ^= c.rng << 17
	return int(c.rng % c.assoc)
}

// buildPLRUTables folds the per-way tree walks into masks (and, for small
// associativities, the victim walk into a lookup table). The folded forms
// compute exactly what the reference walks compute; the equivalence tests
// in fastpath_test.go replay both against each other.
func (c *Cache) buildPLRUTables() {
	assoc := int(c.assoc)
	c.plruSet = make([]uint64, assoc)
	c.plruClr = make([]uint64, assoc)
	for way := 0; way < assoc; way++ {
		node, lo, hi := 0, 0, assoc
		for hi-lo > 1 {
			mid := (lo + hi) / 2
			if way < mid {
				c.plruSet[way] |= 1 << uint(node) // point right (away from the left half)
				node = 2*node + 1
				hi = mid
			} else {
				c.plruClr[way] |= 1 << uint(node) // point left
				node = 2*node + 2
				lo = mid
			}
		}
	}
	if assoc <= 8 {
		// Node bits used by an assoc-way tree fit in assoc-1 bits.
		c.plruVMask = (1 << uint(assoc-1)) - 1
		c.plruVict = make([]uint8, 1<<uint(assoc-1))
		for tree := range c.plruVict {
			node, lo, hi := 0, 0, assoc
			for hi-lo > 1 {
				mid := (lo + hi) / 2
				if uint64(tree)&(1<<uint(node)) != 0 { // points right
					node = 2*node + 2
					lo = mid
				} else {
					node = 2*node + 1
					hi = mid
				}
			}
			c.plruVict[tree] = uint8(lo)
		}
	}
}

// plruPoint makes every tree node point away from way (mask-folded walk).
func (c *Cache) plruPoint(set uint64, way int) {
	c.plruTree[set] = (c.plruTree[set] &^ c.plruClr[way]) | c.plruSet[way]
}

// plruVictim follows the pointer bits to the pseudo-LRU way.
func (c *Cache) plruVictim(set uint64) int {
	tree := c.plruTree[set]
	if c.plruVict != nil {
		return int(c.plruVict[tree&c.plruVMask])
	}
	assoc := int(c.assoc)
	node := 0
	lo, hi := 0, assoc
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if tree&(1<<uint(node)) != 0 { // points right
			node = 2*node + 2
			lo = mid
		} else {
			node = 2*node + 1
			hi = mid
		}
	}
	return lo
}

// Hierarchy chains levels; the engine retries an access that misses
// level i at level i+1. Stats accumulate independently per level.
type Hierarchy struct {
	Levels []*Cache
}

// NewHierarchy builds a hierarchy from level configs, first (index 0)
// being closest to the core.
func NewHierarchy(cfgs ...Config) (*Hierarchy, error) {
	if len(cfgs) == 0 {
		return nil, fmt.Errorf("cache: hierarchy needs at least one level")
	}
	h := &Hierarchy{}
	for _, cfg := range cfgs {
		lv, err := New(cfg)
		if err != nil {
			return nil, err
		}
		h.Levels = append(h.Levels, lv)
	}
	return h, nil
}

// Last returns the last (largest) level.
func (h *Hierarchy) Last() *Cache { return h.Levels[len(h.Levels)-1] }

// Flush invalidates every level.
func (h *Hierarchy) Flush() {
	for _, lv := range h.Levels {
		lv.Flush()
	}
}

// Invalidate drops contents at every level, keeping counters.
func (h *Hierarchy) Invalidate() {
	for _, lv := range h.Levels {
		lv.Invalidate()
	}
}

// ResetStats clears counters on every level, keeping contents.
func (h *Hierarchy) ResetStats() {
	for _, lv := range h.Levels {
		lv.ResetStats()
	}
}

// DefaultHierarchy models a small Xeon-class core: 32 KiB 8-way L1D,
// 256 KiB 8-way L2, 2 MiB 16-way LLC, 64-byte lines. The LLC is sized well
// below a real server part so the working set of the small CNNs exercises
// it; what matters for the reproduction is the *relative* class-dependent
// behaviour, not absolute capacities.
func DefaultHierarchy() *Hierarchy {
	h, err := NewHierarchy(
		Config{Name: "L1D", Size: 32 << 10, LineSize: 64, Assoc: 8, Policy: TreePLRU},
		Config{Name: "L2", Size: 256 << 10, LineSize: 64, Assoc: 8, Policy: TreePLRU},
		Config{Name: "LLC", Size: 2 << 20, LineSize: 64, Assoc: 16, Policy: LRU},
	)
	if err != nil {
		panic(err) // static configuration; cannot fail
	}
	return h
}
