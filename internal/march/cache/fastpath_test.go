package cache

// Equivalence guard for the optimized access path: a reference model that
// keeps the original per-access semantics (recomputed shift amounts,
// per-access policy switch, no memo) is replayed against the optimized
// Cache on random traces. Every hit/miss decision and every counter must
// agree — the optimization is allowed to change wall-clock only.

import (
	"math/bits"
	"math/rand"
	"testing"

	"repro/internal/march/mem"
)

// refCache is the pre-optimization implementation, kept verbatim in spirit:
// index recomputes bits.TrailingZeros64(sets) per access, replacement is a
// per-access switch, and there is no hot-line memo.
type refCache struct {
	cfg      Config
	sets     uint64
	lineBits uint
	setMask  uint64
	tags     []uint64
	valid    []bool
	dirty    []bool
	age      []uint32
	clock    uint32
	plruTree []uint64
	stats    Stats
}

func newRef(cfg Config) *refCache {
	sets := cfg.Size / (cfg.LineSize * uint64(cfg.Assoc))
	return &refCache{
		cfg:      cfg,
		sets:     sets,
		lineBits: uint(bits.TrailingZeros64(cfg.LineSize)),
		setMask:  sets - 1,
		tags:     make([]uint64, sets*uint64(cfg.Assoc)),
		valid:    make([]bool, sets*uint64(cfg.Assoc)),
		dirty:    make([]bool, sets*uint64(cfg.Assoc)),
		age:      make([]uint32, sets*uint64(cfg.Assoc)),
		plruTree: make([]uint64, sets),
	}
}

func (c *refCache) index(addr mem.Addr) (set, tag uint64) {
	line := uint64(addr) >> c.lineBits
	return line & c.setMask, line >> bits.TrailingZeros64(c.sets)
}

func (c *refCache) access(addr mem.Addr, write bool) bool {
	c.stats.Accesses++
	if write {
		c.stats.Writes++
	}
	set, tag := c.index(addr)
	base := set * uint64(c.cfg.Assoc)
	for w := 0; w < c.cfg.Assoc; w++ {
		i := base + uint64(w)
		if c.valid[i] && c.tags[i] == tag {
			c.onHit(set, w)
			if write {
				c.dirty[i] = true
			}
			c.stats.Hits++
			return true
		}
	}
	c.install(addr, write)
	c.stats.Misses++
	return false
}

func (c *refCache) install(addr mem.Addr, write bool) {
	set, tag := c.index(addr)
	base := set * uint64(c.cfg.Assoc)
	victim := -1
	for w := 0; w < c.cfg.Assoc; w++ {
		if !c.valid[base+uint64(w)] {
			victim = w
			break
		}
	}
	if victim < 0 {
		victim = c.victim(set)
		c.stats.Evictions++
	}
	i := base + uint64(victim)
	c.tags[i] = tag
	c.valid[i] = true
	c.dirty[i] = write
	c.onFill(set, victim)
}

func (c *refCache) onHit(set uint64, way int) {
	switch c.cfg.Policy {
	case LRU:
		c.clock++
		c.age[set*uint64(c.cfg.Assoc)+uint64(way)] = c.clock
	case TreePLRU:
		c.plruPoint(set, way)
	}
}

func (c *refCache) onFill(set uint64, way int) {
	switch c.cfg.Policy {
	case LRU:
		c.clock++
		c.age[set*uint64(c.cfg.Assoc)+uint64(way)] = c.clock
	case TreePLRU:
		c.plruPoint(set, way)
	}
}

func (c *refCache) victim(set uint64) int {
	switch c.cfg.Policy {
	case LRU:
		base := set * uint64(c.cfg.Assoc)
		best, bestAge := 0, c.age[base]
		for w := 1; w < c.cfg.Assoc; w++ {
			if a := c.age[base+uint64(w)]; a < bestAge {
				best, bestAge = w, a
			}
		}
		return best
	case TreePLRU:
		return c.plruVictim(set)
	default:
		return 0
	}
}

func (c *refCache) plruPoint(set uint64, way int) {
	node, lo, hi := 0, 0, c.cfg.Assoc
	tree := c.plruTree[set]
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if way < mid {
			tree |= 1 << uint(node)
			node = 2*node + 1
			hi = mid
		} else {
			tree &^= 1 << uint(node)
			node = 2*node + 2
			lo = mid
		}
	}
	c.plruTree[set] = tree
}

func (c *refCache) plruVictim(set uint64) int {
	node, lo, hi := 0, 0, c.cfg.Assoc
	tree := c.plruTree[set]
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if tree&(1<<uint(node)) != 0 {
			node = 2*node + 2
			lo = mid
		} else {
			node = 2*node + 1
			hi = mid
		}
	}
	return lo
}

// TestTagShiftDecomposition pins the satellite fix: index must produce the
// same set/tag decomposition as the original per-access
// bits.TrailingZeros64 computation, across the address space and across
// geometries.
func TestTagShiftDecomposition(t *testing.T) {
	cfgs := []Config{
		{Name: "tiny", Size: 256, LineSize: 64, Assoc: 2, Policy: LRU},
		{Name: "l1", Size: 4 << 10, LineSize: 64, Assoc: 4, Policy: TreePLRU},
		{Name: "llc", Size: 2 << 20, LineSize: 64, Assoc: 16, Policy: LRU},
		{Name: "tlb", Size: 64 * 4096, LineSize: 4096, Assoc: 4, Policy: LRU},
		{Name: "oneSet", Size: 64 * 4, LineSize: 64, Assoc: 4, Policy: TreePLRU},
	}
	for _, cfg := range cfgs {
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := c.tagShift, c.lineBits+uint(bits.TrailingZeros64(c.sets)); got != want {
			t.Fatalf("%s: tagShift = %d, want %d", cfg.Name, got, want)
		}
		rng := rand.New(rand.NewSource(42))
		for i := 0; i < 20000; i++ {
			addr := mem.Addr(rng.Uint64())
			set, tag := c.index(addr)
			line := uint64(addr) >> c.lineBits
			wantSet := line & (c.sets - 1)
			wantTag := line >> bits.TrailingZeros64(c.sets)
			if set != wantSet || tag != wantTag {
				t.Fatalf("%s: index(%#x) = (%d, %#x), want (%d, %#x)",
					cfg.Name, uint64(addr), set, tag, wantSet, wantTag)
			}
			if altTag := uint64(addr) >> c.tagShift; altTag != wantTag {
				t.Fatalf("%s: addr>>tagShift = %#x, want %#x", cfg.Name, altTag, wantTag)
			}
		}
	}
}

// TestAccessMatchesReferenceModel replays random traces through the
// optimized Cache and the reference model for every policy, asserting
// identical hit/miss decisions and counters — the counter-invariance
// contract of the fast path.
func TestAccessMatchesReferenceModel(t *testing.T) {
	cfgs := []Config{
		{Name: "lru", Size: 2048, LineSize: 64, Assoc: 4, Policy: LRU},
		{Name: "plru", Size: 2048, LineSize: 64, Assoc: 4, Policy: TreePLRU},
		{Name: "oneSet", Size: 64 * 4, LineSize: 64, Assoc: 4, Policy: TreePLRU},
		{Name: "altmemo", Size: 2048, LineSize: 64, Assoc: 4, Policy: LRU, AltLineMemo: true},
		{Name: "altplru", Size: 2048, LineSize: 64, Assoc: 4, Policy: TreePLRU, AltLineMemo: true},
	}
	for _, cfg := range cfgs {
		t.Run(cfg.Name, func(t *testing.T) {
			c, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ref := newRef(cfg)
			rng := rand.New(rand.NewSource(7))
			for i := 0; i < 40000; i++ {
				var addr mem.Addr
				switch rng.Intn(4) {
				case 0: // random far address
					addr = mem.Addr(rng.Intn(1 << 14))
				case 1: // sequential-ish walk: exercises the memo
					addr = mem.Addr((i % 512) * 4)
				case 2: // repeat last-ish address: exercises the memo hard
					addr = mem.Addr((i / 8) * 4 % (1 << 13))
				default: // strict two-line alternation: exercises memo entry 1
					addr = mem.Addr((i%2)*2048 + (i/200%4)*64)
				}
				write := rng.Intn(4) == 0
				got := c.Access(addr, write)
				want := ref.access(addr, write)
				if got != want {
					t.Fatalf("access %d (%#x, write=%v): hit=%v, reference=%v", i, uint64(addr), write, got, want)
				}
				if rng.Intn(997) == 0 {
					c.Invalidate()
					ref2 := newRef(cfg)
					ref2.stats = ref.stats
					ref = ref2
				}
			}
			if c.Stats() != ref.stats {
				t.Fatalf("stats diverged: %+v vs reference %+v", c.Stats(), ref.stats)
			}
			// Full state comparison: tags, validity, dirty bits, replacement
			// metadata. The optimized cache sentinel-encodes validity as
			// tag+1 in the tags array.
			for i := range c.tags {
				valid := c.tags[i] != 0
				if valid != ref.valid[i] || (valid && c.tags[i]-1 != ref.tags[i]) || c.dirty[i] != ref.dirty[i] {
					t.Fatalf("way state %d diverged", i)
				}
			}
		})
	}
}

// TestHitLastNMatchesIndividualHits asserts that the batched replay leaves
// counters and replacement state exactly as n individual hitting Access
// calls would, for every policy.
func TestHitLastNMatchesIndividualHits(t *testing.T) {
	for _, pol := range []Policy{LRU, TreePLRU} {
		t.Run(pol.String(), func(t *testing.T) {
			cfg := Config{Name: "h", Size: 1024, LineSize: 64, Assoc: 4, Policy: pol}
			a, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			b, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(3))
			for i := 0; i < 2000; i++ {
				addr := mem.Addr(rng.Intn(1 << 12))
				write := rng.Intn(5) == 0
				a.Access(addr, write)
				b.Access(addr, write)
				if rng.Intn(2) == 0 {
					n := uint64(1 + rng.Intn(15))
					hw := rng.Intn(3) == 0
					a.HitLastN(n, hw)
					for j := uint64(0); j < n; j++ {
						if !b.Access(addr, hw) {
							t.Fatalf("replayed access missed")
						}
					}
				}
			}
			if a.Stats() != b.Stats() {
				t.Fatalf("stats diverged: %+v vs %+v", a.Stats(), b.Stats())
			}
			if a.clock != b.clock {
				t.Fatalf("clock diverged: %d vs %d", a.clock, b.clock)
			}
			for i := range a.tags {
				if a.tags[i] != b.tags[i] || a.age[i] != b.age[i] || a.dirty[i] != b.dirty[i] {
					t.Fatalf("way state %d diverged", i)
				}
			}
			for i := range a.plruTree {
				if a.plruTree[i] != b.plruTree[i] {
					t.Fatalf("plru tree %d diverged", i)
				}
			}
		})
	}
}

// TestMemoInvalidation: the memo must not survive Invalidate/Flush, and
// MemoIs must only report the genuinely last-touched line.
func TestMemoInvalidation(t *testing.T) {
	c := smallLRUT(t, 1024, 2)
	c.Access(0x1000, false)
	if !c.MemoIs(0x1010) {
		t.Fatal("MemoIs false for just-touched line")
	}
	if c.MemoIs(0x2000) {
		t.Fatal("MemoIs true for a different line")
	}
	c.Invalidate()
	if c.MemoIs(0x1010) {
		t.Fatal("memo survived Invalidate")
	}
	if c.Access(0x1000, false) {
		t.Fatal("access after Invalidate hit")
	}
	c.Flush()
	if c.MemoIs(0x1000) {
		t.Fatal("memo survived Flush")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("HitLastN after Flush did not panic")
		}
	}()
	c.HitLastN(1, false)
}

func smallLRUT(t *testing.T, size uint64, assoc int) *Cache {
	t.Helper()
	c, err := New(Config{Name: "t", Size: size, LineSize: 64, Assoc: assoc, Policy: LRU})
	if err != nil {
		t.Fatal(err)
	}
	return c
}
