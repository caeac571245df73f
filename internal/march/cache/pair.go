// Resolved-touch replay: the engine's hottest access shape is a repeat
// touch of a recently-used line — guaranteed TLB hit plus guaranteed data
// cache hit. A Placement captures where such a line lives (set, way, ways
// slot, sentinel tag) in both the data cache and the TLB; a Pair replays
// later touches directly at those coordinates, skipping both lookup walks
// and fusing the counter arithmetic of multi-event groups (same-line
// bulks, the convolution scatter's load/load/store triple) into O(1)
// updates.
//
// Exactness: a replayed touch performs precisely the state transitions of
// the hitting Access it stands in for — access/write counts are pure sums,
// LRU stamps are written in last-touch order with the clock advanced by
// the exact event count, tree-PLRU repoints are applied in event order
// (consecutive repoints of the same way fold into one: the mask update is
// idempotent), and FIFO/Random never mutate on hits. Validity is checked
// against the live tags arrays, so an install or Invalidate anywhere
// self-invalidates stale placements with zero bookkeeping.
package cache

// Placement is one line's resolved location in a data cache + TLB pair.
// The zero value is invalid (a sentinel probe is always ≥ 1).
type Placement struct {
	// Lo is the 64-byte-aligned base address; the placement covers
	// [Lo, Lo+64) — the engine's access granularity, which is what makes
	// one (data line, page) pair cover every touch in the block.
	Lo     uint64
	dIdx   uint64 // ways-slot index in the data cache
	dProbe uint64 // sentinel tag expected at dIdx (tag+1, never 0)
	dSet   uint64
	tIdx   uint64 // ways-slot index in the TLB
	tProbe uint64
	tSet   uint64
	dWay   int32
	tWay   int32
}

// Pair binds a data cache and a TLB for fused resolved-touch replay.
type Pair struct {
	Data *Cache
	TLB  *Cache
}

// Resolve captures addr's placement after a full Access walked both
// levels, i.e. while both touched-line memos point at addr's line/page.
// When they do not (a prefetching level moved the memo), the placement is
// left untouched and the block simply stays on the slow path.
//
//detlint:allocpath
func (p Pair) Resolve(pl *Placement, addr uint64) {
	d, t := p.Data, p.TLB
	if !d.memoOK || addr>>d.lineBits != d.memoLine ||
		!t.memoOK || addr>>t.lineBits != t.memoLine {
		return
	}
	pl.Lo = addr &^ 63
	pl.dSet, pl.dWay, pl.dIdx = d.memoSet, int32(d.memoWay), d.memoIdx
	pl.dProbe = d.tags[d.memoIdx]
	pl.tSet, pl.tWay, pl.tIdx = t.memoSet, int32(t.memoWay), t.memoIdx
	pl.tProbe = t.tags[t.memoIdx]
}

// live reports whether the placement still describes resident entries in
// both levels.
//
//detlint:allocpath
func (p Pair) live(pl *Placement) bool {
	return p.Data.tags[pl.dIdx] == pl.dProbe && p.TLB.tags[pl.tIdx] == pl.tProbe
}

// hitTouchN applies n same-placement hits' replacement updates in O(1):
// LRU advances the clock n times and stamps once (the final value is the
// only observable one), a tree-PLRU repoint is idempotent across identical
// repeats, FIFO/Random hits never mutate.
//
//detlint:allocpath
func (c *Cache) hitTouchN(n uint64, set uint64, way int32, idx uint64) {
	if c.memoTouch {
		c.clock += uint32(n)
		c.age[idx] = c.clock
	} else if c.plruSet != nil {
		c.plruTree[set] = (c.plruTree[set] &^ c.plruClr[way]) | c.plruSet[way]
	} else {
		c.hitFn(set, int(way))
	}
}

// Touch replays one access event (one TLB hit + one data hit) at pl.
// It returns false — leaving all state untouched — when pl does not cover
// addr or is no longer resident.
//
//detlint:allocpath
func (p Pair) Touch(pl *Placement, addr uint64, write bool) bool {
	if addr-pl.Lo >= 64 || pl.dProbe == 0 || !p.live(pl) {
		return false
	}
	d, t := p.Data, p.TLB
	t.stats.Accesses++
	if t.memoTouch {
		t.clock++
		t.age[pl.tIdx] = t.clock
	} else if t.plruSet != nil {
		t.plruTree[pl.tSet] = (t.plruTree[pl.tSet] &^ t.plruClr[pl.tWay]) | t.plruSet[pl.tWay]
	} else {
		t.hitFn(pl.tSet, int(pl.tWay))
	}
	d.stats.Accesses++
	if write {
		d.stats.Writes++
		d.dirty[pl.dIdx] = true
	}
	if d.memoTouch {
		d.clock++
		d.age[pl.dIdx] = d.clock
	} else if d.plruSet != nil {
		d.plruTree[pl.dSet] = (d.plruTree[pl.dSet] &^ d.plruClr[pl.dWay]) | d.plruSet[pl.dWay]
	} else {
		d.hitFn(pl.dSet, int(pl.dWay))
	}
	return true
}

// TouchRun replays n same-block access events of which `writes` are
// stores, in O(1) — the resolved form of the kernels' blocked element
// walks (all-load runs, all-store runs, and interleaved load/store walks
// over one line all reduce to the same sums and final stamps). Returns
// false, with no state change, when the placement is stale.
//
//detlint:allocpath
func (p Pair) TouchRun(pl *Placement, addr uint64, n, writes uint64) bool {
	if addr-pl.Lo >= 64 || pl.dProbe == 0 || !p.live(pl) {
		return false
	}
	d, t := p.Data, p.TLB
	t.stats.Accesses += n
	t.hitTouchN(n, pl.tSet, pl.tWay, pl.tIdx)
	d.stats.Accesses += n
	if writes > 0 {
		d.stats.Writes += writes
		d.dirty[pl.dIdx] = true
	}
	d.hitTouchN(n, pl.dSet, pl.dWay, pl.dIdx)
	return true
}

// MacSpan replays up to n consecutive MacRow triples — weight row advancing
// by wStep bytes, output row receding by size bytes per position, the
// convolution scatter's per-(ky) inner walk — through the resolved-touch
// cache in one call. touch is the engine's placement array (mask = len-1,
// a power of two). It returns the number of leading positions fused;
// the caller replays the remainder (a stale placement, a line-crossing
// row, or a slot collision) through the ordinary per-position path, which
// re-resolves and lets the next span fuse again. Each position performs
// exactly the MacRow state transitions, in position order.
//
//detlint:allocpath
func (p Pair) MacSpan(touch []Placement, mask, w, o, wStep, size uint64, n int) int {
	d, t := p.Data, p.TLB
	i := 0
	for ; i < n; i++ {
		if (w&63)+size > 64 || (o&63)+size > 64 {
			break
		}
		pw := &touch[(w>>6)&mask]
		po := &touch[(o>>6)&mask]
		if w-pw.Lo >= 64 || o-po.Lo >= 64 || pw.dProbe == 0 || po.dProbe == 0 {
			break
		}
		if d.tags[pw.dIdx] != pw.dProbe || t.tags[pw.tIdx] != pw.tProbe ||
			d.tags[po.dIdx] != po.dProbe || t.tags[po.tIdx] != po.tProbe {
			break
		}
		// TLB: three translation hits (weight page, output page twice).
		t.stats.Accesses += 3
		if t.memoTouch {
			t.clock += 3
			t.age[pw.tIdx] = t.clock - 2
			t.age[po.tIdx] = t.clock
		} else if t.plruSet != nil {
			t.plruTree[pw.tSet] = (t.plruTree[pw.tSet] &^ t.plruClr[pw.tWay]) | t.plruSet[pw.tWay]
			t.plruTree[po.tSet] = (t.plruTree[po.tSet] &^ t.plruClr[po.tWay]) | t.plruSet[po.tWay]
		} else {
			t.hitFn(pw.tSet, int(pw.tWay))
			t.hitFn(po.tSet, int(po.tWay))
			t.hitFn(po.tSet, int(po.tWay))
		}
		// Data cache: weight load hit, output load hit, output store hit.
		d.stats.Accesses += 3
		d.stats.Writes++
		d.dirty[po.dIdx] = true
		if d.memoTouch {
			d.clock += 3
			d.age[pw.dIdx] = d.clock - 2
			d.age[po.dIdx] = d.clock
		} else if d.plruSet != nil {
			d.plruTree[pw.dSet] = (d.plruTree[pw.dSet] &^ d.plruClr[pw.dWay]) | d.plruSet[pw.dWay]
			d.plruTree[po.dSet] = (d.plruTree[po.dSet] &^ d.plruClr[po.dWay]) | d.plruSet[po.dWay]
		} else {
			d.hitFn(pw.dSet, int(pw.dWay))
			d.hitFn(po.dSet, int(po.dWay))
			d.hitFn(po.dSet, int(po.dWay))
		}
		w += wStep
		o -= size
	}
	return i
}

// Solo is a resolved placement in a single cache level — the L2 analogue
// of Placement, used by the engine's miss walk to replay the L2 hit of a
// recurring L1-missing line without the full lookup. The zero value is
// invalid.
type Solo struct {
	Lo    uint64 // 64-byte-aligned base; covers [Lo, Lo+64)
	idx   uint64
	probe uint64
	set   uint64
	way   int32
}

// ResolveSolo captures addr's placement in c while c's touched-line memo
// points at addr's line (i.e. right after an Access of addr).
//
//detlint:allocpath
func (c *Cache) ResolveSolo(pl *Solo, addr uint64) {
	if !c.memoOK || addr>>c.lineBits != c.memoLine {
		return
	}
	pl.Lo = addr &^ 63
	pl.set, pl.way, pl.idx = c.memoSet, int32(c.memoWay), c.memoIdx
	pl.probe = c.tags[c.memoIdx]
}

// TouchSolo replays one guaranteed-hit access at pl — exactly the state
// transitions of a hitting Access. Returns false, with no state change,
// when pl does not cover addr or the entry is no longer resident.
//
//detlint:allocpath
func (c *Cache) TouchSolo(pl *Solo, addr uint64, write bool) bool {
	if addr-pl.Lo >= 64 || pl.probe == 0 || c.tags[pl.idx] != pl.probe {
		return false
	}
	c.stats.Accesses++
	if write {
		c.stats.Writes++
		c.dirty[pl.idx] = true
	}
	if c.memoTouch {
		c.clock++
		c.age[pl.idx] = c.clock
	} else if c.plruSet != nil {
		c.plruTree[pl.set] = (c.plruTree[pl.set] &^ c.plruClr[pl.way]) | c.plruSet[pl.way]
	} else {
		c.hitFn(pl.set, int(pl.way))
	}
	return true
}

// MacRow replays the convolution scatter's per-position event triple —
// weight-row load, output-row load, output-row store — when both rows'
// placements are current, fusing the three events' counter arithmetic.
// LRU stamps are written in last-touch order with exact clock values
// (weight at clock-2, output at clock — if both map to the same TLB entry
// the later store's stamp wins, exactly as sequentially); PLRU repoints
// run in event order with the duplicate output repoint folded. Returns
// false, with no state change, when either placement is stale.
//
//detlint:allocpath
func (p Pair) MacRow(w, o *Placement, wa, oa uint64) bool {
	if wa-w.Lo >= 64 || oa-o.Lo >= 64 || w.dProbe == 0 || o.dProbe == 0 {
		return false
	}
	d, t := p.Data, p.TLB
	if d.tags[w.dIdx] != w.dProbe || t.tags[w.tIdx] != w.tProbe ||
		d.tags[o.dIdx] != o.dProbe || t.tags[o.tIdx] != o.tProbe {
		return false
	}
	// TLB: three translation hits (weight page, output page twice).
	t.stats.Accesses += 3
	if t.memoTouch {
		t.clock += 3
		t.age[w.tIdx] = t.clock - 2
		t.age[o.tIdx] = t.clock
	} else if t.plruSet != nil {
		t.plruTree[w.tSet] = (t.plruTree[w.tSet] &^ t.plruClr[w.tWay]) | t.plruSet[w.tWay]
		t.plruTree[o.tSet] = (t.plruTree[o.tSet] &^ t.plruClr[o.tWay]) | t.plruSet[o.tWay]
	} else {
		t.hitFn(w.tSet, int(w.tWay))
		t.hitFn(o.tSet, int(o.tWay))
		t.hitFn(o.tSet, int(o.tWay))
	}
	// Data cache: weight load hit, output load hit, output store hit.
	d.stats.Accesses += 3
	d.stats.Writes++
	d.dirty[o.dIdx] = true
	if d.memoTouch {
		d.clock += 3
		d.age[w.dIdx] = d.clock - 2
		d.age[o.dIdx] = d.clock
	} else if d.plruSet != nil {
		d.plruTree[w.dSet] = (d.plruTree[w.dSet] &^ d.plruClr[w.dWay]) | d.plruSet[w.dWay]
		d.plruTree[o.dSet] = (d.plruTree[o.dSet] &^ d.plruClr[o.dWay]) | d.plruSet[o.dWay]
	} else {
		d.hitFn(w.dSet, int(w.dWay))
		d.hitFn(o.dSet, int(o.dWay))
		d.hitFn(o.dSet, int(o.dWay))
	}
	return true
}
