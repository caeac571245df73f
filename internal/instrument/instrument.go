// Package instrument executes a trained CNN's forward pass on the
// micro-architecture simulator, element by element, issuing every data
// load/store and every data-dependent branch — this is where the paper's
// side channel comes from.
//
// # Leakage mechanism
//
// The kernels use the sparsity-aware optimization common in CNN inference
// code: the input-stationary convolution tests every input activation and
// skips the whole weight-row walk when the activation is zero. ReLU makes
// post-activation sparsity strongly class-dependent, so both the number of
// cache accesses and their interleaving vary with the input category,
// which the small simulated cache hierarchy turns into class-dependent
// cache-miss counts. Branch *counts* are dominated by architecture-fixed
// tests (one zero-test per activation, one sign-test per ReLU element), so
// the `branches` event varies only weakly with the category — exactly the
// asymmetry of the paper's Tables 1 and 2.
//
// # Runtime model
//
// The paper measures a whole TensorFlow process, whose framework overhead
// (session dispatch, allocator, thread pool) dwarfs the arithmetic: Figure
// 2(b) reports 12×10⁹ instructions for a single 28×28 classification. The
// RuntimeModel injects that surrounding activity statistically (with
// per-run jitter) so absolute magnitudes and within-class spread behave
// like the paper's, while the class-dependent signal comes from the truly
// simulated kernels.
//
// # Hot path
//
// One evaluation campaign replays thousands of classifications, so the
// instrumented kernels are built for throughput without changing a single
// simulated counter:
//
//   - layer dispatch is a closure bound at construction (no per-layer
//     string switch in Classify);
//   - activation regions and output buffers are computed once at
//     construction and reused — Classify performs no arena allocation, no
//     arena reset and no Go heap allocation;
//   - contiguous element walks (conv/dense zero-runs, the ReLU sweep) are
//     emitted through the engine's line-granular batched range API
//     (Engine.LoadRange/StoreRange), and the convolution scatter defers its
//     pure-counter ops (ALU work, loop back-edges) to one flush per element.
//
// Reordering only ever happens between accesses to the *same* cache line
// (plus branch events, which touch no cache state), so cache, TLB,
// predictor and counter state stay bit-identical to the element-by-element
// emission; the golden end-to-end reports pin this.
package instrument

import (
	"fmt"
	"math/rand"

	"repro/internal/march"
	"repro/internal/march/cache"
	"repro/internal/march/mem"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// RuntimeModel is the statistically-modeled framework overhead added per
// classification.
type RuntimeModel struct {
	Ops          uint64  // mean non-branch instructions
	Branches     uint64  // mean branch instructions
	BranchMisses uint64  // mean branch mispredicts
	CacheRefs    uint64  // mean LLC references
	CacheMisses  uint64  // mean LLC misses
	Jitter       float64 // relative per-run sigma on every component
}

// DefaultRuntime approximates a lean single-threaded ML serving loop
// around the kernels (dispatch, allocator, input decode). The component
// means set the perf-stat magnitudes; the jitter is calibrated so the
// runtime's branch-count spread (σ ≈ Branches×Jitter ≈ 5.5k) drowns the
// kernels' small class-dependent branch deltas, while its cache-miss
// spread (σ ≈ 3) stays far below the kernels' class-dependent cache-miss
// deltas — reproducing the asymmetry between the cache-misses and
// branches columns of the paper's Tables 1 and 2.
func DefaultRuntime() RuntimeModel {
	return RuntimeModel{
		Ops:          180_000_000,
		Branches:     2_400_000,
		BranchMisses: 30_000,
		CacheRefs:    150_000,
		CacheMisses:  1_200,
		Jitter:       0.0023,
	}
}

// NoRuntime disables the overhead model (pure-kernel measurements).
func NoRuntime() RuntimeModel { return RuntimeModel{} }

// Options configures the instrumented classifier.
type Options struct {
	// SparsitySkip enables the zero-skipping kernels (the leakage source).
	// The defense package builds classifiers with this disabled.
	SparsitySkip bool
	// ConstantTime removes all data-dependent branches (branchless ReLU /
	// max) in addition to disabling the skip — the paper's "CNN with
	// indistinguishable CPU footprint" countermeasure direction.
	ConstantTime bool
	// Runtime is the framework overhead model.
	Runtime RuntimeModel
	// Seed drives the runtime jitter.
	Seed int64
}

// SimHierarchy returns the cache hierarchy used for the reproduction: an
// embedded-class core (4 KiB L1D, 16 KiB L2, 32 KiB LLC). The paper's Xeon
// ran a TensorFlow working set far larger than its LLC; scaling the cache
// down preserves that working-set-to-cache ratio for our small CNNs, which
// is what makes capacity misses (and hence the leak) observable.
func SimHierarchy() *cache.Hierarchy {
	h, err := cache.NewHierarchy(
		cache.Config{Name: "L1D", Size: 4 << 10, LineSize: 64, Assoc: 4, Policy: cache.TreePLRU},
		cache.Config{Name: "L2", Size: 16 << 10, LineSize: 64, Assoc: 4, Policy: cache.TreePLRU},
		cache.Config{Name: "LLC", Size: 32 << 10, LineSize: 64, Assoc: 8, Policy: cache.LRU},
	)
	if err != nil {
		panic(err) // static configuration; cannot fail
	}
	return h
}

// NewEngine builds a march.Engine configured for leakage evaluation
// (SimHierarchy plus the calibrated default noise model).
func NewEngine(noiseSeed int64) (*march.Engine, error) {
	return march.NewEngine(march.Config{
		Hierarchy: SimHierarchy(),
		Noise:     march.DefaultNoise(noiseSeed),
	})
}

// layerRun executes one layer: it consumes the current activation tensor
// and region and produces the next pair. Bound per plan at construction —
// the typed replacement for the old per-Classify string switch.
type layerRun func(p *layerPlan, cur *tensor.Tensor, curRegion mem.Region) (*tensor.Tensor, mem.Region, error)

// layerPlan caches per-layer instrumentation state.
type layerPlan struct {
	kind    string // "conv", "relu", "pool", "flatten", "dense" (reporting)
	run     layerRun
	conv    *nn.Conv2D
	dense   *nn.Dense
	inShape []int
	pc      uint64 // base simulated PC for this layer's branches
	wRegion mem.Region
	bRegion mem.Region
	// Preallocated per-classification scratch, reused across runs: the
	// simulated activation region (stable addresses, exactly where the old
	// per-Classify arena allocations landed) and the Go-side output buffer.
	outRegion mem.Region
	out       *tensor.Tensor
}

// Classifier runs instrumented inference for one network on one engine.
type Classifier struct {
	engine *march.Engine
	net    *nn.Network
	opts   Options
	plans  []layerPlan
	mark   mem.Region
	input  mem.Region // preallocated simulated input region
	top    mem.Addr   // end of the activation scratch layout (see ScratchTop)
	rng    *rand.Rand
}

// New builds a Classifier, allocating all weight tensors in the engine's
// simulated address space.
func New(net *nn.Network, engine *march.Engine, opts Options) (*Classifier, error) {
	if net == nil || engine == nil {
		return nil, fmt.Errorf("instrument: nil network or engine")
	}
	c := &Classifier{engine: engine, net: net, opts: opts, rng: rand.New(rand.NewSource(opts.Seed))}
	arena := engine.Arena()
	inShape := net.InShape
	for i, l := range net.Layers {
		p := layerPlan{inShape: append([]int(nil), inShape...), pc: uint64(0x401000 + i*0x1000)}
		switch lt := l.(type) {
		case *nn.Conv2D:
			p.kind, p.run = "conv", c.convLayer
			p.conv = lt
			w, err := arena.Alloc(lt.Name()+".filter", uint64(lt.Filter.Len())*4)
			if err != nil {
				return nil, err
			}
			b, err := arena.Alloc(lt.Name()+".bias", uint64(lt.Bias.Len())*4)
			if err != nil {
				return nil, err
			}
			p.wRegion, p.bRegion = w, b
		case *nn.Dense:
			p.kind, p.run = "dense", c.denseLayer
			p.dense = lt
			w, err := arena.Alloc(lt.Name()+".w", uint64(lt.W.Len())*4)
			if err != nil {
				return nil, err
			}
			b, err := arena.Alloc(lt.Name()+".b", uint64(lt.B.Len())*4)
			if err != nil {
				return nil, err
			}
			p.wRegion, p.bRegion = w, b
		case *nn.ReLU:
			p.kind, p.run = "relu", c.reluLayer
		case *nn.MaxPool2:
			p.kind, p.run = "pool", c.poolLayer
		case *nn.Flatten:
			p.kind, p.run = "flatten", flattenLayer
		default:
			return nil, fmt.Errorf("instrument: unsupported layer %s", l.Name())
		}
		c.plans = append(c.plans, p)
		inShape = l.OutShape()
	}
	c.mark = arena.Mark()
	c.planScratch()
	return c, nil
}

// planScratch lays out the per-classification activation regions above the
// weight mark — byte-for-byte where the per-Classify arena alloc/reset
// cycle used to place them — and allocates the reusable Go-side output
// buffers. Classify itself then runs allocation-free.
//
// The scratch regions are deliberately NOT registered in the arena: the
// arena's bump pointer stays at the weight mark, so anything a caller
// allocates after construction (e.g. the defense package's noise-sweep
// buffer) lands at the mark and shares simulated addresses with the
// activation scratch. That aliasing is the historical steady-state
// behavior of the alloc/reset cycle (every post-reset classification
// reused those addresses) and is deterministic; registering the scratch
// would shift later allocations upward and change simulated cache set
// mappings — i.e. counters — for such targets.
func (c *Classifier) planScratch() {
	align := c.engine.Arena().Align()
	next := c.mark.Base
	scratch := func(name string, size uint64) mem.Region {
		base := mem.Addr((uint64(next) + align - 1) &^ (align - 1))
		next = base + mem.Addr(size)
		return mem.Region{Name: name, Base: base, Size: size}
	}
	c.input = scratch("input", uint64(tensor.Volume(c.net.InShape))*4)
	var prev *tensor.Tensor // previous layer's reused buffer (nil = raw input)
	for i := range c.plans {
		p := &c.plans[i]
		switch p.kind {
		case "conv":
			g := p.conv.Geom
			p.out = tensor.New(g.OutH(), g.OutW(), g.OutC)
			p.outRegion = scratch(p.conv.Name()+".out", uint64(p.out.Len())*4)
		case "relu":
			p.out = tensor.New(p.inShape...)
		case "pool":
			h, w, ch := p.inShape[0], p.inShape[1], p.inShape[2]
			p.out = tensor.New(h/2, w/2, ch)
			p.outRegion = scratch("pool.out", uint64(p.out.Len())*4)
		case "dense":
			p.out = tensor.New(p.dense.Out)
			p.outRegion = scratch(p.dense.Name()+".out", uint64(p.dense.Out)*4)
		case "flatten":
			// When the input buffer is fixed (any non-first position), the
			// reshaped header can be built once here; flattenLayer then
			// returns it without allocating.
			if prev != nil {
				if r, err := prev.Reshape(prev.Len()); err == nil {
					p.out = r
				}
			}
		}
		prev = p.out
	}
	c.top = next
}

// ScratchTop returns the first simulated address above the classifier's
// activation scratch layout. The scratch is not registered in the arena
// (see planScratch), so a caller co-locating *another* classifier on the
// same engine must first bump the arena past this address — otherwise
// the second tenant's weights would alias this tenant's activations.
func (c *Classifier) ScratchTop() mem.Addr { return c.top }

// flattenLayer reshapes without touching simulated memory. The reshaped
// header is precomputed when the input buffer is fixed (see planScratch).
func flattenLayer(p *layerPlan, cur *tensor.Tensor, curRegion mem.Region) (*tensor.Tensor, mem.Region, error) {
	if p.out != nil {
		return p.out, curRegion, nil
	}
	out, err := cur.Reshape(cur.Len())
	return out, curRegion, err
}

// Engine returns the underlying simulated core.
func (c *Classifier) Engine() *march.Engine { return c.engine }

// Classify runs one instrumented classification and returns the predicted
// class. Hardware activity lands on the classifier's engine; observe it
// with an hpc.PMU attached to that engine.
func (c *Classifier) Classify(img *tensor.Tensor) (int, error) {
	cur, curRegion, err := c.begin(img)
	if err != nil {
		return 0, err
	}
	for i := range c.plans {
		p := &c.plans[i]
		cur, curRegion, err = p.run(p, cur, curRegion)
		if err != nil {
			return 0, fmt.Errorf("instrument: layer %d (%s): %w", i, p.kind, err)
		}
	}
	pred := c.argmax(cur, curRegion)
	c.applyRuntime()
	return pred, nil
}

// begin validates the input and streams the input image into its
// (preallocated) simulated region.
func (c *Classifier) begin(img *tensor.Tensor) (*tensor.Tensor, mem.Region, error) {
	if img.Len() != tensor.Volume(c.net.InShape) {
		return nil, mem.Region{}, fmt.Errorf("instrument: input volume %d, want %d", img.Len(), tensor.Volume(c.net.InShape))
	}
	// The input arrives from the user: stream it into simulated memory.
	c.engine.Store(c.input.Base, c.input.Size)
	return img, c.input, nil
}

// applyRuntime injects the per-classification framework overhead.
func (c *Classifier) applyRuntime() {
	rt := c.opts.Runtime
	if rt.Ops == 0 && rt.Branches == 0 && rt.CacheRefs == 0 {
		return
	}
	j := func(mean uint64) uint64 {
		if mean == 0 {
			return 0
		}
		v := float64(mean) * (1 + rt.Jitter*c.rng.NormFloat64())
		if v < 0 {
			return 0
		}
		return uint64(v)
	}
	c.engine.Background(j(rt.Ops), j(rt.Branches), j(rt.BranchMisses), j(rt.CacheRefs), j(rt.CacheMisses))
}

// convLayer runs the input-stationary sparsity-skipping convolution. The
// input walk is flat-sequential; runs of zero activations (the skipped
// elements) are emitted as line-granular batched loads, and each scattered
// element's weight/output row walk goes out as one trace batch.
func (c *Classifier) convLayer(p *layerPlan, in *tensor.Tensor, inRegion mem.Region) (*tensor.Tensor, mem.Region, error) {
	g := p.conv.Geom
	oh, ow, oc := g.OutH(), g.OutW(), g.OutC
	out := p.out
	clear(out.Data)
	outRegion := p.outRegion
	eng := c.engine
	filt := p.conv.Filter.Data
	inData := in.Data
	rowBytes := uint64(oc) * 4
	skip := c.opts.SparsitySkip && !c.opts.ConstantTime
	ct := c.opts.ConstantTime

	// Loop-overhead branches: one back-edge per input element (fixed).
	total := g.InH * g.InW * g.InC
	eng.PredictableBranches(uint64(total))

	// Zero-test branches at p.pc accumulate into same-direction runs and
	// flush on a direction flip (or at layer end): branches commute with
	// memory events, and a direction run replays through the predictor
	// exactly as the individual records, so long nonzero stretches reach
	// the predictor's fixpoint instead of paying per-element cost.
	var brN uint64
	brTaken := false

	// (iy, ix, ic) track inIdx incrementally; zero-runs re-derive them once
	// at the run end instead of dividing per element.
	iy, ix, ic := 0, 0, 0
	for inIdx := 0; inIdx < total; {
		v := inData[inIdx]
		if v == 0 && skip {
			// Zero run: the skipped elements issue only their activation
			// load and zero-test branch, so the loads batch line-granularly
			// and the (all-taken) branches replay in element order.
			runEnd := inIdx + 1
			for runEnd < total && inData[runEnd] == 0 {
				runEnd++
			}
			n := runEnd - inIdx
			eng.LoadRange(inRegion.Base+mem.Addr(inIdx*4), 4, n)
			if brN > 0 && !brTaken {
				eng.BranchRun(p.pc, false, brN)
				brN = 0
			}
			brTaken = true
			brN += uint64(n)
			inIdx = runEnd
			if inIdx < total {
				ic = inIdx % g.InC
				rest := inIdx / g.InC
				ix = rest % g.InW
				iy = rest / g.InW
			}
			continue
		}
		eng.Load(inRegion.Base+mem.Addr(inIdx*4), 4)
		if !ct {
			if brN > 0 && brTaken != (v == 0) {
				eng.BranchRun(p.pc, brTaken, brN)
				brN = 0
			}
			brTaken = v == 0
			brN++
		}
		// Scatter this input into every output it feeds. The row accesses
		// stay in exact emission order (cache state depends on it); the
		// pure-counter ops (ALU work, loop back-edges) commute with
		// everything and are flushed once per element.
		positions := uint64(0)
		if g.Stride == 1 {
			// Unit stride: the valid (ky, kx) windows are the contiguous
			// ranges with oy = iy+Pad-ky ∈ [0, oh) and ox = ix+Pad-kx ∈
			// [0, ow), so the bounds tests hoist out of the position loops.
			kyLo, kyHi := iy+g.Pad-oh+1, iy+g.Pad
			if kyLo < 0 {
				kyLo = 0
			}
			if kyHi > g.K-1 {
				kyHi = g.K - 1
			}
			kxLo, kxHi := ix+g.Pad-ow+1, ix+g.Pad
			if kxLo < 0 {
				kxLo = 0
			}
			if kxHi > g.K-1 {
				kxHi = g.K - 1
			}
			for ky := kyLo; ky <= kyHi; ky++ {
				oy := iy + g.Pad - ky
				wRow := ((ky*g.K+kxLo)*g.InC + ic) * oc
				oRow := (oy*ow + ix + g.Pad - kxLo) * oc
				eng.MacSpan(p.wRegion.Base+mem.Addr(wRow*4), outRegion.Base+mem.Addr(oRow*4),
					uint64(g.InC*oc)*4, rowBytes, kxHi-kxLo+1)
				for kx := kxLo; kx <= kxHi; kx++ {
					orow := out.Data[oRow : oRow+oc]
					frow := filt[wRow : wRow+oc]
					_ = orow[len(frow)-1]
					for j, f := range frow {
						orow[j] += v * f
					}
					wRow += g.InC * oc
					oRow -= oc
				}
			}
			if kyHi >= kyLo && kxHi >= kxLo {
				positions = uint64(kyHi-kyLo+1) * uint64(kxHi-kxLo+1)
			}
		} else {
			for ky := 0; ky < g.K; ky++ {
				oy := iy + g.Pad - ky
				if oy < 0 || oy%g.Stride != 0 {
					continue
				}
				oy /= g.Stride
				if oy >= oh {
					continue
				}
				for kx := 0; kx < g.K; kx++ {
					ox := ix + g.Pad - kx
					if ox < 0 || ox%g.Stride != 0 {
						continue
					}
					ox /= g.Stride
					if ox >= ow {
						continue
					}
					wRow := ((ky*g.K+kx)*g.InC + ic) * oc
					oRow := (oy*ow + ox) * oc
					eng.MacRow(p.wRegion.Base+mem.Addr(wRow*4), outRegion.Base+mem.Addr(oRow*4), rowBytes)
					positions++
					orow := out.Data[oRow : oRow+oc]
					frow := filt[wRow : wRow+oc]
					for j, f := range frow {
						orow[j] += v * f
					}
				}
			}
		}
		eng.Ops(positions * uint64(2*oc)) // mul + add per output channel
		eng.PredictableBranches(positions)
		inIdx++
		ic++
		if ic == g.InC {
			ic = 0
			ix++
			if ix == g.InW {
				ix = 0
				iy++
			}
		}
	}
	if brN > 0 {
		eng.BranchRun(p.pc, brTaken, brN)
	}
	// Bias pass: one streaming read-modify-write walk over the output. The
	// per-pixel Ops commute with memory events and flush as one sum.
	bias := p.conv.Bias.Data
	eng.Load(p.bRegion.Base, p.bRegion.Size)
	eng.LoadStoreRange(outRegion.Base, rowBytes, oh*ow)
	eng.Ops(uint64(oh * ow * oc))
	for i := 0; i < oh*ow; i++ {
		row := out.Data[i*oc : (i+1)*oc]
		for j := range row {
			row[j] += bias[j]
		}
	}
	eng.PredictableBranches(uint64(oh * ow))
	return out, outRegion, nil
}

// reluLayer applies ReLU in place over the activation region. The element
// walk is contiguous, so loads (and, in constant-time mode, stores) are
// emitted as line-granular batched ranges; sign-test branches and the
// conditional stores replay in element order within each line.
func (c *Classifier) reluLayer(p *layerPlan, in *tensor.Tensor, region mem.Region) (*tensor.Tensor, mem.Region, error) {
	eng := c.engine
	out := p.out
	copy(out.Data, in.Data)
	n := len(out.Data)
	eng.PredictableBranches(uint64(n))
	// Sign-test branches accumulate into direction runs that may span
	// lines (branches commute with memory events; the direction sequence
	// is preserved exactly).
	var brN uint64
	brTaken := false
	for start := 0; start < n; {
		a := region.Base + mem.Addr(start*4)
		run := int((64 - uint64(a)%64) / 4)
		if run > n-start {
			run = n - start
		}
		eng.LoadRange(a, 4, run)
		if c.opts.ConstantTime {
			// Branchless clamp: unconditional arithmetic + store per element.
			eng.Ops(uint64(2 * run))
			eng.StoreRange(a, 4, run)
			for i := start; i < start+run; i++ {
				if out.Data[i] < 0 {
					out.Data[i] = 0
				}
			}
		} else {
			// Each line's clamping stores collapse into one same-line range:
			// cache, TLB and counter effects of a store depend only on its
			// line and count, so emitting the line's negative-element stores
			// as one walk from the line base is bit-identical to the
			// per-element emission (same line, same access count).
			negs := 0
			for i := start; i < start+run; {
				neg := out.Data[i] < 0
				j := i + 1
				for j < start+run && (out.Data[j] < 0) == neg {
					j++
				}
				if brN > 0 && brTaken != neg {
					eng.BranchRun(p.pc, brTaken, brN)
					brN = 0
				}
				brTaken = neg
				brN += uint64(j - i)
				if neg {
					negs += j - i
					for k := i; k < j; k++ {
						out.Data[k] = 0
					}
				}
				i = j
			}
			if negs > 0 {
				eng.StoreRange(a, 4, negs)
			}
		}
		start += run
	}
	if brN > 0 {
		eng.BranchRun(p.pc, brTaken, brN)
	}
	return out, region, nil
}

// poolLayer is the 2×2 max pool with data-dependent compare branches. The
// per-channel window walk is emitted cell-grouped: for one (oy, ox)
// window the four input cells' channel strips go out as line-granular
// batched loads, the compare branches replay per channel in their
// original order, and the output strip goes out as one batched store.
// Grouping reorders only cross-line memory events whose lines all stay
// resident for the whole window and whose last-touch order (and total
// event count) is unchanged, so every future replacement decision — and
// therefore every counter — matches the element-interleaved emission.
func (c *Classifier) poolLayer(p *layerPlan, in *tensor.Tensor, inRegion mem.Region) (*tensor.Tensor, mem.Region, error) {
	h, w, ch := p.inShape[0], p.inShape[1], p.inShape[2]
	oh, ow := h/2, w/2
	out := p.out
	outRegion := p.outRegion
	eng := c.engine
	ct := c.opts.ConstantTime
	eng.PredictableBranches(uint64(oh * ow * ch))
	// Compare branches replay in per-channel emission order; consecutive
	// same-outcome branches compress into direction runs that carry across
	// window and channel boundaries (branch order is preserved and branches
	// commute with memory events, so predictor state stays exact).
	runTaken, runN := false, uint64(0)
	for oy := 0; oy < oh; oy++ {
		for ox := 0; ox < ow; ox++ {
			base := ((2*oy)*w + 2*ox) * ch
			// The top two cells' strips are contiguous (base, base+ch), as
			// are the bottom two: each pair concatenates into one range
			// with an identical element walk.
			eng.LoadRange(inRegion.Base+mem.Addr(base*4), 4, 2*ch)
			eng.LoadRange(inRegion.Base+mem.Addr((base+w*ch)*4), 4, 2*ch)
			oBase := (oy*ow + ox) * ch
			if ct {
				eng.Ops(uint64(8 * ch)) // branchless max, 2 per window cell
			}
			for cc := 0; cc < ch; cc++ {
				tl := in.Data[base+cc]
				tr := in.Data[base+ch+cc]
				bl := in.Data[base+w*ch+cc]
				br := in.Data[base+w*ch+ch+cc]
				best := tl
				if tr > best {
					best = tr
				}
				b2 := bl > best
				if b2 {
					best = bl
				}
				b3 := br > best
				if b3 {
					best = br
				}
				if !ct {
					b1 := tr > tl
					if b1 == runTaken {
						runN++
					} else {
						eng.BranchRun(p.pc, runTaken, runN)
						runTaken, runN = b1, 1
					}
					if b2 == runTaken {
						runN++
					} else {
						eng.BranchRun(p.pc, runTaken, runN)
						runTaken, runN = b2, 1
					}
					if b3 == runTaken {
						runN++
					} else {
						eng.BranchRun(p.pc, runTaken, runN)
						runTaken, runN = b3, 1
					}
				}
				out.Data[oBase+cc] = best
			}
			eng.StoreRange(outRegion.Base+mem.Addr(oBase*4), 4, ch)
		}
	}
	if runN > 0 {
		eng.BranchRun(p.pc, runTaken, runN)
	}
	return out, outRegion, nil
}

// denseLayer is the input-stationary fully connected kernel with row skip.
// Like the convolution, runs of zero inputs batch their loads
// line-granularly; non-zero inputs walk their weight row as before.
func (c *Classifier) denseLayer(p *layerPlan, in *tensor.Tensor, inRegion mem.Region) (*tensor.Tensor, mem.Region, error) {
	d := p.dense
	out := p.out
	clear(out.Data)
	outRegion := p.outRegion
	eng := c.engine
	rowBytes := uint64(d.Out) * 4
	skip := c.opts.SparsitySkip && !c.opts.ConstantTime
	ct := c.opts.ConstantTime
	eng.PredictableBranches(uint64(d.In))
	// Same direction-run batching of the zero-test branches as convLayer.
	var brN uint64
	brTaken := false
	for i := 0; i < d.In; {
		v := in.Data[i]
		if v == 0 && skip {
			runEnd := i + 1
			for runEnd < d.In && in.Data[runEnd] == 0 {
				runEnd++
			}
			n := runEnd - i
			eng.LoadRange(inRegion.Base+mem.Addr(i*4), 4, n)
			if brN > 0 && !brTaken {
				eng.BranchRun(p.pc, false, brN)
				brN = 0
			}
			brTaken = true
			brN += uint64(n)
			i = runEnd
			continue
		}
		eng.Load(inRegion.Base+mem.Addr(i*4), 4)
		if !ct {
			if brN > 0 && brTaken != (v == 0) {
				eng.BranchRun(p.pc, brTaken, brN)
				brN = 0
			}
			brTaken = v == 0
			brN++
		}
		eng.Load(p.wRegion.Base+mem.Addr(i*d.Out*4), rowBytes)
		eng.Ops(uint64(2 * d.Out))
		row := d.W.Data[i*d.Out : (i+1)*d.Out]
		for j, wv := range row {
			out.Data[j] += v * wv
		}
		i++
	}
	if brN > 0 {
		eng.BranchRun(p.pc, brTaken, brN)
	}
	eng.Load(p.bRegion.Base, p.bRegion.Size)
	eng.Store(outRegion.Base, outRegion.Size)
	eng.Ops(uint64(d.Out))
	for j := range out.Data {
		out.Data[j] += d.B.Data[j]
	}
	return out, outRegion, nil
}

// argmax scans the logits with data-dependent compare branches, returning
// the predicted class.
func (c *Classifier) argmax(logits *tensor.Tensor, region mem.Region) int {
	eng := c.engine
	best, bi := logits.Data[0], 0
	eng.Load(region.Base, 4)
	for i := 1; i < logits.Len(); i++ {
		eng.Load(region.Base+mem.Addr(i*4), 4)
		bigger := logits.Data[i] > best
		if c.opts.ConstantTime {
			eng.Ops(2)
		} else {
			eng.Branch(0x40f000, bigger)
		}
		if bigger {
			best, bi = logits.Data[i], i
		}
	}
	return bi
}
