package tensor

import (
	"fmt"
	"math"
)

// The matmuls below share one order guarantee: every output element is
// +0 plus its products added one at a time with the statement x += a*b,
// in increasing order of the summed index, and MatMulInto/MatMulTransA
// skip the products whose a-operand is zero. At the conv channel counts
// of the scenario networks — n = 8, 16 and 32 for MatMulInto and
// MatMulTransA, k = 16 and 32 for MatMulTransB (training never computes
// the first conv layer's input gradient, the k = 8 case) — the kernels
// run fully unrolled bodies over fixed-size array pointers, with no inner
// loop (32 runs the 16-wide body once per half); every other width runs a
// plain loop. Both paths perform the same float32 operations on each
// element in the same order, so they give the same bits, NaN and Inf
// cases included.

// MatMulInto computes dst = a·b for a (m×k) and b (k×n) with raw slices;
// dst must have length m*n. The loop order (i,k,j) keeps the inner work
// streaming over b and dst rows, which matters for the pure-Go training
// speed.
func MatMulInto(dst, a, b []float32, m, k, n int) {
	if len(dst) != m*n || len(a) != m*k || len(b) != k*n {
		panic(fmt.Sprintf("tensor: MatMulInto size mismatch m=%d k=%d n=%d (dst=%d a=%d b=%d)", m, k, n, len(dst), len(a), len(b)))
	}
	clear(dst)
	switch n {
	case 8:
		for i := 0; i < m; i++ {
			d := (*[8]float32)(dst[i*8:])
			for p, av := range a[i*k : (i+1)*k] {
				if av == 0 {
					continue
				}
				bp := (*[8]float32)(b[p*8:])
				d[0] += av * bp[0]
				d[1] += av * bp[1]
				d[2] += av * bp[2]
				d[3] += av * bp[3]
				d[4] += av * bp[4]
				d[5] += av * bp[5]
				d[6] += av * bp[6]
				d[7] += av * bp[7]
			}
		}
	case 16, 32:
		for i := 0; i < m; i++ {
			ar := a[i*k : (i+1)*k]
			for h := 0; h < n; h += 16 {
				d := (*[16]float32)(dst[i*n+h:])
				for p, av := range ar {
					if av == 0 {
						continue
					}
					bp := (*[16]float32)(b[p*n+h:])
					d[0] += av * bp[0]
					d[1] += av * bp[1]
					d[2] += av * bp[2]
					d[3] += av * bp[3]
					d[4] += av * bp[4]
					d[5] += av * bp[5]
					d[6] += av * bp[6]
					d[7] += av * bp[7]
					d[8] += av * bp[8]
					d[9] += av * bp[9]
					d[10] += av * bp[10]
					d[11] += av * bp[11]
					d[12] += av * bp[12]
					d[13] += av * bp[13]
					d[14] += av * bp[14]
					d[15] += av * bp[15]
				}
			}
		}
	default:
		for i := 0; i < m; i++ {
			ar := a[i*k : (i+1)*k]
			dr := dst[i*n : (i+1)*n]
			for p, av := range ar {
				if av == 0 {
					continue
				}
				br := b[p*n : (p+1)*n]
				for j, bv := range br {
					dr[j] += av * bv
				}
			}
		}
	}
}

// MatMulTransB computes dst = a·bᵀ for a (m×k) and b (n×k); dst length m*n.
// Each element is one dot product over k with a single accumulator. At
// k = 32 the second half of every dot product resumes from the first
// half's sum, stored in dst in between.
func MatMulTransB(dst, a, b []float32, m, k, n int) {
	if len(dst) != m*n || len(a) != m*k || len(b) != n*k {
		panic(fmt.Sprintf("tensor: MatMulTransB size mismatch m=%d k=%d n=%d", m, k, n))
	}
	switch k {
	case 16, 32:
		clear(dst)
		for h := 0; h < k; h += 16 {
			for i := 0; i < m; i++ {
				x := (*[16]float32)(a[i*k+h:])
				dr := dst[i*n : (i+1)*n]
				for j := range dr {
					y := (*[16]float32)(b[j*k+h:])
					s := dr[j]
					s += x[0] * y[0]
					s += x[1] * y[1]
					s += x[2] * y[2]
					s += x[3] * y[3]
					s += x[4] * y[4]
					s += x[5] * y[5]
					s += x[6] * y[6]
					s += x[7] * y[7]
					s += x[8] * y[8]
					s += x[9] * y[9]
					s += x[10] * y[10]
					s += x[11] * y[11]
					s += x[12] * y[12]
					s += x[13] * y[13]
					s += x[14] * y[14]
					s += x[15] * y[15]
					dr[j] = s
				}
			}
		}
	default:
		for i := 0; i < m; i++ {
			ar := a[i*k : (i+1)*k]
			for j := 0; j < n; j++ {
				br := b[j*k : (j+1)*k]
				var s float32
				for p, av := range ar {
					s += av * br[p]
				}
				dst[i*n+j] = s
			}
		}
	}
}

// MatMulTransA computes dst = aᵀ·b for a (k×m) and b (k×n); dst length m*n.
func MatMulTransA(dst, a, b []float32, m, k, n int) {
	if len(dst) != m*n || len(a) != k*m || len(b) != k*n {
		panic(fmt.Sprintf("tensor: MatMulTransA size mismatch m=%d k=%d n=%d", m, k, n))
	}
	clear(dst)
	switch n {
	case 8:
		for p := 0; p < k; p++ {
			bp := (*[8]float32)(b[p*8:])
			for i, av := range a[p*m : (p+1)*m] {
				if av == 0 {
					continue
				}
				d := (*[8]float32)(dst[i*8:])
				d[0] += av * bp[0]
				d[1] += av * bp[1]
				d[2] += av * bp[2]
				d[3] += av * bp[3]
				d[4] += av * bp[4]
				d[5] += av * bp[5]
				d[6] += av * bp[6]
				d[7] += av * bp[7]
			}
		}
	case 16, 32:
		for p := 0; p < k; p++ {
			ar := a[p*m : (p+1)*m]
			for h := 0; h < n; h += 16 {
				bp := (*[16]float32)(b[p*n+h:])
				for i, av := range ar {
					if av == 0 {
						continue
					}
					d := (*[16]float32)(dst[i*n+h:])
					d[0] += av * bp[0]
					d[1] += av * bp[1]
					d[2] += av * bp[2]
					d[3] += av * bp[3]
					d[4] += av * bp[4]
					d[5] += av * bp[5]
					d[6] += av * bp[6]
					d[7] += av * bp[7]
					d[8] += av * bp[8]
					d[9] += av * bp[9]
					d[10] += av * bp[10]
					d[11] += av * bp[11]
					d[12] += av * bp[12]
					d[13] += av * bp[13]
					d[14] += av * bp[14]
					d[15] += av * bp[15]
				}
			}
		}
	default:
		for p := 0; p < k; p++ {
			ar := a[p*m : (p+1)*m]
			br := b[p*n : (p+1)*n]
			for i, av := range ar {
				if av == 0 {
					continue
				}
				dr := dst[i*n : (i+1)*n]
				for j, bv := range br {
					dr[j] += av * bv
				}
			}
		}
	}
}

// ConvGeom describes a 2-D convolution geometry (square kernel, no dilation).
type ConvGeom struct {
	InH, InW, InC int // input height, width, channels
	K             int // kernel side
	Stride        int
	Pad           int
	OutC          int
}

// OutH returns the output height for the geometry.
func (g ConvGeom) OutH() int { return (g.InH+2*g.Pad-g.K)/g.Stride + 1 }

// OutW returns the output width for the geometry.
func (g ConvGeom) OutW() int { return (g.InW+2*g.Pad-g.K)/g.Stride + 1 }

// Validate checks that the geometry is internally consistent.
func (g ConvGeom) Validate() error {
	switch {
	case g.InH <= 0 || g.InW <= 0 || g.InC <= 0:
		return fmt.Errorf("tensor: conv geometry has non-positive input dims %+v", g)
	case g.K <= 0 || g.Stride <= 0 || g.Pad < 0 || g.OutC <= 0:
		return fmt.Errorf("tensor: conv geometry has invalid kernel/stride/pad/outc %+v", g)
	case g.OutH() <= 0 || g.OutW() <= 0:
		return fmt.Errorf("tensor: conv geometry yields empty output %+v", g)
	}
	return nil
}

// Im2Col expands input (HWC, shape {InH,InW,InC}) into a matrix of shape
// {OutH*OutW, K*K*InC} so convolution becomes a matmul with the filter
// matrix {K*K*InC, OutC}. Out-of-bounds (padding) elements are zero.
// For each output position and kernel row, the in-bounds kernel columns
// read one contiguous run of the input row, which is copied in one go;
// only the clipped ends are zero-filled.
func Im2Col(dst []float32, in []float32, g ConvGeom) {
	oh, ow := g.OutH(), g.OutW()
	cols := g.K * g.K * g.InC
	if len(dst) != oh*ow*cols {
		panic(fmt.Sprintf("tensor: Im2Col dst length %d, want %d", len(dst), oh*ow*cols))
	}
	if len(in) != g.InH*g.InW*g.InC {
		panic(fmt.Sprintf("tensor: Im2Col input length %d, want %d", len(in), g.InH*g.InW*g.InC))
	}
	rowLen := g.K * g.InC
	di := 0
	for oy := 0; oy < oh; oy++ {
		for ox := 0; ox < ow; ox++ {
			ix0, lo, hi := g.kernelRun(ox)
			for ky := 0; ky < g.K; ky++ {
				row := dst[di : di+rowLen]
				di += rowLen
				iy := oy*g.Stride + ky - g.Pad
				if iy < 0 || iy >= g.InH || lo >= hi {
					clear(row)
					continue
				}
				src := (iy*g.InW+ix0)*g.InC + lo
				clear(row[:lo])
				copy(row[lo:hi], in[src:src+hi-lo])
				clear(row[hi:])
			}
		}
	}
}

// kernelRun returns, for output column ox, the input column ix0 under
// kernel column 0 and the range [lo, hi) of a kernel row's K*InC values
// whose kernel columns fall inside the input (lo >= hi when none do).
func (g ConvGeom) kernelRun(ox int) (ix0, lo, hi int) {
	ix0 = ox*g.Stride - g.Pad
	return ix0, max(0, -ix0) * g.InC, min(g.K, g.InW-ix0) * g.InC
}

// Col2Im is the adjoint of Im2Col: it zeroes the input-shaped gradient
// buffer dstIn, then scatters-and-accumulates the column matrix into it.
// Each element of dstIn receives its contributions in column-matrix order.
func Col2Im(dstIn []float32, cols []float32, g ConvGeom) {
	oh, ow := g.OutH(), g.OutW()
	ncols := g.K * g.K * g.InC
	if len(cols) != oh*ow*ncols {
		panic(fmt.Sprintf("tensor: Col2Im cols length %d, want %d", len(cols), oh*ow*ncols))
	}
	if len(dstIn) != g.InH*g.InW*g.InC {
		panic(fmt.Sprintf("tensor: Col2Im dst length %d, want %d", len(dstIn), g.InH*g.InW*g.InC))
	}
	clear(dstIn)
	rowLen := g.K * g.InC
	si := 0
	for oy := 0; oy < oh; oy++ {
		for ox := 0; ox < ow; ox++ {
			ix0, lo, hi := g.kernelRun(ox)
			for ky := 0; ky < g.K; ky++ {
				row := cols[si : si+rowLen]
				si += rowLen
				iy := oy*g.Stride + ky - g.Pad
				if iy < 0 || iy >= g.InH || lo >= hi {
					continue
				}
				dst := dstIn[(iy*g.InW+ix0)*g.InC+lo:]
				for j, v := range row[lo:hi] {
					dst[j] += v
				}
			}
		}
	}
}

// MaxPool2Into performs 2×2 max pooling with stride 2 over raw HWC data
// of shape {h, w, c}, truncating odd trailing rows/columns (floor
// semantics). It writes the pooled values to out and the flat input index
// of each (for backprop) to arg, both of length (h/2)*(w/2)*c.
func MaxPool2Into(out []float32, arg []int32, in []float32, h, w, c int) {
	oh, ow := h/2, w/2
	if len(in) != h*w*c || len(out) != oh*ow*c || len(arg) != len(out) {
		panic(fmt.Sprintf("tensor: MaxPool2Into size mismatch h=%d w=%d c=%d (in=%d out=%d arg=%d)", h, w, c, len(in), len(out), len(arg)))
	}
	for oy := 0; oy < oh; oy++ {
		for ox := 0; ox < ow; ox++ {
			for ch := 0; ch < c; ch++ {
				bestIdx := ((2*oy)*w + 2*ox) * c
				best := in[bestIdx+ch]
				bi := bestIdx + ch
				for dy := 0; dy < 2; dy++ {
					for dx := 0; dx < 2; dx++ {
						idx := ((2*oy+dy)*w+(2*ox+dx))*c + ch
						if in[idx] > best {
							best, bi = in[idx], idx
						}
					}
				}
				o := (oy*ow+ox)*c + ch
				out[o] = best
				arg[o] = int32(bi)
			}
		}
	}
}

// Softmax returns the softmax of a rank-1 tensor, numerically stabilized by
// subtracting the max logit.
func Softmax(in *Tensor) *Tensor {
	out := New(in.Shape...)
	SoftmaxInto(out.Data, in.Data)
	return out
}

// SoftmaxInto writes the softmax of in to dst (of the same length).
func SoftmaxInto(dst, in []float32) {
	if len(dst) != len(in) {
		panic(fmt.Sprintf("tensor: SoftmaxInto dst length %d, want %d", len(dst), len(in)))
	}
	if len(in) == 0 {
		return
	}
	maxv := in[0]
	for _, v := range in {
		if v > maxv {
			maxv = v
		}
	}
	sum := 0.0
	for i, v := range in {
		e := math.Exp(float64(v - maxv))
		dst[i] = float32(e)
		sum += e
	}
	inv := float32(1.0 / sum)
	for i := range dst {
		dst[i] *= inv
	}
}
