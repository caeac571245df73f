package tensor

import (
	"fmt"
	"math"
)

// MatMul computes c = a·b for a (m×k) and b (k×n), returning a new (m×n)
// tensor. Inputs must be rank-2.
func MatMul(a, b *Tensor) (*Tensor, error) {
	if a.Rank() != 2 || b.Rank() != 2 {
		return nil, fmt.Errorf("tensor: MatMul requires rank-2 operands, got %v and %v", a.Shape, b.Shape)
	}
	m, k := a.Shape[0], a.Shape[1]
	k2, n := b.Shape[0], b.Shape[1]
	if k != k2 {
		return nil, fmt.Errorf("tensor: MatMul inner dimensions differ: %v vs %v", a.Shape, b.Shape)
	}
	c := New(m, n)
	MatMulInto(c.Data, a.Data, b.Data, m, k, n)
	return c, nil
}

// MatMulInto computes dst = a·b with raw slices; dst must have length m*n.
// The loop order (i,k,j) keeps the inner loop streaming over b and dst rows,
// which matters for the pure-Go training speed.
func MatMulInto(dst, a, b []float32, m, k, n int) {
	if len(dst) != m*n || len(a) != m*k || len(b) != k*n {
		panic(fmt.Sprintf("tensor: MatMulInto size mismatch m=%d k=%d n=%d (dst=%d a=%d b=%d)", m, k, n, len(dst), len(a), len(b)))
	}
	clear(dst)
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

// MatMulTransB computes dst = a·bᵀ for a (m×k) and b (n×k); dst length m*n.
func MatMulTransB(dst, a, b []float32, m, k, n int) {
	if len(dst) != m*n || len(a) != m*k || len(b) != n*k {
		panic(fmt.Sprintf("tensor: MatMulTransB size mismatch m=%d k=%d n=%d", m, k, n))
	}
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

// MatMulTransA computes dst = aᵀ·b for a (k×m) and b (k×n); dst length m*n.
func MatMulTransA(dst, a, b []float32, m, k, n int) {
	if len(dst) != m*n || len(a) != k*m || len(b) != k*n {
		panic(fmt.Sprintf("tensor: MatMulTransA size mismatch m=%d k=%d n=%d", m, k, n))
	}
	clear(dst)
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
func Im2Col(dst []float32, in []float32, g ConvGeom) {
	oh, ow := g.OutH(), g.OutW()
	cols := g.K * g.K * g.InC
	if len(dst) != oh*ow*cols {
		panic(fmt.Sprintf("tensor: Im2Col dst length %d, want %d", len(dst), oh*ow*cols))
	}
	if len(in) != g.InH*g.InW*g.InC {
		panic(fmt.Sprintf("tensor: Im2Col input length %d, want %d", len(in), g.InH*g.InW*g.InC))
	}
	di := 0
	for oy := 0; oy < oh; oy++ {
		for ox := 0; ox < ow; ox++ {
			for ky := 0; ky < g.K; ky++ {
				iy := oy*g.Stride + ky - g.Pad
				for kx := 0; kx < g.K; kx++ {
					ix := ox*g.Stride + kx - g.Pad
					if iy < 0 || iy >= g.InH || ix < 0 || ix >= g.InW {
						for c := 0; c < g.InC; c++ {
							dst[di] = 0
							di++
						}
						continue
					}
					src := (iy*g.InW + ix) * g.InC
					copy(dst[di:di+g.InC], in[src:src+g.InC])
					di += g.InC
				}
			}
		}
	}
}

// Col2Im is the adjoint of Im2Col: it scatters-and-accumulates the column
// matrix back into an input-shaped gradient buffer (which must be
// pre-zeroed by the caller or is overwritten here — this function zeroes it).
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
	si := 0
	for oy := 0; oy < oh; oy++ {
		for ox := 0; ox < ow; ox++ {
			for ky := 0; ky < g.K; ky++ {
				iy := oy*g.Stride + ky - g.Pad
				for kx := 0; kx < g.K; kx++ {
					ix := ox*g.Stride + kx - g.Pad
					if iy < 0 || iy >= g.InH || ix < 0 || ix >= g.InW {
						si += g.InC
						continue
					}
					dst := (iy*g.InW + ix) * g.InC
					for c := 0; c < g.InC; c++ {
						dstIn[dst+c] += cols[si]
						si++
					}
				}
			}
		}
	}
}

// Conv2D performs a 2-D convolution of in (HWC {InH,InW,InC}) with filters
// (shape {K*K*InC, OutC}) and bias (len OutC), returning HWC output
// {OutH,OutW,OutC}. It uses im2col + matmul.
func Conv2D(in *Tensor, filters *Tensor, bias []float32, g ConvGeom) (*Tensor, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if in.Len() != g.InH*g.InW*g.InC {
		return nil, fmt.Errorf("tensor: Conv2D input volume %d does not match geometry %+v", in.Len(), g)
	}
	cols := g.K * g.K * g.InC
	if filters.Len() != cols*g.OutC {
		return nil, fmt.Errorf("tensor: Conv2D filter volume %d, want %d", filters.Len(), cols*g.OutC)
	}
	if len(bias) != g.OutC {
		return nil, fmt.Errorf("tensor: Conv2D bias length %d, want %d", len(bias), g.OutC)
	}
	oh, ow := g.OutH(), g.OutW()
	colBuf := make([]float32, oh*ow*cols)
	Im2Col(colBuf, in.Data, g)
	out := New(oh, ow, g.OutC)
	MatMulInto(out.Data, colBuf, filters.Data, oh*ow, cols, g.OutC)
	for i := 0; i < oh*ow; i++ {
		row := out.Data[i*g.OutC : (i+1)*g.OutC]
		for c := range row {
			row[c] += bias[c]
		}
	}
	return out, nil
}

// MaxPool2 performs 2×2 max pooling with stride 2 over an HWC tensor,
// truncating odd trailing rows/columns (floor semantics). It also returns
// the flat argmax index of each pooled element for use in backprop.
func MaxPool2(in *Tensor) (*Tensor, []int32, error) {
	if in.Rank() != 3 {
		return nil, nil, fmt.Errorf("tensor: MaxPool2 requires HWC rank-3 input, got %v", in.Shape)
	}
	h, w, c := in.Shape[0], in.Shape[1], in.Shape[2]
	oh, ow := h/2, w/2
	if oh == 0 || ow == 0 {
		return nil, nil, fmt.Errorf("tensor: MaxPool2 input %v too small", in.Shape)
	}
	out := New(oh, ow, c)
	arg := make([]int32, oh*ow*c)
	MaxPool2Into(out.Data, arg, in.Data, h, w, c)
	return out, arg, nil
}

// MaxPool2Into is MaxPool2 over raw HWC data of shape {h, w, c}, writing
// the pooled values to out and their flat input indices to arg (both of
// length (h/2)*(w/2)*c).
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

// ReLU applies max(0,x) element-wise, returning a new tensor.
func ReLU(in *Tensor) *Tensor {
	out := in.Clone()
	for i, v := range out.Data {
		if v < 0 {
			out.Data[i] = 0
		}
	}
	return out
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
