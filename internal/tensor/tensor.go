// Package tensor provides the dense float32 tensor type and the numeric
// kernels (matmul, im2col convolution, pooling, softmax) that the neural
// network substrate is built on.
//
// Tensors are stored row-major (last dimension contiguous). Image tensors
// use HWC layout: shape {height, width, channels}. Batched tensors prepend
// the batch dimension: {batch, height, width, channels}.
package tensor

import (
	"fmt"
	"math"
)

// Tensor is a dense, row-major float32 array with an explicit shape.
// The zero value is an empty tensor.
type Tensor struct {
	Shape []int
	Data  []float32
}

// New returns a zero-filled tensor with the given shape.
// It panics if any dimension is negative.
func New(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d < 0 {
			panic(fmt.Sprintf("tensor: negative dimension %d in shape %v", d, shape))
		}
		n *= d
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: make([]float32, n)}
}

// FromSlice wraps data in a tensor of the given shape. The slice is used
// directly (not copied). It returns an error if len(data) does not match
// the shape volume.
func FromSlice(data []float32, shape ...int) (*Tensor, error) {
	n := 1
	for _, d := range shape {
		if d < 0 {
			return nil, fmt.Errorf("tensor: negative dimension %d in shape %v", d, shape)
		}
		n *= d
	}
	if len(data) != n {
		return nil, fmt.Errorf("tensor: data length %d does not match shape %v (volume %d)", len(data), shape, n)
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: data}, nil
}

// MustFromSlice is FromSlice that panics on error; intended for tests and
// literals with statically known shapes.
func MustFromSlice(data []float32, shape ...int) *Tensor {
	t, err := FromSlice(data, shape...)
	if err != nil {
		panic(err)
	}
	return t
}

// Len returns the number of elements.
func (t *Tensor) Len() int { return len(t.Data) }

// Rank returns the number of dimensions.
func (t *Tensor) Rank() int { return len(t.Shape) }

// Volume returns the product of the dimensions of shape.
func Volume(shape []int) int {
	n := 1
	for _, d := range shape {
		n *= d
	}
	return n
}

// SameShape reports whether t and u have identical shapes.
func (t *Tensor) SameShape(u *Tensor) bool {
	if len(t.Shape) != len(u.Shape) {
		return false
	}
	for i, d := range t.Shape {
		if u.Shape[i] != d {
			return false
		}
	}
	return true
}

// Clone returns a deep copy of t.
func (t *Tensor) Clone() *Tensor {
	c := &Tensor{Shape: append([]int(nil), t.Shape...), Data: make([]float32, len(t.Data))}
	copy(c.Data, t.Data)
	return c
}

// Reshape returns a tensor sharing t's data with a new shape of equal
// volume. It returns an error on volume mismatch.
func (t *Tensor) Reshape(shape ...int) (*Tensor, error) {
	if Volume(shape) != len(t.Data) {
		return nil, fmt.Errorf("tensor: cannot reshape volume %d to %v", len(t.Data), shape)
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: t.Data}, nil
}

// At returns the element at the given multi-index. It panics on rank or
// bounds violations; it is a convenience for tests, not a hot-path API.
func (t *Tensor) At(idx ...int) float32 {
	return t.Data[t.offset(idx)]
}

// Set assigns the element at the given multi-index.
func (t *Tensor) Set(v float32, idx ...int) {
	t.Data[t.offset(idx)] = v
}

func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.Shape) {
		panic(fmt.Sprintf("tensor: index rank %d does not match shape %v", len(idx), t.Shape))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.Shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of bounds for shape %v", idx, t.Shape))
		}
		off = off*t.Shape[i] + x
	}
	return off
}

// Fill sets every element to v.
func (t *Tensor) Fill(v float32) {
	for i := range t.Data {
		t.Data[i] = v
	}
}

// Zero sets every element to zero.
func (t *Tensor) Zero() {
	clear(t.Data)
}

// Scale multiplies every element by s in place.
func (t *Tensor) Scale(s float32) {
	for i := range t.Data {
		t.Data[i] *= s
	}
}

// AddScaled adds s*u to t element-wise in place. It panics on shape
// mismatch (programmer error on a hot path).
func (t *Tensor) AddScaled(u *Tensor, s float32) {
	if len(t.Data) != len(u.Data) {
		panic(fmt.Sprintf("tensor: AddScaled length mismatch %d vs %d", len(t.Data), len(u.Data)))
	}
	for i, v := range u.Data {
		t.Data[i] += s * v
	}
}

// Sum returns the sum of all elements in float64 for accuracy.
func (t *Tensor) Sum() float64 {
	s := 0.0
	for _, v := range t.Data {
		s += float64(v)
	}
	return s
}

// MaxIndex returns the index of the maximum element (first on ties) and its
// value. It panics on an empty tensor.
func (t *Tensor) MaxIndex() (int, float32) {
	if len(t.Data) == 0 {
		panic("tensor: MaxIndex of empty tensor")
	}
	best := ArgMax(t.Data)
	return best, t.Data[best]
}

// ArgMax returns the index of the largest value in x, the first on ties.
// It panics on an empty slice.
func ArgMax(x []float32) int {
	best, bv := 0, x[0]
	for i, v := range x {
		if v > bv {
			best, bv = i, v
		}
	}
	return best
}

// CountNonZero returns the number of elements with |v| > eps.
func (t *Tensor) CountNonZero(eps float32) int {
	n := 0
	for _, v := range t.Data {
		if v > eps || v < -eps {
			n++
		}
	}
	return n
}

// L2 returns the Euclidean norm of the tensor.
func (t *Tensor) L2() float64 {
	s := 0.0
	for _, v := range t.Data {
		s += float64(v) * float64(v)
	}
	return math.Sqrt(s)
}

// String renders a short description (shape and a few leading values).
func (t *Tensor) String() string {
	n := len(t.Data)
	if n > 4 {
		n = 4
	}
	return fmt.Sprintf("Tensor%v%v…", t.Shape, t.Data[:n])
}
