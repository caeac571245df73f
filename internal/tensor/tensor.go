// Package tensor provides the dense float32 tensor type and the numeric
// kernels (matmul, im2col convolution, pooling, softmax) that the neural
// network substrate is built on.
//
// Tensors are stored row-major (last dimension contiguous). Image tensors
// use HWC layout: shape {height, width, channels}. Batched tensors prepend
// the batch dimension: {batch, height, width, channels}.
package tensor

import "fmt"

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

// Len returns the number of elements.
func (t *Tensor) Len() int { return len(t.Data) }

// Volume returns the product of the dimensions of shape.
func Volume(shape []int) int {
	n := 1
	for _, d := range shape {
		n *= d
	}
	return n
}

// Reshape returns a tensor sharing t's data with a new shape of equal
// volume. It returns an error on volume mismatch.
func (t *Tensor) Reshape(shape ...int) (*Tensor, error) {
	if Volume(shape) != len(t.Data) {
		return nil, fmt.Errorf("tensor: cannot reshape volume %d to %v", len(t.Data), shape)
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: t.Data}, nil
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

// String renders a short description (shape and a few leading values).
func (t *Tensor) String() string {
	n := len(t.Data)
	if n > 4 {
		n = 4
	}
	return fmt.Sprintf("Tensor%v%v…", t.Shape, t.Data[:n])
}
