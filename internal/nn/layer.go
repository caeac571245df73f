// Package nn implements the convolutional neural network substrate: layers
// with forward and backward passes, a sequential network container, softmax
// cross-entropy training with SGD+momentum, and a canonical model encoding.
//
// The paper under reproduction runs a TensorFlow CNN; this package replaces
// it with a from-scratch implementation so the instrumented side-channel
// execution (package instrument) can walk real trained weights.
package nn

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/tensor"
)

// Layer is one stage of a sequential network.
//
// Forward consumes the previous layer's output and caches whatever it needs
// for Backward. Backward consumes dL/d(output) and returns dL/d(input),
// accumulating parameter gradients internally.
type Layer interface {
	// Name returns a short identifier used in diagnostics and model files.
	Name() string
	// OutShape returns the output shape for the configured input shape.
	OutShape() []int
	// Forward runs the layer on one sample (no batch dimension).
	Forward(in *tensor.Tensor) (*tensor.Tensor, error)
	// Backward propagates the gradient; must be called after Forward.
	Backward(gradOut *tensor.Tensor) (*tensor.Tensor, error)
	// Params returns parameter/gradient pairs; empty for stateless layers.
	Params() []Param
}

// Param couples a parameter tensor with its accumulated gradient.
type Param struct {
	Name  string
	Value *tensor.Tensor
	Grad  *tensor.Tensor
}

// Conv2D is a 2-D convolution layer with HWC input, square kernels, and a
// bias per output channel. Filters are stored as {K*K*InC, OutC} so the
// forward pass is im2col + matmul.
type Conv2D struct {
	Geom   tensor.ConvGeom
	Filter *tensor.Tensor // {K*K*InC, OutC}
	Bias   *tensor.Tensor // {OutC}

	gFilter *tensor.Tensor
	gBias   *tensor.Tensor
	colBuf  []float32 // cached im2col of the last input
	lastIn  *tensor.Tensor
}

// NewConv2D constructs a convolution layer with He-initialized weights
// drawn from rng.
func NewConv2D(g tensor.ConvGeom, rng *rand.Rand) (*Conv2D, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	fanIn := g.K * g.K * g.InC
	std := math.Sqrt(2.0 / float64(fanIn))
	filt := tensor.New(fanIn, g.OutC)
	for i := range filt.Data {
		filt.Data[i] = float32(rng.NormFloat64() * std)
	}
	return &Conv2D{
		Geom:    g,
		Filter:  filt,
		Bias:    tensor.New(g.OutC),
		gFilter: tensor.New(fanIn, g.OutC),
		gBias:   tensor.New(g.OutC),
	}, nil
}

// Name implements Layer.
func (c *Conv2D) Name() string { return fmt.Sprintf("conv%dx%dx%d", c.Geom.K, c.Geom.K, c.Geom.OutC) }

// OutShape implements Layer.
func (c *Conv2D) OutShape() []int { return []int{c.Geom.OutH(), c.Geom.OutW(), c.Geom.OutC} }

// Forward implements Layer.
func (c *Conv2D) Forward(in *tensor.Tensor) (*tensor.Tensor, error) {
	g := c.Geom
	if in.Len() != g.InH*g.InW*g.InC {
		return nil, fmt.Errorf("nn: %s input volume %d, want %d", c.Name(), in.Len(), g.InH*g.InW*g.InC)
	}
	cols := g.K * g.K * g.InC
	oh, ow := g.OutH(), g.OutW()
	if len(c.colBuf) != oh*ow*cols {
		c.colBuf = make([]float32, oh*ow*cols)
	}
	tensor.Im2Col(c.colBuf, in.Data, g)
	out := tensor.New(oh, ow, g.OutC)
	tensor.MatMulInto(out.Data, c.colBuf, c.Filter.Data, oh*ow, cols, g.OutC)
	for i := 0; i < oh*ow; i++ {
		row := out.Data[i*g.OutC : (i+1)*g.OutC]
		for ch := range row {
			row[ch] += c.Bias.Data[ch]
		}
	}
	c.lastIn = in
	return out, nil
}

// Backward implements Layer.
func (c *Conv2D) Backward(gradOut *tensor.Tensor) (*tensor.Tensor, error) {
	g := c.Geom
	oh, ow := g.OutH(), g.OutW()
	if gradOut.Len() != oh*ow*g.OutC {
		return nil, fmt.Errorf("nn: %s gradOut volume %d, want %d", c.Name(), gradOut.Len(), oh*ow*g.OutC)
	}
	if c.lastIn == nil {
		return nil, fmt.Errorf("nn: %s Backward before Forward", c.Name())
	}
	cols := g.K * g.K * g.InC
	// dFilter += colsᵀ · gradOut   ({cols, oh*ow}·{oh*ow, OutC})
	df := make([]float32, cols*g.OutC)
	tensor.MatMulTransA(df, c.colBuf, gradOut.Data, cols, oh*ow, g.OutC)
	for i, v := range df {
		c.gFilter.Data[i] += v
	}
	// dBias += column sums of gradOut.
	for i := 0; i < oh*ow; i++ {
		row := gradOut.Data[i*g.OutC : (i+1)*g.OutC]
		for ch, v := range row {
			c.gBias.Data[ch] += v
		}
	}
	// dCols = gradOut · Filterᵀ; dIn = Col2Im(dCols).
	dCols := make([]float32, oh*ow*cols)
	tensor.MatMulTransB(dCols, gradOut.Data, c.Filter.Data, oh*ow, g.OutC, cols)
	dIn := tensor.New(g.InH, g.InW, g.InC)
	tensor.Col2Im(dIn.Data, dCols, g)
	return dIn, nil
}

// Params implements Layer.
func (c *Conv2D) Params() []Param {
	return []Param{
		{Name: c.Name() + ".filter", Value: c.Filter, Grad: c.gFilter},
		{Name: c.Name() + ".bias", Value: c.Bias, Grad: c.gBias},
	}
}

// Dense is a fully connected layer: out = in·W + b with W {In, Out}.
type Dense struct {
	In, Out int
	W       *tensor.Tensor // {In, Out}
	B       *tensor.Tensor // {Out}

	gW, gB *tensor.Tensor
	lastIn *tensor.Tensor
}

// NewDense constructs a dense layer with He-initialized weights.
func NewDense(in, out int, rng *rand.Rand) (*Dense, error) {
	if in <= 0 || out <= 0 {
		return nil, fmt.Errorf("nn: dense dims must be positive, got %d->%d", in, out)
	}
	std := math.Sqrt(2.0 / float64(in))
	w := tensor.New(in, out)
	for i := range w.Data {
		w.Data[i] = float32(rng.NormFloat64() * std)
	}
	return &Dense{In: in, Out: out, W: w, B: tensor.New(out), gW: tensor.New(in, out), gB: tensor.New(out)}, nil
}

// Name implements Layer.
func (d *Dense) Name() string { return fmt.Sprintf("dense%dx%d", d.In, d.Out) }

// OutShape implements Layer.
func (d *Dense) OutShape() []int { return []int{d.Out} }

// Forward implements Layer.
func (d *Dense) Forward(in *tensor.Tensor) (*tensor.Tensor, error) {
	if in.Len() != d.In {
		return nil, fmt.Errorf("nn: %s input volume %d, want %d", d.Name(), in.Len(), d.In)
	}
	out := tensor.New(d.Out)
	tensor.MatMulInto(out.Data, in.Data, d.W.Data, 1, d.In, d.Out)
	for i := range out.Data {
		out.Data[i] += d.B.Data[i]
	}
	d.lastIn = in
	return out, nil
}

// Backward implements Layer.
func (d *Dense) Backward(gradOut *tensor.Tensor) (*tensor.Tensor, error) {
	if gradOut.Len() != d.Out {
		return nil, fmt.Errorf("nn: %s gradOut volume %d, want %d", d.Name(), gradOut.Len(), d.Out)
	}
	if d.lastIn == nil {
		return nil, fmt.Errorf("nn: %s Backward before Forward", d.Name())
	}
	// dW += inᵀ·gradOut (outer product), dB += gradOut.
	for i := 0; i < d.In; i++ {
		iv := d.lastIn.Data[i]
		if iv == 0 {
			continue
		}
		row := d.gW.Data[i*d.Out : (i+1)*d.Out]
		for j, gv := range gradOut.Data {
			row[j] += iv * gv
		}
	}
	for j, gv := range gradOut.Data {
		d.gB.Data[j] += gv
	}
	// dIn = gradOut · Wᵀ.
	dIn := tensor.New(d.In)
	tensor.MatMulTransB(dIn.Data, gradOut.Data, d.W.Data, 1, d.Out, d.In)
	return dIn, nil
}

// Params implements Layer.
func (d *Dense) Params() []Param {
	return []Param{
		{Name: d.Name() + ".w", Value: d.W, Grad: d.gW},
		{Name: d.Name() + ".b", Value: d.B, Grad: d.gB},
	}
}

// ReLU applies max(0, x) element-wise.
type ReLU struct {
	shape []int
	mask  []bool
}

// NewReLU constructs a ReLU for the given input shape.
func NewReLU(shape []int) *ReLU {
	return &ReLU{shape: append([]int(nil), shape...)}
}

// Name implements Layer.
func (r *ReLU) Name() string { return "relu" }

// OutShape implements Layer.
func (r *ReLU) OutShape() []int { return r.shape }

// Forward implements Layer.
func (r *ReLU) Forward(in *tensor.Tensor) (*tensor.Tensor, error) {
	out := in.Clone()
	if len(r.mask) != len(out.Data) {
		r.mask = make([]bool, len(out.Data))
	}
	for i, v := range out.Data {
		if v < 0 {
			out.Data[i] = 0
			r.mask[i] = false
		} else {
			r.mask[i] = true
		}
	}
	return out, nil
}

// Backward implements Layer.
func (r *ReLU) Backward(gradOut *tensor.Tensor) (*tensor.Tensor, error) {
	if len(r.mask) != gradOut.Len() {
		return nil, fmt.Errorf("nn: relu Backward before Forward or shape changed")
	}
	dIn := gradOut.Clone()
	for i := range dIn.Data {
		if !r.mask[i] {
			dIn.Data[i] = 0
		}
	}
	return dIn, nil
}

// Params implements Layer.
func (r *ReLU) Params() []Param { return nil }

// MaxPool2 is 2×2/stride-2 max pooling over HWC input.
type MaxPool2 struct {
	inShape []int
	arg     []int32
}

// NewMaxPool2 constructs the pool for the given HWC input shape.
func NewMaxPool2(inShape []int) (*MaxPool2, error) {
	if len(inShape) != 3 {
		return nil, fmt.Errorf("nn: maxpool needs HWC input shape, got %v", inShape)
	}
	return &MaxPool2{inShape: append([]int(nil), inShape...)}, nil
}

// Name implements Layer.
func (m *MaxPool2) Name() string { return "maxpool2" }

// OutShape implements Layer.
func (m *MaxPool2) OutShape() []int {
	return []int{m.inShape[0] / 2, m.inShape[1] / 2, m.inShape[2]}
}

// Forward implements Layer.
func (m *MaxPool2) Forward(in *tensor.Tensor) (*tensor.Tensor, error) {
	out, arg, err := tensor.MaxPool2(in)
	if err != nil {
		return nil, err
	}
	m.arg = arg
	return out, nil
}

// Backward implements Layer.
func (m *MaxPool2) Backward(gradOut *tensor.Tensor) (*tensor.Tensor, error) {
	if m.arg == nil {
		return nil, fmt.Errorf("nn: maxpool Backward before Forward")
	}
	if gradOut.Len() != len(m.arg) {
		return nil, fmt.Errorf("nn: maxpool gradOut volume %d, want %d", gradOut.Len(), len(m.arg))
	}
	dIn := tensor.New(m.inShape...)
	for o, src := range m.arg {
		dIn.Data[src] += gradOut.Data[o]
	}
	return dIn, nil
}

// Params implements Layer.
func (m *MaxPool2) Params() []Param { return nil }

// Flatten reshapes an HWC tensor to rank-1. It exists so the network's
// layer list mirrors the textbook CNN architecture.
type Flatten struct {
	inShape []int
}

// NewFlatten constructs a flatten stage for the given input shape.
func NewFlatten(inShape []int) *Flatten {
	return &Flatten{inShape: append([]int(nil), inShape...)}
}

// Name implements Layer.
func (f *Flatten) Name() string { return "flatten" }

// OutShape implements Layer.
func (f *Flatten) OutShape() []int { return []int{tensor.Volume(f.inShape)} }

// Forward implements Layer.
func (f *Flatten) Forward(in *tensor.Tensor) (*tensor.Tensor, error) {
	return in.Reshape(in.Len())
}

// Backward implements Layer.
func (f *Flatten) Backward(gradOut *tensor.Tensor) (*tensor.Tensor, error) {
	return gradOut.Reshape(f.inShape...)
}

// Params implements Layer.
func (f *Flatten) Params() []Param { return nil }
