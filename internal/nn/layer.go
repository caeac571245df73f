// Package nn implements the convolutional neural network substrate: layers
// with forward and backward passes, a sequential network container, softmax
// cross-entropy training with SGD+momentum (data-parallel, and bit-identical
// at any GOMAXPROCS), and a canonical model encoding.
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

// Layer is one stage of a sequential network. A layer holds its
// parameters only. The gradient accumulators belong to a Train call, and
// every buffer one sample's forward and backward pass writes belongs to a
// step, one per replica, so replicas that share a network's weights run
// concurrently.
type Layer interface {
	// Name returns a short identifier used in diagnostics and model files.
	Name() string
	// OutShape returns the output shape for the configured input shape.
	OutShape() []int
	// Params returns the layer's parameters; empty for stateless layers.
	Params() []Param
	// inVolume returns the input length the layer is built for.
	inVolume() int
	// newStep allocates one replica's working state for the layer, with
	// room to record the parameter-gradient inputs of slots samples.
	newStep(slots int) step
}

// step is one replica's working state for one layer. Its buffers are
// allocated once, so steady-state passes allocate nothing.
type step interface {
	// forward runs the layer on one sample (no batch dimension). The
	// result stays valid until the next forward.
	forward(in []float32) []float32
	// backward takes dL/d(output) for the sample last run forward, keeps
	// the sample's parameter-gradient inputs in record slot k and
	// returns dL/d(input). needIn is false when nothing consumes the
	// input gradient; the step may then skip it and return nil.
	backward(k int, gradOut []float32, needIn bool) []float32
	// accumulate adds record slot k's contribution to the layer's
	// gradient accumulators g, one per parameter in Params() order.
	accumulate(k int, g [][]float32)
}

// Param is one named parameter tensor of a layer.
type Param struct {
	Name  string
	Value *tensor.Tensor
}

// slotBufs returns slots buffers of n values each, cut from one block.
func slotBufs(slots, n int) [][]float32 {
	block := make([]float32, slots*n)
	bufs := make([][]float32, slots)
	for k := range bufs {
		bufs[k] = block[k*n : (k+1)*n : (k+1)*n]
	}
	return bufs
}

// Conv2D is a 2-D convolution layer with HWC input, square kernels, and a
// bias per output channel. Filters are stored as {K*K*InC, OutC} so the
// forward pass is im2col + matmul.
type Conv2D struct {
	Geom   tensor.ConvGeom
	Filter *tensor.Tensor // {K*K*InC, OutC}
	Bias   *tensor.Tensor // {OutC}
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
	return &Conv2D{Geom: g, Filter: filt, Bias: tensor.New(g.OutC)}, nil
}

// Name implements Layer.
func (c *Conv2D) Name() string { return fmt.Sprintf("conv%dx%dx%d", c.Geom.K, c.Geom.K, c.Geom.OutC) }

// OutShape implements Layer.
func (c *Conv2D) OutShape() []int { return []int{c.Geom.OutH(), c.Geom.OutW(), c.Geom.OutC} }

func (c *Conv2D) inVolume() int { return c.Geom.InH * c.Geom.InW * c.Geom.InC }

func (c *Conv2D) newStep(slots int) step {
	g := c.Geom
	rows, cols := g.OutH()*g.OutW(), g.K*g.K*g.InC
	return &convStep{
		c: c, rows: rows, cols: cols,
		colBuf: make([]float32, rows*cols),
		out:    make([]float32, rows*g.OutC),
		dCols:  make([]float32, rows*cols),
		dIn:    make([]float32, c.inVolume()),
		df:     slotBufs(slots, cols*g.OutC),
		grad:   slotBufs(slots, rows*g.OutC),
	}
}

// convStep is a replica's state for a Conv2D.
type convStep struct {
	c          *Conv2D
	rows, cols int       // output positions, im2col columns
	colBuf     []float32 // im2col of the input last run forward
	out        []float32
	dCols      []float32
	dIn        []float32
	df         [][]float32 // per record slot: colsᵀ·gradOut
	grad       [][]float32 // per record slot: gradOut
}

//detlint:allocpath
func (s *convStep) forward(in []float32) []float32 {
	g := s.c.Geom
	tensor.Im2Col(s.colBuf, in, g)
	tensor.MatMulInto(s.out, s.colBuf, s.c.Filter.Data, s.rows, s.cols, g.OutC)
	for i := 0; i < s.rows; i++ {
		row := s.out[i*g.OutC : (i+1)*g.OutC]
		for ch := range row {
			row[ch] += s.c.Bias.Data[ch]
		}
	}
	return s.out
}

//detlint:allocpath
func (s *convStep) backward(k int, gradOut []float32, needIn bool) []float32 {
	g := s.c.Geom
	// dFilter's contribution: colsᵀ · gradOut ({cols, rows}·{rows, OutC}).
	tensor.MatMulTransA(s.df[k], s.colBuf, gradOut, s.cols, s.rows, g.OutC)
	copy(s.grad[k], gradOut)
	if !needIn {
		return nil
	}
	// dCols = gradOut · Filterᵀ; dIn = Col2Im(dCols).
	tensor.MatMulTransB(s.dCols, gradOut, s.c.Filter.Data, s.rows, g.OutC, s.cols)
	tensor.Col2Im(s.dIn, s.dCols, g)
	return s.dIn
}

// accumulate adds the slot's dFilter, then the column sums of its gradOut
// to dBias.
//
//detlint:allocpath
func (s *convStep) accumulate(k int, g [][]float32) {
	gf := g[0]
	for i, v := range s.df[k] {
		gf[i] += v
	}
	outC := s.c.Geom.OutC
	gb, grad := g[1], s.grad[k]
	for i := 0; i < s.rows; i++ {
		row := grad[i*outC : (i+1)*outC]
		for ch, v := range row {
			gb[ch] += v
		}
	}
}

// Params implements Layer.
func (c *Conv2D) Params() []Param {
	return []Param{
		{Name: c.Name() + ".filter", Value: c.Filter},
		{Name: c.Name() + ".bias", Value: c.Bias},
	}
}

// Dense is a fully connected layer: out = in·W + b with W {In, Out}.
type Dense struct {
	In, Out int
	W       *tensor.Tensor // {In, Out}
	B       *tensor.Tensor // {Out}
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
	return &Dense{In: in, Out: out, W: w, B: tensor.New(out)}, nil
}

// Name implements Layer.
func (d *Dense) Name() string { return fmt.Sprintf("dense%dx%d", d.In, d.Out) }

// OutShape implements Layer.
func (d *Dense) OutShape() []int { return []int{d.Out} }

func (d *Dense) inVolume() int { return d.In }

func (d *Dense) newStep(slots int) step {
	return &denseStep{
		d:    d,
		out:  make([]float32, d.Out),
		dIn:  make([]float32, d.In),
		in:   slotBufs(slots, d.In),
		grad: slotBufs(slots, d.Out),
	}
}

// denseStep is a replica's state for a Dense layer.
type denseStep struct {
	d      *Dense
	lastIn []float32 // the input last run forward
	out    []float32
	dIn    []float32
	in     [][]float32 // per record slot: the input
	grad   [][]float32 // per record slot: gradOut
}

//detlint:allocpath
func (s *denseStep) forward(in []float32) []float32 {
	d := s.d
	tensor.MatMulInto(s.out, in, d.W.Data, 1, d.In, d.Out)
	for i := range s.out {
		s.out[i] += d.B.Data[i]
	}
	s.lastIn = in
	return s.out
}

//detlint:allocpath
func (s *denseStep) backward(k int, gradOut []float32, needIn bool) []float32 {
	copy(s.in[k], s.lastIn)
	copy(s.grad[k], gradOut)
	if !needIn {
		return nil
	}
	// dIn = gradOut · Wᵀ.
	tensor.MatMulTransB(s.dIn, gradOut, s.d.W.Data, 1, s.d.Out, s.d.In)
	return s.dIn
}

// accumulate adds the slot's outer product inᵀ·gradOut to dW and its
// gradOut to dB.
//
//detlint:allocpath
func (s *denseStep) accumulate(k int, g [][]float32) {
	d := s.d
	in, grad := s.in[k], s.grad[k]
	gw, gb := g[0], g[1]
	for i := 0; i < d.In; i++ {
		iv := in[i]
		if iv == 0 {
			continue
		}
		row := gw[i*d.Out : (i+1)*d.Out]
		for j, gv := range grad {
			row[j] += iv * gv
		}
	}
	for j, gv := range grad {
		gb[j] += gv
	}
}

// Params implements Layer.
func (d *Dense) Params() []Param {
	return []Param{
		{Name: d.Name() + ".w", Value: d.W},
		{Name: d.Name() + ".b", Value: d.B},
	}
}

// ReLU applies max(0, x) element-wise.
type ReLU struct {
	shape []int
}

// NewReLU constructs a ReLU for the given input shape.
func NewReLU(shape []int) *ReLU {
	return &ReLU{shape: append([]int(nil), shape...)}
}

// Name implements Layer.
func (r *ReLU) Name() string { return "relu" }

// OutShape implements Layer.
func (r *ReLU) OutShape() []int { return r.shape }

// Params implements Layer.
func (r *ReLU) Params() []Param { return nil }

func (r *ReLU) inVolume() int { return tensor.Volume(r.shape) }

func (r *ReLU) newStep(int) step {
	n := r.inVolume()
	return &reluStep{out: make([]float32, n), dIn: make([]float32, n), mask: make([]bool, n)}
}

// reluStep is a replica's state for a ReLU.
type reluStep struct {
	out, dIn []float32
	mask     []bool // input >= 0, for the sample last run forward
}

//detlint:allocpath
func (s *reluStep) forward(in []float32) []float32 {
	for i, v := range in {
		if v < 0 {
			s.out[i] = 0
			s.mask[i] = false
		} else {
			s.out[i] = v
			s.mask[i] = true
		}
	}
	return s.out
}

//detlint:allocpath
func (s *reluStep) backward(_ int, gradOut []float32, _ bool) []float32 {
	for i, v := range gradOut {
		if s.mask[i] {
			s.dIn[i] = v
		} else {
			s.dIn[i] = 0
		}
	}
	return s.dIn
}

func (s *reluStep) accumulate(int, [][]float32) {}

// MaxPool2 is 2×2/stride-2 max pooling over HWC input.
type MaxPool2 struct {
	inShape []int
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

// Params implements Layer.
func (m *MaxPool2) Params() []Param { return nil }

func (m *MaxPool2) inVolume() int { return tensor.Volume(m.inShape) }

func (m *MaxPool2) newStep(int) step {
	n := tensor.Volume(m.OutShape())
	return &poolStep{m: m, out: make([]float32, n), arg: make([]int32, n), dIn: make([]float32, m.inVolume())}
}

// poolStep is a replica's state for a MaxPool2.
type poolStep struct {
	m   *MaxPool2
	out []float32
	arg []int32 // flat input index of each output, for the sample last run forward
	dIn []float32
}

//detlint:allocpath
func (s *poolStep) forward(in []float32) []float32 {
	sh := s.m.inShape
	tensor.MaxPool2Into(s.out, s.arg, in, sh[0], sh[1], sh[2])
	return s.out
}

//detlint:allocpath
func (s *poolStep) backward(_ int, gradOut []float32, _ bool) []float32 {
	clear(s.dIn)
	for o, src := range s.arg {
		s.dIn[src] += gradOut[o]
	}
	return s.dIn
}

func (s *poolStep) accumulate(int, [][]float32) {}

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

// Params implements Layer.
func (f *Flatten) Params() []Param { return nil }

func (f *Flatten) inVolume() int { return tensor.Volume(f.inShape) }

func (f *Flatten) newStep(int) step { return flattenStep{} }

// flattenStep passes data and gradients through unchanged.
type flattenStep struct{}

func (flattenStep) forward(in []float32) []float32 { return in }

func (flattenStep) backward(_ int, gradOut []float32, _ bool) []float32 { return gradOut }

func (flattenStep) accumulate(int, [][]float32) {}
