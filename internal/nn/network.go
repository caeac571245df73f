package nn

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"sync"

	"repro/internal/tensor"
)

// Network is a sequential stack of layers ending in logits; softmax is
// applied by the loss (training) or by Predict (inference).
type Network struct {
	InShape []int
	Layers  []Layer
	Classes int
}

// Arch describes one of the two CNN architectures from the paper's
// evaluation: a small convnet for the MNIST-like dataset and a slightly
// larger one for the CIFAR-like dataset.
type Arch struct {
	Name          string
	InH, InW, InC int
	Conv1, Conv2  int // output channels of the two conv blocks
	Kernel        int
	Classes       int
}

// MNISTArch is the reference architecture for 28×28×1 digit images.
func MNISTArch() Arch {
	return Arch{Name: "mnist-cnn", InH: 28, InW: 28, InC: 1, Conv1: 8, Conv2: 16, Kernel: 3, Classes: 10}
}

// CIFARArch is the reference architecture for 32×32×3 colour images.
func CIFARArch() Arch {
	return Arch{Name: "cifar-cnn", InH: 32, InW: 32, InC: 3, Conv1: 16, Conv2: 32, Kernel: 3, Classes: 10}
}

// Build constructs the conv-relu-pool ×2 + dense network for the
// architecture, with weights drawn from rng: the architecture lowers to
// its Stack, two pooled conv blocks of Conv1 and Conv2 channels.
func Build(a Arch, rng *rand.Rand) (*Network, error) {
	return convStack(a.InH, a.InW, a.InC, a.Classes, a.Kernel, true, []int{a.Conv1, a.Conv2}).Build(rng)
}

// Forward runs the network on one sample and returns the logits.
func (n *Network) Forward(in *tensor.Tensor) (*tensor.Tensor, error) {
	if err := n.checkInputs([]*tensor.Tensor{in}); err != nil {
		return nil, err
	}
	reps, err := n.replicas(1, 0)
	if err != nil {
		return nil, err
	}
	return tensor.FromSlice(reps[0].forward(in.Data), n.outShape()...)
}

// Predict returns the argmax class and the softmax probabilities.
func (n *Network) Predict(in *tensor.Tensor) (int, *tensor.Tensor, error) {
	logits, err := n.Forward(in)
	if err != nil {
		return 0, nil, err
	}
	probs := tensor.Softmax(logits)
	cls, _ := probs.MaxIndex()
	return cls, probs, nil
}

func (n *Network) outShape() []int {
	if len(n.Layers) == 0 {
		return n.InShape
	}
	return n.Layers[len(n.Layers)-1].OutShape()
}

// checkInputs requires every input to have the network's input volume.
func (n *Network) checkInputs(inputs []*tensor.Tensor) error {
	want := tensor.Volume(n.InShape)
	for i, in := range inputs {
		if in.Len() != want {
			return fmt.Errorf("nn: input %d has volume %d, network takes %d", i, in.Len(), want)
		}
	}
	return nil
}

// replica runs samples one at a time through a network whose weights it
// shares. It owns every buffer a forward and backward pass writes, so
// replicas run concurrently, and a warm replica allocates nothing.
type replica struct {
	steps []step // one per layer
	// first is the index of the first layer with parameters. No layer up
	// to it needs an input gradient, since nothing consumes one.
	first int
	grad  []float32 // dL/d(logits), or the softmax in predict
}

// replicas builds count replicas of the network, each with slots record
// slots, after checking that each layer takes what the one before it
// gives.
func (n *Network) replicas(count, slots int) ([]*replica, error) {
	vol, first := tensor.Volume(n.InShape), len(n.Layers)
	for i, l := range n.Layers {
		if l.inVolume() != vol {
			return nil, fmt.Errorf("nn: %s takes %d inputs, layer %d's input has %d", l.Name(), l.inVolume(), i, vol)
		}
		if vol = tensor.Volume(l.OutShape()); vol <= 0 {
			return nil, fmt.Errorf("nn: %s (layer %d) has an empty output", l.Name(), i)
		}
		if first == len(n.Layers) && len(l.Params()) > 0 {
			first = i
		}
	}
	reps := make([]*replica, count)
	for i := range reps {
		r := &replica{steps: make([]step, len(n.Layers)), first: first, grad: make([]float32, vol)}
		for j, l := range n.Layers {
			r.steps[j] = l.newStep(slots)
		}
		reps[i] = r
	}
	return reps, nil
}

//detlint:allocpath
func (r *replica) forward(in []float32) []float32 {
	for _, s := range r.steps {
		in = s.forward(in)
	}
	return in
}

// sample runs one training sample forward and backward, keeping its
// parameter-gradient inputs in record slot k, and returns its loss and
// whether the argmax of its logits is its label (which the caller has
// checked is in range).
//
//detlint:allocpath
func (r *replica) sample(k int, in []float32, label int) (float64, bool) {
	logits := r.forward(in)
	hit := tensor.ArgMax(logits) == label
	loss := lossGrad(r.grad, logits, label)
	g := r.grad
	for i := len(r.steps) - 1; i >= r.first; i-- {
		g = r.steps[i].backward(k, g, i > r.first)
	}
	return loss, hit
}

// accumulate adds record slot k's gradients into the network's
// accumulators g.
//
//detlint:allocpath
func (r *replica) accumulate(k int, g gradients) {
	for i := r.first; i < len(r.steps); i++ {
		r.steps[i].accumulate(k, g[i])
	}
}

// predict returns the argmax of the sample's softmax probabilities.
//
//detlint:allocpath
func (r *replica) predict(in []float32) int {
	tensor.SoftmaxInto(r.grad, r.forward(in))
	return tensor.ArgMax(r.grad)
}

// fanOut calls fn(w) for every w in [0, workers), concurrently on as many
// goroutines (the caller's among them), and returns when all have.
func fanOut(workers int, fn func(w int)) {
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer wg.Done()
			fn(w)
		}()
	}
	fn(0)
	wg.Wait()
}

// chunk returns worker w's contiguous share [lo, hi) of n items split
// over workers.
func chunk(n, workers, w int) (lo, hi int) {
	per := (n + workers - 1) / workers
	lo = min(w*per, n)
	return lo, min(lo+per, n)
}

// Params returns all parameters in layer order.
func (n *Network) Params() []Param {
	var ps []Param
	for _, l := range n.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// ParamCount returns the total number of trainable scalars.
func (n *Network) ParamCount() int {
	total := 0
	for _, p := range n.Params() {
		total += p.Value.Len()
	}
	return total
}

// lossGrad writes dL/d(logits) to grad and returns the loss.
func lossGrad(grad, logits []float32, label int) float64 {
	tensor.SoftmaxInto(grad, logits)
	p := float64(grad[label])
	if p < 1e-12 {
		p = 1e-12
	}
	grad[label] -= 1
	return -math.Log(p)
}

// gradients are a network's gradient accumulators while it trains: per
// layer, one buffer per parameter in Params() order. Only Train
// allocates them, so a network that is never trained holds its weights
// alone.
type gradients [][][]float32

func newGradients(n *Network) gradients {
	g := make(gradients, len(n.Layers))
	for i, l := range n.Layers {
		for _, p := range l.Params() {
			g[i] = append(g[i], make([]float32, p.Value.Len()))
		}
	}
	return g
}

// sgd is stochastic gradient descent with classical momentum.
type sgd struct {
	lr, momentum float64
	velocity     map[*tensor.Tensor][]float32
}

func newSGD(lr, momentum float64) *sgd {
	return &sgd{lr: lr, momentum: momentum, velocity: map[*tensor.Tensor][]float32{}}
}

// step applies one update to every parameter given its accumulated
// gradient in g scaled by 1/batchSize, then zeroes the gradients.
func (o *sgd) step(n *Network, g gradients, batchSize int) {
	if batchSize < 1 {
		batchSize = 1
	}
	inv := float32(1.0 / float64(batchSize))
	lr := float32(o.lr)
	mu := float32(o.momentum)
	for li, l := range n.Layers {
		for pi, p := range l.Params() {
			vel, ok := o.velocity[p.Value]
			if !ok {
				vel = make([]float32, p.Value.Len())
				o.velocity[p.Value] = vel
			}
			grad := g[li][pi]
			for i := range p.Value.Data {
				vel[i] = mu*vel[i] - lr*(grad[i]*inv)
				p.Value.Data[i] += vel[i]
			}
			clear(grad)
		}
	}
}

// TrainConfig bundles the training hyperparameters.
type TrainConfig struct {
	Epochs    int
	BatchSize int
	LR        float64
	Momentum  float64
	Seed      int64
	// Progress, when non-nil, receives per-epoch loss and accuracy.
	Progress func(epoch int, loss, acc float64)
}

// Train fits the network on the given samples with SGD. Inputs and labels
// must be parallel slices; inputs are single samples (no batch dim).
//
// Training is data-parallel and bit-identical at any GOMAXPROCS. Each
// minibatch is cut into contiguous runs of samples, one per replica
// (min(GOMAXPROCS, BatchSize) of them), and the replicas compute every
// sample's gradient inputs concurrently. The caller then adds them into
// the gradient accumulators, and sums the loss, in sample order: float32
// addition is not associative, so per-replica partial sums would change
// the weights' bits. The accumulators, like the optimizer's velocity,
// live for one call.
func Train(n *Network, inputs []*tensor.Tensor, labels []int, cfg TrainConfig) error {
	if len(inputs) == 0 || len(inputs) != len(labels) {
		return fmt.Errorf("nn: Train needs parallel non-empty inputs/labels, got %d/%d", len(inputs), len(labels))
	}
	if cfg.Epochs <= 0 {
		cfg.Epochs = 1
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 32
	}
	if cfg.LR <= 0 {
		cfg.LR = 0.05
	}
	if err := n.checkInputs(inputs); err != nil {
		return err
	}
	workers := min(runtime.GOMAXPROCS(0), cfg.BatchSize)
	reps, err := n.replicas(workers, (cfg.BatchSize+workers-1)/workers)
	if err != nil {
		return err
	}
	classes := len(reps[0].grad)
	for i, l := range labels {
		if l < 0 || l >= classes {
			return fmt.Errorf("nn: label %d of sample %d out of range for %d logits", l, i, classes)
		}
	}
	grads, opt := newGradients(n), newSGD(cfg.LR, cfg.Momentum)
	rng := rand.New(rand.NewSource(cfg.Seed))
	order := make([]int, len(inputs))
	for i := range order {
		order[i] = i
	}
	losses, hits := make([]float64, cfg.BatchSize), make([]bool, cfg.BatchSize)
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		totalLoss, correct := 0.0, 0
		for start := 0; start < len(order); start += cfg.BatchSize {
			batch := order[start:min(start+cfg.BatchSize, len(order))]
			fanOut(workers, func(w int) {
				lo, hi := chunk(len(batch), workers, w)
				for pos := lo; pos < hi; pos++ {
					idx := batch[pos]
					losses[pos], hits[pos] = reps[w].sample(pos-lo, inputs[idx].Data, labels[idx])
				}
			})
			for w, r := range reps {
				lo, hi := chunk(len(batch), workers, w)
				for pos := lo; pos < hi; pos++ {
					r.accumulate(pos-lo, grads)
					totalLoss += losses[pos]
					if hits[pos] {
						correct++
					}
				}
			}
			opt.step(n, grads, len(batch))
		}
		if cfg.Progress != nil {
			cfg.Progress(epoch, totalLoss/float64(len(order)), float64(correct)/float64(len(order)))
		}
	}
	return nil
}

// Accuracy evaluates classification accuracy on a labelled set, spreading
// the forward passes over min(GOMAXPROCS, len(inputs)) replicas.
func Accuracy(n *Network, inputs []*tensor.Tensor, labels []int) (float64, error) {
	if len(inputs) == 0 || len(inputs) != len(labels) {
		return 0, fmt.Errorf("nn: Accuracy needs parallel non-empty inputs/labels")
	}
	if err := n.checkInputs(inputs); err != nil {
		return 0, err
	}
	workers := min(runtime.GOMAXPROCS(0), len(inputs))
	reps, err := n.replicas(workers, 0)
	if err != nil {
		return 0, err
	}
	correct := make([]int, workers)
	fanOut(workers, func(w int) {
		lo, hi := chunk(len(inputs), workers, w)
		c := 0
		for i := lo; i < hi; i++ {
			if reps[w].predict(inputs[i].Data) == labels[i] {
				c++
			}
		}
		correct[w] = c
	})
	total := 0
	for _, c := range correct {
		total += c
	}
	return float64(total) / float64(len(inputs)), nil
}

// The canonical model encoding: one byte layout for a trained network,
// so the same weights always encode to the same bytes (a model file's
// digest identifies its weights). The layout is positional:
//
//	magic "RNNMODEL", version (uint32)
//	arch: name (string), InH, InW, InC, Conv1, Conv2, Kernel, Classes (uint32 each)
//	param count (uint32), then per parameter in Params() order:
//	    name (string), length (uint32), length × float32 bits
//
// A string is its byte length (uint32) followed by the bytes; every
// integer is little-endian.
const (
	modelMagic   = "RNNMODEL"
	modelVersion = 1
	// maxModelDim bounds every decoded architecture field and
	// maxModelTensor every parameter, activation and im2col buffer the
	// architecture implies, so a decoded network never asks for a huge
	// allocation. The paper's CIFAR net peaks at ~25k elements.
	maxModelDim    = 1 << 12
	maxModelTensor = 1 << 22
	// maxModelBytes bounds what LoadModel reads from its stream.
	maxModelBytes = 128 << 20
)

// dims lists the architecture's integer fields in encoding order.
func (a *Arch) dims() []*int {
	return []*int{&a.InH, &a.InW, &a.InC, &a.Conv1, &a.Conv2, &a.Kernel, &a.Classes}
}

// tensorSizes returns how many parameters the architecture builds, and
// the element count of its largest tensor: a parameter, or an activation
// or im2col buffer of one forward pass. Fields are assumed to be in
// [0, maxModelDim], so no product overflows.
func (a Arch) tensorSizes() (params, peak int) {
	h, w := a.InH, a.InW
	peak = h * w * a.InC
	inC := a.InC
	for _, outC := range []int{a.Conv1, a.Conv2} {
		oh, ow := max(h-a.Kernel+1, 0), max(w-a.Kernel+1, 0)
		cols := a.Kernel * a.Kernel * inC
		peak = max(peak, oh*ow*cols, oh*ow*outC, cols*outC)
		params += cols*outC + outC
		h, w, inC = oh/2, ow/2, outC
	}
	dense := h * w * inC * a.Classes
	return params + dense + a.Classes, max(peak, dense)
}

// EncodeModel returns the canonical encoding of a network built from
// arch.
func EncodeModel(a Arch, n *Network) []byte {
	params := n.Params()
	size := len(modelMagic) + 4 + 4 + len(a.Name) + 4*len(a.dims()) + 4
	for _, p := range params {
		size += 4 + len(p.Name) + 4 + 4*p.Value.Len()
	}
	le := binary.LittleEndian
	b := make([]byte, 0, size)
	b = append(b, modelMagic...)
	b = le.AppendUint32(b, modelVersion)
	b = appendModelString(b, a.Name)
	for _, d := range a.dims() {
		b = le.AppendUint32(b, uint32(*d))
	}
	b = le.AppendUint32(b, uint32(len(params)))
	for _, p := range params {
		b = appendModelString(b, p.Name)
		b = le.AppendUint32(b, uint32(p.Value.Len()))
		for _, v := range p.Value.Data {
			b = le.AppendUint32(b, math.Float32bits(v))
		}
	}
	return b
}

func appendModelString(b []byte, s string) []byte {
	return append(binary.LittleEndian.AppendUint32(b, uint32(len(s))), s...)
}

// modelReader consumes an encoded model; the first error sticks.
type modelReader struct {
	b   []byte
	err error
}

func (r *modelReader) take(n uint64) []byte {
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.b)) {
		r.err = fmt.Errorf("nn: model truncated: need %d more bytes, have %d", n, len(r.b))
		return nil
	}
	out := r.b[:n]
	r.b = r.b[n:]
	return out
}

func (r *modelReader) u32() uint32 {
	if b := r.take(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

func (r *modelReader) str() string { return string(r.take(uint64(r.u32()))) }

// DecodeModel rebuilds a network from its canonical encoding. Every
// parameter's name and length must match a fresh Build of the encoded
// architecture, the architecture must stay within fixed size bounds, and
// no bytes may follow the last parameter, so a blob that decodes
// re-encodes to exactly itself.
func DecodeModel(b []byte) (Arch, *Network, error) {
	r := &modelReader{b: b}
	if string(r.take(uint64(len(modelMagic)))) != modelMagic {
		return Arch{}, nil, fmt.Errorf("nn: not a model file (bad magic)")
	}
	if v := r.u32(); r.err == nil && v != modelVersion {
		return Arch{}, nil, fmt.Errorf("nn: model version %d, want %d", v, modelVersion)
	}
	var a Arch
	a.Name = r.str()
	for _, d := range a.dims() {
		v := r.u32()
		if v > maxModelDim {
			return Arch{}, nil, fmt.Errorf("nn: model architecture field %d exceeds %d", v, maxModelDim)
		}
		*d = int(v)
	}
	count := r.u32()
	if r.err != nil {
		return Arch{}, nil, r.err
	}
	// Check the architecture's size before building it: Build allocates
	// every parameter, so a blob too short to hold them, or an
	// architecture past the bound, is refused first.
	total, peak := a.tensorSizes()
	if peak > maxModelTensor {
		return Arch{}, nil, fmt.Errorf("nn: model architecture %+v implies a %d-element tensor, over the %d bound", a, peak, maxModelTensor)
	}
	if 4*total > len(r.b) {
		return Arch{}, nil, fmt.Errorf("nn: model truncated: %d parameters need %d bytes, have %d", total, 4*total, len(r.b))
	}
	n, err := Build(a, rand.New(rand.NewSource(0)))
	if err != nil {
		return Arch{}, nil, err
	}
	params := n.Params()
	if int(count) != len(params) {
		return Arch{}, nil, fmt.Errorf("nn: model has %d tensors, architecture %q has %d", count, a.Name, len(params))
	}
	for _, p := range params {
		name, length := r.str(), r.u32()
		if r.err != nil {
			return Arch{}, nil, r.err
		}
		if name != p.Name || int(length) != p.Value.Len() {
			return Arch{}, nil, fmt.Errorf("nn: model tensor %q (%d values), want %q (%d values)", name, length, p.Name, p.Value.Len())
		}
		data := r.take(4 * uint64(length))
		if r.err != nil {
			return Arch{}, nil, r.err
		}
		for i := range p.Value.Data {
			p.Value.Data[i] = math.Float32frombits(binary.LittleEndian.Uint32(data[4*i:]))
		}
	}
	if len(r.b) != 0 {
		return Arch{}, nil, fmt.Errorf("nn: %d trailing bytes after the model", len(r.b))
	}
	return a, n, nil
}

// SaveModel writes the network's canonical encoding to w.
func SaveModel(w io.Writer, a Arch, n *Network) error {
	if _, err := w.Write(EncodeModel(a, n)); err != nil {
		return fmt.Errorf("nn: writing model: %w", err)
	}
	return nil
}

// LoadModel rebuilds a network from a stream written by SaveModel.
func LoadModel(r io.Reader) (Arch, *Network, error) {
	b, err := io.ReadAll(io.LimitReader(r, maxModelBytes+1))
	if err != nil {
		return Arch{}, nil, fmt.Errorf("nn: reading model: %w", err)
	}
	if len(b) > maxModelBytes {
		return Arch{}, nil, fmt.Errorf("nn: model stream exceeds %d bytes", maxModelBytes)
	}
	return DecodeModel(b)
}
