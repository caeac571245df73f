package nn

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/tensor"
)

func testRNG() *rand.Rand { return rand.New(rand.NewSource(1)) }

func TestConv2DForwardShape(t *testing.T) {
	g := tensor.ConvGeom{InH: 8, InW: 8, InC: 2, K: 3, Stride: 1, Pad: 0, OutC: 4}
	c, err := NewConv2D(g, testRNG())
	if err != nil {
		t.Fatal(err)
	}
	if sh := c.OutShape(); sh[0] != 6 || sh[1] != 6 || sh[2] != 4 {
		t.Fatalf("conv out shape = %v, want [6 6 4]", sh)
	}
	if out := c.newStep(1).forward(make([]float32, 8*8*2)); len(out) != 6*6*4 {
		t.Fatalf("conv out volume = %d, want %d", len(out), 6*6*4)
	}
}

func TestConv2DRejectsBadInput(t *testing.T) {
	g := tensor.ConvGeom{InH: 8, InW: 8, InC: 2, K: 3, Stride: 1, OutC: 4}
	c, _ := NewConv2D(g, testRNG())
	n := &Network{InShape: []int{8, 8, 2}, Layers: []Layer{c, NewFlatten(c.OutShape())}, Classes: 144}
	if _, err := n.Forward(tensor.New(4, 4, 2)); err == nil {
		t.Fatal("conv accepted wrong input volume")
	}
	// A network whose declared input does not fit its first layer is
	// refused before any pass runs.
	n.InShape = []int{4, 4, 2}
	if _, err := n.Forward(tensor.New(4, 4, 2)); err == nil {
		t.Fatal("conv accepted an input shape its geometry does not take")
	}
	if err := Train(n, []*tensor.Tensor{tensor.New(4, 4, 2)}, []int{0}, TrainConfig{}); err == nil {
		t.Fatal("Train accepted an input shape the conv geometry does not take")
	}
}

func TestDenseForwardBackwardShapes(t *testing.T) {
	d, err := NewDense(10, 4, testRNG())
	if err != nil {
		t.Fatal(err)
	}
	st := d.newStep(1)
	if out := st.forward(make([]float32, 10)); len(out) != 4 {
		t.Fatalf("dense out = %d, want 4", len(out))
	}
	if dIn := st.backward(0, make([]float32, 4), true); len(dIn) != 10 {
		t.Fatalf("dense dIn = %d, want 10", len(dIn))
	}
	if _, err := NewDense(0, 4, testRNG()); err == nil {
		t.Fatal("dense accepted zero input dim")
	}
}

// numericalGrad estimates dLoss/dparam[i] with central differences.
func numericalGrad(t *testing.T, n *Network, in *tensor.Tensor, label int, p *tensor.Tensor, i int) float64 {
	t.Helper()
	const eps = 1e-3
	orig := p.Data[i]
	p.Data[i] = orig + eps
	lp, err := forwardLoss(n, in, label)
	if err != nil {
		t.Fatal(err)
	}
	p.Data[i] = orig - eps
	lm, err := forwardLoss(n, in, label)
	if err != nil {
		t.Fatal(err)
	}
	p.Data[i] = orig
	return (lp - lm) / (2 * eps)
}

func forwardLoss(n *Network, in *tensor.Tensor, label int) (float64, error) {
	logits, err := n.Forward(in)
	if err != nil {
		return 0, err
	}
	return lossGrad(make([]float32, logits.Len()), logits.Data, label), nil
}

// sum32 returns the float64 sum of xs.
func sum32(xs []float32) float64 {
	s := 0.0
	for _, v := range xs {
		s += float64(v)
	}
	return s
}

// backprop runs one sample forward and backward on a fresh replica, the
// way Train does, and returns its gradients.
func backprop(t *testing.T, n *Network, in *tensor.Tensor, label int) gradients {
	t.Helper()
	reps, err := n.replicas(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	g := newGradients(n)
	reps[0].sample(0, in.Data, label)
	reps[0].accumulate(0, g)
	return g
}

// TestGradientsMatchNumerical is the core correctness check for backprop: a
// tiny full network's analytic gradients must match finite differences.
func TestGradientsMatchNumerical(t *testing.T) {
	rng := testRNG()
	arch := Arch{Name: "tiny", InH: 12, InW: 12, InC: 1, Conv1: 2, Conv2: 3, Kernel: 3, Classes: 3}
	n, err := Build(arch, rng)
	if err != nil {
		t.Fatal(err)
	}
	in := tensor.New(12, 12, 1)
	for i := range in.Data {
		in.Data[i] = rng.Float32()
	}
	label := 1

	g := backprop(t, n, in, label)

	for li, l := range n.Layers {
		for pi, p := range l.Params() {
			// Spot-check a handful of indices per parameter tensor.
			idxs := []int{0, p.Value.Len() / 2, p.Value.Len() - 1}
			for _, i := range idxs {
				want := numericalGrad(t, n, in, label, p.Value, i)
				got := float64(g[li][pi][i])
				if math.Abs(got-want) > 2e-2*(1+math.Abs(want)) {
					t.Errorf("%s grad[%d] = %v, numerical %v", p.Name, i, got, want)
				}
			}
		}
	}
}

func TestLossGradProperties(t *testing.T) {
	grad := make([]float32, 3)
	loss := lossGrad(grad, []float32{2, -1, 0.5}, 0)
	if loss <= 0 {
		t.Fatalf("loss = %v, want > 0", loss)
	}
	// Gradient components sum to zero (probs sum 1, one-hot sums 1).
	if s := sum32(grad); math.Abs(s) > 1e-5 {
		t.Fatalf("grad sum = %v, want 0", s)
	}
	// Gradient at the true label is negative.
	if grad[0] >= 0 {
		t.Fatalf("grad at true label = %v, want < 0", grad[0])
	}
}

func TestBuildArchitectures(t *testing.T) {
	for _, arch := range []Arch{MNISTArch(), CIFARArch()} {
		n, err := Build(arch, testRNG())
		if err != nil {
			t.Fatalf("%s: %v", arch.Name, err)
		}
		in := tensor.New(arch.InH, arch.InW, arch.InC)
		logits, err := n.Forward(in)
		if err != nil {
			t.Fatalf("%s forward: %v", arch.Name, err)
		}
		if logits.Len() != arch.Classes {
			t.Fatalf("%s logits = %d, want %d", arch.Name, logits.Len(), arch.Classes)
		}
		if n.ParamCount() == 0 {
			t.Fatalf("%s has no parameters", arch.Name)
		}
	}
	if _, err := Build(Arch{Name: "bad", InH: 8, InW: 8, InC: 1, Conv1: 2, Conv2: 2, Kernel: 3, Classes: 1}, testRNG()); err == nil {
		t.Fatal("Build accepted 1-class arch")
	}
}

// separableData builds the bright-top vs bright-bottom toy problem.
func separableData(rng *rand.Rand, n int) ([]*tensor.Tensor, []int) {
	var inputs []*tensor.Tensor
	var labels []int
	for i := 0; i < n; i++ {
		img := tensor.New(12, 12, 1)
		cls := i % 2
		for y := 0; y < 12; y++ {
			for x := 0; x < 12; x++ {
				v := rng.Float32() * 0.2
				if (cls == 0 && y < 6) || (cls == 1 && y >= 6) {
					v += 0.8
				}
				img.Data[y*12+x] = v
			}
		}
		inputs = append(inputs, img)
		labels = append(labels, cls)
	}
	return inputs, labels
}

func TestTrainLearnsSeparableProblem(t *testing.T) {
	// Two trivially separable classes: bright top half vs bright bottom half.
	rng := testRNG()
	arch := Arch{Name: "tiny", InH: 12, InW: 12, InC: 1, Conv1: 4, Conv2: 4, Kernel: 3, Classes: 2}
	n, err := Build(arch, rng)
	if err != nil {
		t.Fatal(err)
	}
	inputs, labels := separableData(rng, 120)
	err = Train(n, inputs, labels, TrainConfig{Epochs: 6, BatchSize: 8, LR: 0.05, Momentum: 0.9, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	acc, err := Accuracy(n, inputs, labels)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.95 {
		t.Fatalf("training accuracy = %v, want >= 0.95 on separable data", acc)
	}
}

func TestTrainValidation(t *testing.T) {
	n, err := Build(Arch{Name: "t", InH: 12, InW: 12, InC: 1, Conv1: 2, Conv2: 2, Kernel: 3, Classes: 2}, testRNG())
	if err != nil {
		t.Fatal(err)
	}
	if err := Train(n, nil, nil, TrainConfig{}); err == nil {
		t.Fatal("Train accepted empty dataset")
	}
	if err := Train(n, []*tensor.Tensor{tensor.New(12, 12, 1)}, []int{0, 1}, TrainConfig{}); err == nil {
		t.Fatal("Train accepted mismatched inputs/labels")
	}
	if _, err := Accuracy(n, nil, nil); err == nil {
		t.Fatal("Accuracy accepted empty dataset")
	}
}

func TestSGDMomentumMovesParams(t *testing.T) {
	n, err := Build(Arch{Name: "t", InH: 12, InW: 12, InC: 1, Conv1: 2, Conv2: 2, Kernel: 3, Classes: 2}, testRNG())
	if err != nil {
		t.Fatal(err)
	}
	before := append([]float32(nil), n.Params()[0].Value.Data...)
	in := tensor.New(12, 12, 1)
	for i := range in.Data {
		in.Data[i] = 0.5
	}
	g := backprop(t, n, in, 0)
	newSGD(0.1, 0.9).step(n, g, 1)
	after := n.Params()[0].Value
	moved := false
	for i := range before {
		if before[i] != after.Data[i] {
			moved = true
			break
		}
	}
	if !moved {
		t.Fatal("SGD step did not change parameters")
	}
	// Gradients are zeroed after a step.
	for _, layer := range g {
		for _, grad := range layer {
			for _, v := range grad {
				if v != 0 {
					t.Fatal("gradient not zeroed after step")
				}
			}
		}
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	arch := Arch{Name: "t", InH: 10, InW: 10, InC: 1, Conv1: 3, Conv2: 4, Kernel: 3, Classes: 4}
	n, err := Build(arch, testRNG())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SaveModel(&buf, arch, n); err != nil {
		t.Fatal(err)
	}
	arch2, n2, err := LoadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if arch2.Name != arch.Name || arch2.Classes != arch.Classes {
		t.Fatalf("arch round-trip mismatch: %+v vs %+v", arch2, arch)
	}
	// Same input must produce identical logits.
	in := tensor.New(10, 10, 1)
	rng := rand.New(rand.NewSource(9))
	for i := range in.Data {
		in.Data[i] = rng.Float32()
	}
	l1, err := n.Forward(in)
	if err != nil {
		t.Fatal(err)
	}
	l2, err := n2.Forward(in)
	if err != nil {
		t.Fatal(err)
	}
	for i := range l1.Data {
		if l1.Data[i] != l2.Data[i] {
			t.Fatalf("logits differ after round trip at %d: %v vs %v", i, l1.Data[i], l2.Data[i])
		}
	}
}

func TestLoadModelCorruptStream(t *testing.T) {
	if _, _, err := LoadModel(bytes.NewReader([]byte("not a gob"))); err == nil {
		t.Fatal("LoadModel accepted garbage")
	}
}

func TestQuickReLUBackwardMask(t *testing.T) {
	// Gradient passes exactly where forward input was >= 0.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(64)
		r := NewReLU([]int{n}).newStep(1)
		in := make([]float32, n)
		for i := range in {
			in[i] = rng.Float32()*4 - 2
		}
		r.forward(in)
		g := make([]float32, n)
		for i := range g {
			g[i] = 1
		}
		dIn := r.backward(0, g, true)
		for i := range in {
			want := float32(1)
			if in[i] < 0 {
				want = 0
			}
			if dIn[i] != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickPoolBackwardConservesMass(t *testing.T) {
	// Sum of pooled-gradient scatter equals sum of incoming gradient.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h, w, c := 2+2*rng.Intn(4), 2+2*rng.Intn(4), 1+rng.Intn(3)
		p, err := NewMaxPool2([]int{h, w, c})
		if err != nil {
			return false
		}
		st := p.newStep(1)
		in := make([]float32, h*w*c)
		for i := range in {
			in[i] = rng.Float32()
		}
		out := st.forward(in)
		g := tensor.New(len(out))
		for i := range g.Data {
			g.Data[i] = rng.Float32()
		}
		return math.Abs(sum32(st.backward(0, g.Data, true))-sum32(g.Data)) < 1e-3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestBuildMLP(t *testing.T) {
	n, err := mlpStack(28, 28, 1, 10, []int{128, 64}).Build(testRNG())
	if err != nil {
		t.Fatal(err)
	}
	logits, err := n.Forward(tensor.New(28, 28, 1))
	if err != nil {
		t.Fatal(err)
	}
	if logits.Len() != 10 {
		t.Fatalf("MLP logits = %d", logits.Len())
	}
	// flatten + 2×(dense+relu) + dense = 6 layers.
	if len(n.Layers) != 6 {
		t.Fatalf("MLP layers = %d, want 6", len(n.Layers))
	}
}

func TestMLPLearnsSeparableProblem(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	n, err := mlpStack(12, 12, 1, 2, []int{16}).Build(rng)
	if err != nil {
		t.Fatal(err)
	}
	inputs, labels := separableData(rng, 100)
	if err := Train(n, inputs, labels, TrainConfig{Epochs: 5, BatchSize: 8, LR: 0.05, Momentum: 0.9, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	acc, err := Accuracy(n, inputs, labels)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.95 {
		t.Fatalf("MLP accuracy = %v", acc)
	}
}
