package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// must is FromSlice for literals with statically known shapes.
func must(data []float32, shape ...int) *Tensor {
	t, err := FromSlice(data, shape...)
	if err != nil {
		panic(err)
	}
	return t
}

// sum returns the float64 sum of xs.
func sum(xs []float32) float64 {
	s := 0.0
	for _, v := range xs {
		s += float64(v)
	}
	return s
}

func TestNewZeroFilled(t *testing.T) {
	tt := New(2, 3, 4)
	if tt.Len() != 24 {
		t.Fatalf("Len = %d, want 24", tt.Len())
	}
	for i, v := range tt.Data {
		if v != 0 {
			t.Fatalf("element %d = %v, want 0", i, v)
		}
	}
	if len(tt.Shape) != 3 {
		t.Fatalf("rank = %d, want 3", len(tt.Shape))
	}
}

func TestNewNegativeDimPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New with negative dim did not panic")
		}
	}()
	New(2, -1)
}

func TestFromSlice(t *testing.T) {
	_, err := FromSlice([]float32{1, 2, 3}, 2, 2)
	if err == nil {
		t.Fatal("FromSlice accepted mismatched volume")
	}
	tt, err := FromSlice([]float32{1, 2, 3, 4}, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if tt.Data[2] != 3 || tt.Shape[0] != 2 || tt.Shape[1] != 2 {
		t.Fatalf("FromSlice = %v %v, want shape [2 2] over the data", tt.Shape, tt.Data)
	}
}

func TestReshape(t *testing.T) {
	a := must([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	b, err := a.Reshape(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Shape) != 2 || b.Shape[0] != 3 || b.Shape[1] != 2 || b.Data[5] != 6 {
		t.Fatalf("reshaped = %v %v, want shape [3 2] over the same data", b.Shape, b.Data)
	}
	if _, err := a.Reshape(4, 2); err == nil {
		t.Fatal("Reshape accepted wrong volume")
	}
	// Reshape shares data.
	b.Data[0] = -1
	if a.Data[0] != -1 {
		t.Fatal("Reshape copied data; want shared backing array")
	}
}

func TestMaxIndex(t *testing.T) {
	a := must([]float32{3, 9, 9, 1}, 4)
	i, v := a.MaxIndex()
	if i != 1 || v != 9 {
		t.Fatalf("MaxIndex = (%d,%v), want (1,9) first-on-ties", i, v)
	}
}

func TestMatMulSmall(t *testing.T) {
	a := []float32{1, 2, 3, 4, 5, 6}
	b := []float32{7, 8, 9, 10, 11, 12}
	c := make([]float32, 4)
	MatMulInto(c, a, b, 2, 3, 2)
	want := []float32{58, 64, 139, 154}
	for i := range want {
		if c[i] != want[i] {
			t.Fatalf("MatMulInto[%d] = %v, want %v", i, c[i], want[i])
		}
	}
}

// mustPanic fails the test unless f panics.
func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	f()
}

func TestMatMulShapeErrors(t *testing.T) {
	// a is 2×3 and b is 2×3: as a·b (m=2, k=3, n=3) b is one row short.
	a, b, dst := make([]float32, 6), make([]float32, 6), make([]float32, 6)
	mustPanic(t, "MatMulInto with mismatched inner dims", func() { MatMulInto(dst, a, b, 2, 3, 3) })
	mustPanic(t, "MatMulTransB with short b", func() { MatMulTransB(dst[:4], a, b[:5], 2, 3, 2) })
	mustPanic(t, "MatMulTransA with short dst", func() { MatMulTransA(dst[:3], a, b, 2, 3, 2) })
	mustPanic(t, "MatMulInto at a fixed width with short dst", func() {
		MatMulInto(make([]float32, 15), make([]float32, 2), make([]float32, 8), 2, 1, 8)
	})
}

// naiveMatMul is the reference triple loop for cross-checking kernels.
func naiveMatMul(a, b []float32, m, k, n int) []float32 {
	out := make([]float32, m*n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for p := 0; p < k; p++ {
				s += float64(a[i*k+p]) * float64(b[p*n+j])
			}
			out[i*n+j] = float32(s)
		}
	}
	return out
}

func TestMatMulAgainstNaiveRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		m, k, n := 1+rng.Intn(8), 1+rng.Intn(8), 1+rng.Intn(8)
		a := make([]float32, m*k)
		b := make([]float32, k*n)
		for i := range a {
			a[i] = rng.Float32()*2 - 1
		}
		for i := range b {
			b[i] = rng.Float32()*2 - 1
		}
		want := naiveMatMul(a, b, m, k, n)
		got := make([]float32, m*n)
		MatMulInto(got, a, b, m, k, n)
		for i := range want {
			if !almostEq(float64(got[i]), float64(want[i]), 1e-4) {
				t.Fatalf("trial %d: MatMulInto[%d] = %v, want %v", trial, i, got[i], want[i])
			}
		}
	}
}

func TestMatMulTransBAndTransA(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m, k, n := 5, 4, 6
	a := make([]float32, m*k)
	b := make([]float32, k*n)
	for i := range a {
		a[i] = rng.Float32() - 0.5
	}
	for i := range b {
		b[i] = rng.Float32() - 0.5
	}
	want := naiveMatMul(a, b, m, k, n)

	// TransB: build bT (n×k) then a·bTᵀ should equal a·b.
	bT := make([]float32, n*k)
	for p := 0; p < k; p++ {
		for j := 0; j < n; j++ {
			bT[j*k+p] = b[p*n+j]
		}
	}
	got := make([]float32, m*n)
	MatMulTransB(got, a, bT, m, k, n)
	for i := range want {
		if !almostEq(float64(got[i]), float64(want[i]), 1e-4) {
			t.Fatalf("MatMulTransB[%d] = %v, want %v", i, got[i], want[i])
		}
	}

	// TransA: build aT (k×m) then aTᵀ·b should equal a·b.
	aT := make([]float32, k*m)
	for i := 0; i < m; i++ {
		for p := 0; p < k; p++ {
			aT[p*m+i] = a[i*k+p]
		}
	}
	clear(got)
	MatMulTransA(got, aT, b, m, k, n)
	for i := range want {
		if !almostEq(float64(got[i]), float64(want[i]), 1e-4) {
			t.Fatalf("MatMulTransA[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestConvGeomValidate(t *testing.T) {
	good := ConvGeom{InH: 8, InW: 8, InC: 3, K: 3, Stride: 1, Pad: 0, OutC: 4}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid geometry rejected: %v", err)
	}
	if good.OutH() != 6 || good.OutW() != 6 {
		t.Fatalf("OutH/OutW = %d/%d, want 6/6", good.OutH(), good.OutW())
	}
	bad := good
	bad.K = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("K=0 accepted")
	}
	bad = good
	bad.InH = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("InH=0 accepted")
	}
	bad = good
	bad.K = 10
	if err := bad.Validate(); err == nil {
		t.Fatal("empty output accepted")
	}
}

// naiveConv is a direct reference convolution for cross-checking im2col.
func naiveConv(in []float32, filt []float32, bias []float32, g ConvGeom) []float32 {
	oh, ow := g.OutH(), g.OutW()
	out := make([]float32, oh*ow*g.OutC)
	for oy := 0; oy < oh; oy++ {
		for ox := 0; ox < ow; ox++ {
			for oc := 0; oc < g.OutC; oc++ {
				s := float64(bias[oc])
				for ky := 0; ky < g.K; ky++ {
					for kx := 0; kx < g.K; kx++ {
						iy, ix := oy*g.Stride+ky-g.Pad, ox*g.Stride+kx-g.Pad
						if iy < 0 || iy >= g.InH || ix < 0 || ix >= g.InW {
							continue
						}
						for c := 0; c < g.InC; c++ {
							w := filt[((ky*g.K+kx)*g.InC+c)*g.OutC+oc]
							s += float64(in[(iy*g.InW+ix)*g.InC+c]) * float64(w)
						}
					}
				}
				out[(oy*ow+ox)*g.OutC+oc] = float32(s)
			}
		}
	}
	return out
}

// conv runs the training forward pass of a conv layer: Im2Col, a matmul
// with the filter matrix, then the bias on every output row.
func conv(in, filt, bias []float32, g ConvGeom) []float32 {
	rows, cols := g.OutH()*g.OutW(), g.K*g.K*g.InC
	colBuf := make([]float32, rows*cols)
	Im2Col(colBuf, in, g)
	out := make([]float32, rows*g.OutC)
	MatMulInto(out, colBuf, filt, rows, cols, g.OutC)
	for i := 0; i < rows; i++ {
		row := out[i*g.OutC : (i+1)*g.OutC]
		for c := range row {
			row[c] += bias[c]
		}
	}
	return out
}

func TestConv2DMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	geoms := []ConvGeom{
		{InH: 6, InW: 6, InC: 1, K: 3, Stride: 1, Pad: 0, OutC: 2},
		{InH: 8, InW: 7, InC: 3, K: 3, Stride: 1, Pad: 1, OutC: 4},
		{InH: 9, InW: 9, InC: 2, K: 5, Stride: 2, Pad: 2, OutC: 3},
	}
	for gi, g := range geoms {
		in := New(g.InH, g.InW, g.InC)
		for i := range in.Data {
			in.Data[i] = rng.Float32()*2 - 1
		}
		filt := New(g.K*g.K*g.InC, g.OutC)
		for i := range filt.Data {
			filt.Data[i] = rng.Float32()*2 - 1
		}
		bias := make([]float32, g.OutC)
		for i := range bias {
			bias[i] = rng.Float32()
		}
		got := conv(in.Data, filt.Data, bias, g)
		want := naiveConv(in.Data, filt.Data, bias, g)
		for i := range want {
			if !almostEq(float64(got[i]), float64(want[i]), 1e-3) {
				t.Fatalf("geom %d: conv[%d] = %v, want %v", gi, i, got[i], want[i])
			}
		}
	}
}

func TestConv2DErrors(t *testing.T) {
	g := ConvGeom{InH: 6, InW: 6, InC: 1, K: 3, Stride: 1, OutC: 2}
	rows, cols := g.OutH()*g.OutW(), g.K*g.K*g.InC
	colBuf := make([]float32, rows*cols)
	mustPanic(t, "Im2Col with wrong input volume", func() { Im2Col(colBuf, make([]float32, 25), g) })
	mustPanic(t, "Im2Col with wrong dst length", func() { Im2Col(colBuf[1:], make([]float32, 36), g) })
	mustPanic(t, "conv matmul with wrong filter volume", func() {
		MatMulInto(make([]float32, rows*g.OutC), colBuf, make([]float32, 8*g.OutC), rows, cols, g.OutC)
	})
	mustPanic(t, "Col2Im with wrong cols length", func() { Col2Im(make([]float32, 36), colBuf[1:], g) })
	mustPanic(t, "Col2Im with wrong dst length", func() { Col2Im(make([]float32, 35), colBuf, g) })
}

func TestCol2ImAdjointProperty(t *testing.T) {
	// <Im2Col(x), y> == <x, Col2Im(y)> — the defining adjoint identity,
	// which is exactly what conv backprop relies on.
	rng := rand.New(rand.NewSource(5))
	g := ConvGeom{InH: 7, InW: 6, InC: 2, K: 3, Stride: 1, Pad: 1, OutC: 1}
	nIn := g.InH * g.InW * g.InC
	nCols := g.OutH() * g.OutW() * g.K * g.K * g.InC
	x := make([]float32, nIn)
	y := make([]float32, nCols)
	for i := range x {
		x[i] = rng.Float32() - 0.5
	}
	for i := range y {
		y[i] = rng.Float32() - 0.5
	}
	cx := make([]float32, nCols)
	Im2Col(cx, x, g)
	var lhs float64
	for i := range y {
		lhs += float64(cx[i]) * float64(y[i])
	}
	ay := make([]float32, nIn)
	Col2Im(ay, y, g)
	var rhs float64
	for i := range x {
		rhs += float64(x[i]) * float64(ay[i])
	}
	if !almostEq(lhs, rhs, 1e-3) {
		t.Fatalf("adjoint identity broken: %v vs %v", lhs, rhs)
	}
}

func TestMaxPool2(t *testing.T) {
	in := []float32{
		1, 5, 2, 0,
		3, 4, 8, 1,
		0, 0, 2, 2,
		9, 1, 3, 7,
	}
	out, arg := make([]float32, 4), make([]int32, 4)
	MaxPool2Into(out, arg, in, 4, 4, 1)
	want := []float32{5, 8, 9, 7}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("MaxPool2Into[%d] = %v, want %v", i, out[i], want[i])
		}
	}
	// argmax indices must point back at the winning elements.
	for i := range want {
		if in[arg[i]] != want[i] {
			t.Fatalf("arg[%d] -> %v, want %v", i, in[arg[i]], want[i])
		}
	}
}

func TestMaxPool2OddDims(t *testing.T) {
	// A 5×5×2 input pools to 2×2×2: the trailing row and column drop.
	in := make([]float32, 5*5*2)
	for i := range in {
		in[i] = float32(i)
	}
	out, arg := make([]float32, 2*2*2), make([]int32, 2*2*2)
	MaxPool2Into(out, arg, in, 5, 5, 2)
	// The last pooled cell of channel 1 is the max of rows/cols 2..3.
	if want := in[(3*5+3)*2+1]; out[7] != want {
		t.Fatalf("odd-dim pool last cell = %v, want %v", out[7], want)
	}
}

func TestMaxPool2Errors(t *testing.T) {
	in := make([]float32, 4*4*1)
	mustPanic(t, "MaxPool2Into with short out", func() { MaxPool2Into(make([]float32, 3), make([]int32, 4), in, 4, 4, 1) })
	mustPanic(t, "MaxPool2Into with short arg", func() { MaxPool2Into(make([]float32, 4), make([]int32, 3), in, 4, 4, 1) })
	mustPanic(t, "MaxPool2Into with wrong input volume", func() { MaxPool2Into(make([]float32, 4), make([]int32, 4), in[1:], 4, 4, 1) })
}

func TestSoftmaxProperties(t *testing.T) {
	in := must([]float32{1, 2, 3, 4}, 4)
	out := Softmax(in)
	if !almostEq(sum(out.Data), 1, 1e-6) {
		t.Fatalf("softmax sum = %v, want 1", sum(out.Data))
	}
	for i := 1; i < len(out.Data); i++ {
		if out.Data[i] <= out.Data[i-1] {
			t.Fatal("softmax not monotone for monotone logits")
		}
	}
	// Shift invariance.
	shifted := must([]float32{101, 102, 103, 104}, 4)
	out2 := Softmax(shifted)
	for i := range out.Data {
		if !almostEq(float64(out.Data[i]), float64(out2.Data[i]), 1e-6) {
			t.Fatal("softmax not shift invariant")
		}
	}
	// Large logits must not overflow.
	big := must([]float32{1000, 1000, 999}, 3)
	ob := Softmax(big)
	if math.IsNaN(float64(ob.Data[0])) || !almostEq(sum(ob.Data), 1, 1e-6) {
		t.Fatalf("softmax unstable for large logits: %v", ob.Data)
	}
}

// Property-based tests via testing/quick.

func TestQuickMatMulDistributesOverAddition(t *testing.T) {
	// a·(b+c) == a·b + a·c for random small matrices.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, k, n := 1+rng.Intn(5), 1+rng.Intn(5), 1+rng.Intn(5)
		a := make([]float32, m*k)
		b := make([]float32, k*n)
		c := make([]float32, k*n)
		for i := range a {
			a[i] = rng.Float32() - 0.5
		}
		for i := range b {
			b[i] = rng.Float32() - 0.5
			c[i] = rng.Float32() - 0.5
		}
		bc := make([]float32, k*n)
		for i := range bc {
			bc[i] = b[i] + c[i]
		}
		lhs := make([]float32, m*n)
		MatMulInto(lhs, a, bc, m, k, n)
		ab := make([]float32, m*n)
		ac := make([]float32, m*n)
		MatMulInto(ab, a, b, m, k, n)
		MatMulInto(ac, a, c, m, k, n)
		for i := range lhs {
			if !almostEq(float64(lhs[i]), float64(ab[i]+ac[i]), 1e-3) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickConvLinearity(t *testing.T) {
	// conv(x+y) == conv(x) + conv(y) - bias (conv is affine in its input).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := ConvGeom{InH: 5, InW: 5, InC: 1 + rng.Intn(2), K: 3, Stride: 1, Pad: 1, OutC: 1 + rng.Intn(3)}
		vol := g.InH * g.InW * g.InC
		x := make([]float32, vol)
		y := make([]float32, vol)
		xy := make([]float32, vol)
		for i := 0; i < vol; i++ {
			x[i] = rng.Float32() - 0.5
			y[i] = rng.Float32() - 0.5
			xy[i] = x[i] + y[i]
		}
		filt := make([]float32, g.K*g.K*g.InC*g.OutC)
		for i := range filt {
			filt[i] = rng.Float32() - 0.5
		}
		bias := make([]float32, g.OutC)
		cxy := conv(xy, filt, bias, g)
		cx := conv(x, filt, bias, g)
		cy := conv(y, filt, bias, g)
		for i := range cxy {
			if !almostEq(float64(cxy[i]), float64(cx[i]+cy[i]), 1e-3) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickMaxPoolDominance(t *testing.T) {
	// Every pooled output must be >= all four inputs of its window... it IS
	// the max, so verify max property and membership.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h, w, c := 2+2*rng.Intn(3), 2+2*rng.Intn(3), 1+rng.Intn(3)
		in := make([]float32, h*w*c)
		for i := range in {
			in[i] = rng.Float32()*10 - 5
		}
		oh, ow := h/2, w/2
		out, arg := make([]float32, oh*ow*c), make([]int32, oh*ow*c)
		MaxPool2Into(out, arg, in, h, w, c)
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				for ch := 0; ch < c; ch++ {
					o := (oy*ow+ox)*c + ch
					for dy := 0; dy < 2; dy++ {
						for dx := 0; dx < 2; dx++ {
							idx := ((2*oy+dy)*w+(2*ox+dx))*c + ch
							if in[idx] > out[o] {
								return false
							}
						}
					}
					if in[arg[o]] != out[o] {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickSoftmaxIsDistribution(t *testing.T) {
	f := func(raw []float32) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 32 {
			raw = raw[:32]
		}
		for i, v := range raw {
			if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
				raw[i] = 0
			}
			// Keep logits in a sane band; softmax of ±1e30 is a delta anyway.
			if raw[i] > 50 {
				raw[i] = 50
			}
			if raw[i] < -50 {
				raw[i] = -50
			}
		}
		in := must(raw, len(raw))
		out := Softmax(in)
		sum := 0.0
		for _, v := range out.Data {
			if v < 0 || v > 1 {
				return false
			}
			sum += float64(v)
		}
		return almostEq(sum, 1, 1e-4)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
