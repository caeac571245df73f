package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The reference kernels below are the original single-loop forms of the
// training kernels, kept verbatim. The fixed-width paths in ops.go must
// give every output element the same float32 operations in the same
// order, so their results must match these bit for bit.

func refMatMulInto(dst, a, b []float32, m, k, n int) {
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

func refMatMulTransB(dst, a, b []float32, m, k, n int) {
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

func refMatMulTransA(dst, a, b []float32, m, k, n int) {
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

func refIm2Col(dst []float32, in []float32, g ConvGeom) {
	oh, ow := g.OutH(), g.OutW()
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

func refCol2Im(dstIn []float32, cols []float32, g ConvGeom) {
	oh, ow := g.OutH(), g.OutW()
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

// kernelOperand returns n values of which about 40% are exact zeros
// (some of them −0) and the rest span several magnitudes of both signs.
// When special is set, a few NaN and ±Inf values are injected too.
func kernelOperand(rng *rand.Rand, n int, special bool) []float32 {
	v := make([]float32, n)
	for i := range v {
		switch r := rng.Float64(); {
		case r < 0.35:
			v[i] = 0
		case r < 0.40:
			v[i] = float32(math.Copysign(0, -1))
		default:
			v[i] = float32(rng.NormFloat64() * math.Pow(10, float64(rng.Intn(7)-3)))
		}
	}
	if special && n > 0 {
		specials := []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))}
		for c := 1 + rng.Intn(3); c > 0; c-- {
			v[rng.Intn(n)] = specials[rng.Intn(len(specials))]
		}
	}
	return v
}

// junk returns a destination buffer pre-filled with values a kernel must
// overwrite, so a kernel that skips clearing fails.
func junk(n int) []float32 {
	v := make([]float32, n)
	for i := range v {
		v[i] = float32(math.NaN())
		if i%2 == 1 {
			v[i] = 12345
		}
	}
	return v
}

// sameBits reports the first index where got and want differ in their
// bits, treating any NaN as equal to any NaN; -1 if none.
func sameBits(got, want []float32) int {
	for i := range want {
		g, w := got[i], want[i]
		if g != g && w != w {
			continue
		}
		if math.Float32bits(g) != math.Float32bits(w) {
			return i
		}
	}
	return -1
}

type mmShape struct{ m, k, n int }

// kernelMatMulShapes covers the conv and dense shapes the MNIST and CIFAR
// scenario networks train at, both fixed-width paths at every width, and
// random shapes that reach the tails.
func kernelMatMulShapes(rng *rand.Rand) []mmShape {
	shapes := []mmShape{
		// MNIST conv1 forward, dFilter, dCols; conv2 likewise; dense.
		{676, 9, 8}, {9, 676, 8}, {676, 8, 9},
		{121, 72, 16}, {72, 121, 16}, {121, 16, 72},
		{1, 400, 10}, {1, 10, 400},
		// CIFAR conv1, conv2 and dense.
		{900, 27, 16}, {27, 900, 16}, {900, 16, 27},
		{169, 144, 32}, {144, 169, 32}, {169, 32, 144},
		{1, 1152, 10}, {1, 10, 1152},
	}
	for _, w := range []int{8, 16, 32} {
		shapes = append(shapes, mmShape{1 + rng.Intn(40), 1 + rng.Intn(40), w}, mmShape{1 + rng.Intn(40), w, 1 + rng.Intn(40)})
	}
	for i := 0; i < 150; i++ {
		shapes = append(shapes, mmShape{1 + rng.Intn(40), 1 + rng.Intn(40), 1 + rng.Intn(40)})
	}
	return shapes
}

func TestKernelsBitIdenticalMatMul(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	kernels := []struct {
		name     string
		got, ref func(dst, a, b []float32, m, k, n int)
		aLen     func(s mmShape) int
		bLen     func(s mmShape) int
	}{
		{"MatMulInto", MatMulInto, refMatMulInto,
			func(s mmShape) int { return s.m * s.k }, func(s mmShape) int { return s.k * s.n }},
		{"MatMulTransB", MatMulTransB, refMatMulTransB,
			func(s mmShape) int { return s.m * s.k }, func(s mmShape) int { return s.n * s.k }},
		{"MatMulTransA", MatMulTransA, refMatMulTransA,
			func(s mmShape) int { return s.k * s.m }, func(s mmShape) int { return s.k * s.n }},
	}
	for _, s := range kernelMatMulShapes(rng) {
		for _, kn := range kernels {
			for _, special := range []bool{false, true} {
				a := kernelOperand(rng, kn.aLen(s), special)
				b := kernelOperand(rng, kn.bLen(s), special)
				want, got := junk(s.m*s.n), junk(s.m*s.n)
				kn.ref(want, a, b, s.m, s.k, s.n)
				kn.got(got, a, b, s.m, s.k, s.n)
				if i := sameBits(got, want); i >= 0 {
					t.Fatalf("%s m=%d k=%d n=%d special=%v: [%d] = %v (%#08x), want %v (%#08x)",
						kn.name, s.m, s.k, s.n, special, i, got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
				}
			}
		}
	}
}

// kernelGeoms covers the scenario networks' conv geometries, strided and
// padded geometries whose kx runs are clipped at one or both ends, and
// geometries where a whole kernel row falls in the padding.
func kernelGeoms(rng *rand.Rand) []ConvGeom {
	geoms := []ConvGeom{
		{InH: 28, InW: 28, InC: 1, K: 3, Stride: 1, OutC: 8},
		{InH: 13, InW: 13, InC: 8, K: 3, Stride: 1, OutC: 16},
		{InH: 32, InW: 32, InC: 3, K: 3, Stride: 1, OutC: 16},
		{InH: 15, InW: 15, InC: 16, K: 3, Stride: 1, OutC: 32},
		{InH: 9, InW: 8, InC: 3, K: 3, Stride: 2, Pad: 1, OutC: 4},
		{InH: 7, InW: 7, InC: 2, K: 5, Stride: 2, Pad: 2, OutC: 1},
		{InH: 1, InW: 1, InC: 2, K: 3, Stride: 1, Pad: 3, OutC: 1},
		{InH: 2, InW: 5, InC: 1, K: 4, Stride: 3, Pad: 4, OutC: 1},
	}
	for len(geoms) < 80 {
		g := ConvGeom{
			InH: 1 + rng.Intn(9), InW: 1 + rng.Intn(9), InC: 1 + rng.Intn(4),
			K: 1 + rng.Intn(5), Stride: 1 + rng.Intn(3), OutC: 1,
		}
		g.Pad = rng.Intn(g.K + 2)
		if g.Validate() == nil {
			geoms = append(geoms, g)
		}
	}
	return geoms
}

func TestKernelsBitIdenticalIm2ColCol2Im(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, g := range kernelGeoms(rng) {
		name := fmt.Sprintf("%+v", g)
		nIn := g.InH * g.InW * g.InC
		nCols := g.OutH() * g.OutW() * g.K * g.K * g.InC
		for _, special := range []bool{false, true} {
			in := kernelOperand(rng, nIn, special)
			want, got := junk(nCols), junk(nCols)
			refIm2Col(want, in, g)
			Im2Col(got, in, g)
			if i := sameBits(got, want); i >= 0 {
				t.Fatalf("Im2Col %s special=%v: [%d] = %v, want %v", name, special, i, got[i], want[i])
			}

			cols := kernelOperand(rng, nCols, special)
			wantIn, gotIn := junk(nIn), junk(nIn)
			refCol2Im(wantIn, cols, g)
			Col2Im(gotIn, cols, g)
			if i := sameBits(gotIn, wantIn); i >= 0 {
				t.Fatalf("Col2Im %s special=%v: [%d] = %v, want %v", name, special, i, gotIn[i], wantIn[i])
			}
		}
	}
}
