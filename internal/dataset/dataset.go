// Package dataset generates the synthetic stand-ins for MNIST and CIFAR-10
// used throughout the reproduction.
//
// The paper's experiments only require class-structured inputs: images of
// different categories must activate different neuron sets so the CNN's
// hardware footprint depends on the category. The real datasets cannot be
// downloaded in this offline environment, so we generate deterministic
// class-conditional images instead:
//
//   - MNIST-like: 28×28×1 grey images of stroke-rendered digit glyphs with
//     per-sample translation, thickness and noise jitter.
//   - CIFAR-like: 32×32×3 colour images with per-class procedural texture
//     (stripes, checkers, blobs, gradients, rings, ...) plus jitter.
//
// Both generators are seeded and fully reproducible.
package dataset

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/tensor"
)

// Sample is one labelled image.
type Sample struct {
	Image *tensor.Tensor
	Label int
}

// Set is a labelled dataset split.
type Set struct {
	Name    string
	Samples []Sample
	Classes int
}

// Inputs returns the image tensors as a parallel slice.
func (s *Set) Inputs() []*tensor.Tensor {
	out := make([]*tensor.Tensor, len(s.Samples))
	for i := range s.Samples {
		out[i] = s.Samples[i].Image
	}
	return out
}

// Labels returns the labels as a parallel slice.
func (s *Set) Labels() []int {
	out := make([]int, len(s.Samples))
	for i := range s.Samples {
		out[i] = s.Samples[i].Label
	}
	return out
}

// ByClass groups sample indices by label.
func (s *Set) ByClass() map[int][]int {
	m := map[int][]int{}
	for i, sm := range s.Samples {
		m[sm.Label] = append(m[sm.Label], i)
	}
	return m
}

// Config controls synthetic dataset generation.
type Config struct {
	PerClassTrain int
	PerClassTest  int
	Seed          int64
}

const (
	// classes is the number of classes of every generated set: the ten
	// digits, or the ten CIFAR-10 categories.
	classes = 10
	// pixelNoise is the standard deviation of the Gaussian pixel noise
	// added to every generated image.
	pixelNoise = 0.05
)

func (c Config) withDefaults() Config {
	if c.PerClassTrain <= 0 {
		c.PerClassTrain = 100
	}
	if c.PerClassTest <= 0 {
		c.PerClassTest = 20
	}
	return c
}

// MNISTLike generates train and test splits of the synthetic digit dataset.
func MNISTLike(cfg Config) (train, test *Set, err error) {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	gen := func(name string, perClass int) *Set {
		set := &Set{Name: name, Classes: classes}
		for cls := 0; cls < classes; cls++ {
			for i := 0; i < perClass; i++ {
				set.Samples = append(set.Samples, Sample{Image: digitImage(cls, rng), Label: cls})
			}
		}
		rng.Shuffle(len(set.Samples), func(i, j int) {
			set.Samples[i], set.Samples[j] = set.Samples[j], set.Samples[i]
		})
		return set
	}
	return gen("mnist-like-train", cfg.PerClassTrain), gen("mnist-like-test", cfg.PerClassTest), nil
}

// CIFARLike generates train and test splits of the synthetic colour-texture
// dataset.
func CIFARLike(cfg Config) (train, test *Set, err error) {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	gen := func(name string, perClass int) *Set {
		set := &Set{Name: name, Classes: classes}
		for cls := 0; cls < classes; cls++ {
			for i := 0; i < perClass; i++ {
				set.Samples = append(set.Samples, Sample{Image: textureImage(cls, rng), Label: cls})
			}
		}
		rng.Shuffle(len(set.Samples), func(i, j int) {
			set.Samples[i], set.Samples[j] = set.Samples[j], set.Samples[i]
		})
		return set
	}
	return gen("cifar-like-train", cfg.PerClassTrain), gen("cifar-like-test", cfg.PerClassTest), nil
}

// digitStrokes maps each digit class to a polyline skeleton on a 20×20
// design grid (x, y pairs), loosely tracing seven-segment-style glyphs so
// classes are visually and statistically distinct.
var digitStrokes = [10][][]float64{
	0: {{4, 2, 16, 2, 16, 18, 4, 18, 4, 2}},
	1: {{10, 2, 10, 18}, {7, 5, 10, 2}},
	2: {{4, 2, 16, 2, 16, 10, 4, 10, 4, 18, 16, 18}},
	3: {{4, 2, 16, 2, 16, 10, 6, 10}, {16, 10, 16, 18, 4, 18}},
	4: {{4, 2, 4, 10, 16, 10}, {14, 2, 14, 18}},
	5: {{16, 2, 4, 2, 4, 10, 16, 10, 16, 18, 4, 18}},
	6: {{14, 2, 4, 2, 4, 18, 16, 18, 16, 10, 4, 10}},
	7: {{4, 2, 16, 2, 9, 18}},
	8: {{4, 2, 16, 2, 16, 18, 4, 18, 4, 2}, {4, 10, 16, 10}},
	9: {{16, 10, 4, 10, 4, 2, 16, 2, 16, 18, 6, 18}},
}

// digitImage renders one jittered 28×28 digit glyph.
func digitImage(cls int, rng *rand.Rand) *tensor.Tensor {
	img := tensor.New(28, 28, 1)
	dx := rng.Float64()*4 - 2 // translation jitter
	dy := rng.Float64()*4 - 2
	thick := 1.0 + rng.Float64()*0.8
	scale := 0.9 + rng.Float64()*0.25
	for _, poly := range digitStrokes[cls%10] {
		for i := 0; i+3 < len(poly); i += 2 {
			x0, y0 := poly[i]*scale+4+dx, poly[i+1]*scale+4+dy
			x1, y1 := poly[i+2]*scale+4+dx, poly[i+3]*scale+4+dy
			drawLine(img, x0, y0, x1, y1, thick)
		}
	}
	addNoise(img, rng)
	return img
}

// drawLine stamps an anti-aliased thick segment into a 28×28×1 image.
// Endpoints are finite by construction (stroke-table literals jittered by
// bounded rng draws); the guard pins that invariant at the boundary so
// the int(float) conversions below never see NaN/Inf.
func drawLine(img *tensor.Tensor, x0, y0, x1, y1, thick float64) {
	if math.IsNaN(x0) || math.IsNaN(y0) || math.IsNaN(x1) || math.IsNaN(y1) ||
		math.IsInf(x0, 0) || math.IsInf(y0, 0) || math.IsInf(x1, 0) || math.IsInf(y1, 0) {
		return
	}
	steps := int(math.Hypot(x1-x0, y1-y0)*2) + 1
	for s := 0; s <= steps; s++ {
		t := float64(s) / float64(steps)
		cx, cy := x0+(x1-x0)*t, y0+(y1-y0)*t
		lo := int(math.Floor(-thick))
		hi := int(math.Ceil(thick))
		for oy := lo; oy <= hi; oy++ {
			for ox := lo; ox <= hi; ox++ {
				px, py := int(math.Round(cx))+ox, int(math.Round(cy))+oy
				if px < 0 || px >= 28 || py < 0 || py >= 28 {
					continue
				}
				d := math.Hypot(float64(ox), float64(oy))
				v := 1.0 - d/(thick+0.5)
				if v <= 0 {
					continue
				}
				idx := (py*28 + px)
				if float32(v) > img.Data[idx] {
					img.Data[idx] = float32(v)
				}
			}
		}
	}
}

// textureImage renders one jittered 32×32×3 procedural texture for a class.
func textureImage(cls int, rng *rand.Rand) *tensor.Tensor {
	img := tensor.New(32, 32, 3)
	phase := rng.Float64() * 2 * math.Pi
	freq := 0.55 + rng.Float64()*0.2
	// Per-class base colour (loosely: plane, car, bird, cat, ... palette).
	baseR := 0.2 + 0.08*float64(cls%5)
	baseG := 0.25 + 0.07*float64((cls*3)%5)
	baseB := 0.3 + 0.06*float64((cls*7)%5)
	cx := 16 + rng.Float64()*6 - 3
	cy := 16 + rng.Float64()*6 - 3
	for y := 0; y < 32; y++ {
		for x := 0; x < 32; x++ {
			fx, fy := float64(x), float64(y)
			var p float64
			switch cls % 10 {
			case 0: // horizontal stripes
				p = 0.5 + 0.5*math.Sin(fy*freq+phase)
			case 1: // vertical stripes
				p = 0.5 + 0.5*math.Sin(fx*freq+phase)
			case 2: // checkerboard
				p = 0.5 + 0.5*math.Sin(fx*freq+phase)*math.Sin(fy*freq+phase)
			case 3: // rings
				r := math.Hypot(fx-cx, fy-cy)
				p = 0.5 + 0.5*math.Sin(r*freq*1.4+phase)
			case 4: // diagonal stripes
				p = 0.5 + 0.5*math.Sin((fx+fy)*freq*0.8+phase)
			case 5: // radial gradient blob
				r := math.Hypot(fx-cx, fy-cy)
				p = math.Exp(-r * r / 80)
			case 6: // horizontal gradient
				p = fx / 31
			case 7: // vertical gradient
				p = fy / 31
			case 8: // corner blob + stripes mix
				r := math.Hypot(fx-6, fy-6)
				p = 0.6*math.Exp(-r*r/60) + 0.4*(0.5+0.5*math.Sin(fx*freq+phase))
			default: // 9: plaid
				p = 0.5 + 0.25*math.Sin(fx*freq+phase) + 0.25*math.Sin(fy*freq*1.3+phase)
			}
			idx := (y*32 + x) * 3
			img.Data[idx+0] = float32(clamp01(baseR + 0.6*p))
			img.Data[idx+1] = float32(clamp01(baseG + 0.55*p))
			img.Data[idx+2] = float32(clamp01(baseB + 0.5*p))
		}
	}
	addNoise(img, rng)
	return img
}

func addNoise(img *tensor.Tensor, rng *rand.Rand) {
	for i := range img.Data {
		v := float64(img.Data[i]) + rng.NormFloat64()*pixelNoise
		img.Data[i] = float32(clamp01(v))
	}
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// Describe summarizes a split for logs.
func Describe(s *Set) string {
	by := s.ByClass()
	return fmt.Sprintf("%s: %d samples, %d classes (first class size %d)", s.Name, len(s.Samples), len(by), len(by[0]))
}
