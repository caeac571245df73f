package nn

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/raceinfo"
)

// trainRun is one training configuration over a synthetic dataset, seeded
// the way repro.NewScenario seeds it: data at Seed, weights at Seed+1,
// minibatch order at Seed+2.
type trainRun struct {
	arch            Arch
	mlp             *Stack // when set, trains this MLP instead of arch
	gen             func(dataset.Config) (*dataset.Set, *dataset.Set, error)
	perClass, batch int
	epochs          int
	lr              float64
}

// digest trains the run and returns the SHA-256 of the trained model's
// canonical encoding followed by every epoch's loss and accuracy bits and
// the test accuracy bits, so any change to a weight or a reported figure
// changes it.
func (r trainRun) digest(t testing.TB) string {
	t.Helper()
	train, test, err := r.gen(dataset.Config{PerClassTrain: r.perClass, PerClassTest: r.perClass / 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	n, err := r.build()
	if err != nil {
		t.Fatal(err)
	}
	var bits []byte
	progress := func(_ int, loss, acc float64) {
		bits = binary.LittleEndian.AppendUint64(bits, math.Float64bits(loss))
		bits = binary.LittleEndian.AppendUint64(bits, math.Float64bits(acc))
	}
	err = Train(n, train.Inputs(), train.Labels(), TrainConfig{
		Epochs: r.epochs, BatchSize: r.batch, LR: r.lr, Momentum: 0.9, Seed: 3, Progress: progress,
	})
	if err != nil {
		t.Fatal(err)
	}
	acc, err := Accuracy(n, test.Inputs(), test.Labels())
	if err != nil {
		t.Fatal(err)
	}
	bits = binary.LittleEndian.AppendUint64(bits, math.Float64bits(acc))
	h := sha256.New()
	if r.mlp == nil {
		h.Write(EncodeModel(r.arch, n))
	} else {
		for _, p := range n.Params() {
			for _, v := range p.Value.Data {
				h.Write(binary.LittleEndian.AppendUint32(nil, math.Float32bits(v)))
			}
		}
	}
	h.Write(bits)
	return hex.EncodeToString(h.Sum(nil))
}

func (r trainRun) build() (*Network, error) {
	rng := rand.New(rand.NewSource(2))
	if r.mlp != nil {
		return r.mlp.Build(rng)
	}
	return Build(r.arch, rng)
}

// TestTrainPinsDefaultScenarios pins the default MNIST and CIFAR scenario
// networks (repro.NewScenario's dataset size, seeds and hyperparameters),
// and a small MLP, bit for bit: the trained weights, every epoch's loss and accuracy, and
// the test accuracy. Training is float32 arithmetic whose result depends
// on the order of every addition, so this fails on any reordering.
func TestTrainPinsDefaultScenarios(t *testing.T) {
	if raceinfo.Enabled {
		// The race detector changes no arithmetic, and the GOMAXPROCS
		// identity test below drives the same concurrent code under it;
		// this test's full-size training would only add minutes.
		t.Skip("full-size training is slow under -race; the bits do not depend on it")
	}
	mlp := mlpStack(28, 28, 1, 10, []int{128, 64})
	for _, tc := range []struct {
		run  trainRun
		want string
	}{
		{trainRun{arch: MNISTArch(), gen: dataset.MNISTLike, perClass: 120, batch: 16, epochs: 2, lr: 0.05}, "38aaa6e73136d53ce749abe06c541ff8986393528fe29c17da1c61e8a118a2d9"},
		{trainRun{arch: CIFARArch(), gen: dataset.CIFARLike, perClass: 120, batch: 16, epochs: 2, lr: 0.01}, "b07b40190974de5164fac4bc909c6e0157f8edb15b2d6eda5920a6499868aa8a"},
		// An MLP, whose first layer (a flatten) has no parameters.
		{trainRun{arch: Arch{Name: "mnist-mlp"}, mlp: &mlp, gen: dataset.MNISTLike, perClass: 30, batch: 16, epochs: 2, lr: 0.05}, "aaa856e5d47ea5e43aeb6c76b0d98cdb577a41e25ea5ec894e7e17c3594bb6fa"},
	} {
		if got := tc.run.digest(t); got != tc.want {
			t.Errorf("%s: trained digest %s, want %s", tc.run.arch.Name, got, tc.want)
		}
	}
}

// TestTrainIdenticalAcrossGOMAXPROCS trains the same reduced network at
// GOMAXPROCS 1, 2 and 4 and requires identical bytes, and no goroutine
// left running afterwards. The batch size leaves a short final batch and
// does not divide evenly over 4 replicas.
func TestTrainIdenticalAcrossGOMAXPROCS(t *testing.T) {
	run := trainRun{arch: MNISTArch(), gen: dataset.MNISTLike, perClass: 9, batch: 7, epochs: 2, lr: 0.05}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var want string
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		before := runtime.NumGoroutine()
		got := run.digest(t)
		if procs == 1 {
			want = got
		} else if got != want {
			t.Fatalf("GOMAXPROCS=%d trained digest %s, GOMAXPROCS=1 gave %s", procs, got, want)
		}
		// Replica goroutines have returned; give the last of them a
		// moment to finish exiting before counting.
		for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > before && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
		if after := runtime.NumGoroutine(); after > before {
			t.Fatalf("GOMAXPROCS=%d: %d goroutines after training, %d before", procs, after, before)
		}
	}
}
