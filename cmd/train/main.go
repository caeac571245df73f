// Command train fits one of the paper's two CNNs on its synthetic dataset
// and writes the trained model in the canonical model encoding
// (nn.EncodeModel: architecture plus every parameter's float32 bits, the
// same bytes for the same weights) for reuse by the other tools.
// It builds the scenario through the same repro.NewScenario path the
// evaluation and attack pipelines deploy, so a saved model is exactly the
// network those campaigns would train for the same -seed.
//
// Usage:
//
//	train -dataset mnist -out mnist.model [-epochs 2] [-seed 1] [-perclass 120]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"repro"
	"repro/internal/dataset"
	"repro/internal/nn"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("train: ")
	var (
		dsName   = flag.String("dataset", "mnist", "dataset: mnist or cifar")
		out      = flag.String("out", "", "output model file (canonical model encoding, nn.LoadModel reads it); empty = train only")
		epochs   = flag.Int("epochs", 2, "SGD epochs")
		seed     = flag.Int64("seed", 1, "random seed (drives dataset generation, weight init and SGD order)")
		perClass = flag.Int("perclass", 120, "training images per class")
		lr       = flag.Float64("lr", 0, "learning rate (0 = per-dataset default)")
	)
	flag.Parse()

	s, err := repro.NewScenario(repro.ScenarioConfig{
		Dataset:       repro.Dataset(*dsName),
		Seed:          *seed,
		PerClassTrain: *perClass,
		PerClassTest:  *perClass / 2,
		Epochs:        *epochs,
		LR:            *lr,
		TrainProgress: func(ep int, loss, acc float64) {
			fmt.Printf("epoch %d: loss %.4f train-acc %.3f\n", ep, loss, acc)
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(dataset.Describe(s.Train))
	fmt.Printf("%s: %d parameters\n", s.Arch.Name, s.Net.ParamCount())
	fmt.Printf("test accuracy: %.3f\n", s.TestAccuracy)

	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if err := nn.SaveModel(f, s.Arch, s.Net); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("model written to %s\n", *out)
	}
}
