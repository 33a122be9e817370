// Healthcare: 30-day hospital readmission prediction — the paper's
// motivating GEMINI use case (§V-A's Hosp-FA dataset).
//
// Medical features split into a few predictive ones and many noisy ones; the
// paper argues a fixed prior cannot serve both, while the GM learns a
// high-precision component that suppresses the noise and a low-precision
// component that leaves the predictive weights alone. This example trains
// logistic regression under each regularizer on the synthetic Hosp-FA
// substitute and compares held-out accuracy.
//
// Run with: go run ./examples/healthcare
package main

import (
	"fmt"

	"gmreg"
	"gmreg/internal/core"
	"gmreg/internal/data"
	"gmreg/internal/tensor"
	"gmreg/internal/train"
)

func main() {
	task := data.GenerateHospFA(data.DefaultHospFA(), 7)
	fmt.Printf("Hosp-FA: %d patient cases × %d medical features\n\n",
		task.NumSamples(), task.NumFeatures())

	rng := tensor.NewRNG(1)
	trainRows, testRows := data.StratifiedSplit(task.Y, 0.8, rng)
	cfg := train.SGDConfig{
		LearningRate: 0.5,
		Momentum:     0.9,
		Epochs:       60,
		BatchSize:    32,
		Seed:         3,
	}

	runs := []struct {
		name    string
		factory gmreg.Factory
	}{
		{"no regularization", gmreg.NoReg()},
		{"L1 Reg (β=1)", gmreg.L1(1)},
		{"L2 Reg (β=1)", gmreg.L2(1)},
		{"Elastic-net Reg", gmreg.ElasticNet(1, 0.5)},
		{"Huber Reg", gmreg.Huber(1, 0.1)},
		{"GM Reg (adaptive)", gmreg.New()},
	}
	var gm *core.GM
	for _, r := range runs {
		res, err := train.LogReg(task, trainRows, cfg, r.factory)
		if err != nil {
			panic(err)
		}
		acc := res.Model.Accuracy(task.X, task.Y, testRows)
		fmt.Printf("%-22s test accuracy %.3f\n", r.name, acc)
		if g, ok := res.Regularizer.(*core.GM); ok {
			gm = g
		}
	}

	fmt.Println("\nlearned GM over the readmission model's weights:")
	fmt.Printf("π = %v\n", gm.Pi())
	fmt.Printf("λ = %v\n", gm.Lambda())
	fmt.Println("\ninterpretation: the high-precision component models the many")
	fmt.Println("noisy medical features (weights pinned near zero); the")
	fmt.Println("low-precision component leaves the predictive features'")
	fmt.Println("weights free — per-feature regularization strength, learned,")
	fmt.Println("not tuned.")
	if xs := gm.Crossovers(); len(xs) > 0 {
		fmt.Printf("strong→weak regularization crossover at |w| ≈ %.3f\n", xs[0])
	}
}
