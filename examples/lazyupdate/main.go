// Lazy update: the cost/quality trade of Algorithm 2 (§V-F).
//
// The E-step and M-step of the GM are O(K·M) per iteration — the bottleneck
// the paper identifies. This example trains the same model with full updates
// (Im=Ig=1) and with the paper's lazy schedule (Im=Ig=50 after E=2 warm-up
// epochs) and shows that the learned mixture and the model accuracy match
// while the regularization work drops by the interval factor.
//
// Run with: go run ./examples/lazyupdate
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
	task := data.GenerateHospFA(data.DefaultHospFA(), 3)
	rng := tensor.NewRNG(1)
	trainRows, testRows := data.StratifiedSplit(task.Y, 0.8, rng)
	cfg := train.SGDConfig{
		LearningRate: 0.5,
		Momentum:     0.9,
		Epochs:       60,
		BatchSize:    32,
		Seed:         9,
	}

	type outcome struct {
		acc            float64
		eSteps, mSteps int
		pi, lambda     []float64
		seconds        float64
	}
	run := func(e, im, ig int) outcome {
		res, err := train.LogReg(task, trainRows, cfg,
			gmreg.New(gmreg.WithConfig(func(c *gmreg.Config) {
				c.WarmupEpochs, c.RegInterval, c.GMInterval = e, im, ig
			})))
		if err != nil {
			panic(err)
		}
		g := res.Regularizer.(*core.GM)
		es, ms := g.Steps()
		return outcome{
			acc:     res.Model.Accuracy(task.X, task.Y, testRows),
			eSteps:  es,
			mSteps:  ms,
			pi:      g.Pi(),
			lambda:  g.Lambda(),
			seconds: res.History.TotalTime().Seconds(),
		}
	}

	full := run(2, 1, 1)
	lazy := run(2, 50, 50)

	fmt.Println("setting            accuracy  E-steps  M-steps  time")
	fmt.Printf("full   (Im=Ig=1)   %.3f     %6d   %6d   %.2fs\n",
		full.acc, full.eSteps, full.mSteps, full.seconds)
	fmt.Printf("lazy   (Im=Ig=50)  %.3f     %6d   %6d   %.2fs\n",
		lazy.acc, lazy.eSteps, lazy.mSteps, lazy.seconds)
	fmt.Printf("\nGM work reduced %0.f× with matching accuracy.\n",
		float64(full.eSteps)/float64(lazy.eSteps))
	fmt.Printf("full mixture: π=%v λ=%v\n", rounded(full.pi), rounded(full.lambda))
	fmt.Printf("lazy mixture: π=%v λ=%v\n", rounded(lazy.pi), rounded(lazy.lambda))
}

func rounded(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, v := range xs {
		out[i] = float64(int(v*1000+0.5)) / 1000
	}
	return out
}
