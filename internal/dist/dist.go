// Package dist provides the distributed-training substrate standing in for
// Apache SINGA in the paper's GEMINI stack (Fig. 1): synchronous data-parallel
// SGD with a parameter server. Workers (goroutines, simulating cluster nodes)
// each compute the data-misfit gradient of their minibatch shard; the server
// averages the shards, adds the regularization gradient — this is where the
// GM tool plugs in, exactly one greg evaluation per global step, like the
// paper's server-side integration — and applies the momentum update to the
// single authoritative parameter copy.
//
// Synchronous data parallelism is mathematically equivalent to sequential
// minibatch SGD over the concatenated shard, which the tests verify; the
// package exists so that the regularizer's contract (one stateful GM per
// parameter group, stepped once per global iteration) is exercised under a
// realistic multi-node execution structure.
package dist

import (
	"fmt"
	"sync"

	"gmreg/internal/data"
	"gmreg/internal/models"
	"gmreg/internal/reg"
	"gmreg/internal/tensor"
	"gmreg/internal/train"
)

// Config configures a distributed logistic-regression training run.
type Config struct {
	// Workers is the number of data-parallel workers (≥ 1).
	Workers int
	// SGD is the optimizer configuration; BatchSize is the global batch,
	// split evenly across workers.
	SGD train.SGDConfig
}

// Validate reports the first problem with the configuration, or nil.
func (c Config) Validate() error {
	if c.Workers < 1 {
		return fmt.Errorf("dist: need at least 1 worker, got %d", c.Workers)
	}
	if c.SGD.BatchSize < c.Workers {
		return fmt.Errorf("dist: global batch %d smaller than worker count %d",
			c.SGD.BatchSize, c.Workers)
	}
	if c.SGD.BarzilaiBorwein {
		return fmt.Errorf("dist: Barzilai–Borwein steps are not supported distributed")
	}
	return c.SGD.Validate()
}

// shardGrad is one worker's contribution to a global step.
type shardGrad struct {
	gw   []float64
	gb   float64
	loss float64
	n    int
}

// LogReg trains logistic regression with synchronous data-parallel SGD on
// train.LogRegLoop, the epoch loop train.LogReg runs: the parameter server
// owns the weights and the regularizer; each global step the workers
// compute shard gradients concurrently against a read-only snapshot of the
// weights, and the server averages them before its single update. A
// checkpoint resumes bit-identically at the worker count that wrote it.
func LogReg(task *data.Task, trainRows []int, cfg Config, factory reg.Factory) (*train.LogRegResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	results := make([]shardGrad, cfg.Workers)
	for w := range results {
		results[w].gw = make([]float64, task.NumFeatures())
	}
	gather := func(model *models.LogisticRegression, global []int, agg []float64) (float64, float64) {
		// Scatter: split the global batch across workers. Empty shards
		// (a ragged final batch on many workers) contribute nothing to
		// the gather, so they don't get a goroutine.
		var wg sync.WaitGroup
		for w := range results {
			shard := global[w*len(global)/cfg.Workers : (w+1)*len(global)/cfg.Workers]
			results[w].n = len(shard)
			if len(shard) == 0 {
				continue
			}
			wg.Add(1)
			go func(res *shardGrad, shard []int) {
				defer wg.Done()
				res.loss, res.gb = model.LossGrad(task.X, task.Y, shard, res.gw)
			}(&results[w], shard)
		}
		wg.Wait()
		// Gather: average shard gradients weighted by shard size, so the
		// aggregate equals the sequential batch-mean gradient.
		clear(agg)
		var aggB, loss float64
		total := 0
		for _, res := range results {
			if res.n == 0 {
				continue
			}
			frac := float64(res.n)
			tensor.Axpy(frac, res.gw, agg)
			aggB += frac * res.gb
			loss += frac * res.loss
			total += res.n
		}
		inv := 1 / float64(total)
		tensor.Scale(inv, agg)
		return loss * inv, aggB * inv
	}
	return train.LogRegLoop(task, trainRows, cfg.SGD, factory, cfg.Workers, gather)
}
