package train

import (
	"gmreg/internal/data"
	"gmreg/internal/nn"
	"gmreg/internal/reg"
)

// NetworkResult bundles a trained network with the per-layer regularizers
// (keyed by parameter-group name, e.g. "conv1/weight") — the handles through
// which Tables IV and V read the learned GM parameters — and the history.
type NetworkResult struct {
	Net     *nn.Network
	Regs    map[string]reg.Regularizer
	History *History
}

// Network trains a convolutional network on an image set with SGD+momentum.
// Every regularized parameter group (layer weights, not biases or batch-norm
// scales) gets its own regularizer from factory, mirroring the paper's
// per-layer GMs that all share one hyper-parameter recipe. The
// regularization gradient is scaled by 1/N like in LogReg.
//
// With cfg.ShardSize set, each minibatch is processed as a sequence of
// fixed-size micro-shards — independent forward/backward passes whose
// gradients are folded in ascending shard order before the single
// optimizer step — which is the same canonical partition dist.Network
// distributes across replicas, so the two trainers agree bit for bit for a
// given (seed, batch, shard) configuration on architectures without batch
// norm.
func Network(net *nn.Network, trainSet *data.ImageSet, cfg SGDConfig, factory reg.Factory) (*NetworkResult, error) {
	l, err := NewLoop(net, trainSet, cfg, factory, 0)
	if err != nil {
		return nil, err
	}
	return l.Run(sequential{net: net, params: net.Params()})
}

// sequential is train.Network's executor: every shard runs on the trained
// network itself, one after another.
type sequential struct {
	net    *nn.Network
	params []*nn.Param
}

func (e sequential) Shards(b *Batch) error {
	if b.Shards == 1 {
		// Whole batch as one shard: gradients accumulate directly in
		// p.Grad, no snapshot round-trip.
		b.InPlace(ShardGrad(e.net, b.X, b.Y, b.N))
		return nil
	}
	for s := range b.Shards {
		lo, hi := b.Rows(s)
		b.Capture(s, e.params, ShardGrad(e.net, b.X.Rows(lo, hi), b.Y[lo:hi], b.N))
	}
	return nil
}

// EvalNetwork returns classification accuracy of the network on an image set
// (inference mode), evaluated in batches.
func EvalNetwork(net *nn.Network, set *data.ImageSet, batchSize int) float64 {
	if set.N == 0 {
		return 0
	}
	if batchSize < 1 {
		batchSize = 64
	}
	var correct int
	idx := make([]int, 0, batchSize)
	for lo := 0; lo < set.N; lo += batchSize {
		hi := lo + batchSize
		if hi > set.N {
			hi = set.N
		}
		idx = idx[:0]
		for i := lo; i < hi; i++ {
			idx = append(idx, i)
		}
		x, y := set.Batch(idx)
		pred := nn.Predict(net.Forward(x, false))
		for i, p := range pred {
			if p == y[i] {
				correct++
			}
		}
	}
	return float64(correct) / float64(set.N)
}
