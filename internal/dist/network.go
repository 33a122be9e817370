package dist

import (
	"fmt"

	"gmreg/internal/data"
	"gmreg/internal/nn"
	"gmreg/internal/reg"
	"gmreg/internal/tensor"
	"gmreg/internal/train"
)

// NetConfig configures data-parallel network training.
type NetConfig struct {
	// Replicas is the number of model replicas sharing each global
	// minibatch (≥ 1).
	Replicas int
	// SGD is the optimizer configuration. SGD.ShardSize sets the canonical
	// micro-shard partition every global batch is split into; replica r
	// processes shards r, r+Replicas, r+2·Replicas, … . When 0 it defaults
	// to ceil(BatchSize/Replicas) — one shard per replica, the fastest
	// setting, but then the partition (and so the exact floating-point
	// fold) depends on Replicas. Pin ShardSize explicitly to make runs
	// bit-identical across replica counts and equal to the sequential
	// train.Network with the same ShardSize. SGD.Prefetch assembles the
	// next global minibatch while the replicas compute.
	SGD train.SGDConfig
}

// Validate reports the first problem with the configuration, or nil.
func (c NetConfig) Validate() error {
	if c.Replicas < 1 {
		return fmt.Errorf("dist: need at least 1 replica, got %d", c.Replicas)
	}
	return c.SGD.Validate()
}

// replicaPool schedules replica bodies as jobs on the shared worker pool,
// so R replicas never add goroutines beyond the pool's fixed worker set
// (the budget that keeps total concurrency ≤ GOMAXPROCS even with nested
// kernel parallelism). Package-level so tests can substitute a wider pool
// to force real replica concurrency on small machines.
var replicaPool = tensor.Pool()

// replica is one data-parallel worker: an architectural clone of the
// authoritative network plus positional handles to its parameter groups
// and batch-norm layers for broadcast.
type replica struct {
	net    *nn.Network
	params []*nn.Param
	bns    []*nn.BatchNorm
}

// Network trains a convolutional network with synchronous data-parallel
// SGD, standing in for the paper's SINGA stack: the authoritative copy
// lives on the "server" (the calling goroutine) and runs train.Loop, the
// epoch loop every network trainer shares. Each global step the replicas
// run forward/backward over their micro-shards concurrently; the loop
// folds the per-shard gradients in ascending shard order into the
// authoritative gradient and applies the per-layer GM regularizers and the
// momentum update exactly once.
//
// Because the shard partition is fixed by SGD.ShardSize (not by Replicas),
// per-shard gradients live in per-shard buffers, kernel chunk partitions
// are pure functions of their input sizes, and the fold order is
// canonical, training is bit-identical to train.Network for architectures
// without batch norm, for every replica count, with prefetch on or off.
// Batch-norm networks normalize per shard (ghost batch norm): still fully
// deterministic, and the learned weights match the sequential trainer at
// equal ShardSize — only the running statistics differ (replica-averaged
// here versus one sequential EMA), see DESIGN.md §8. Networks with
// dropout train deterministically but are not replica-count-invariant
// (each replica owns an independent dropout stream).
//
// The result's Net is the authoritative network (the one passed in).
func Network(net *nn.Network, trainSet *data.ImageSet, cfg NetConfig, factory reg.Factory) (*train.NetworkResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	loop, err := train.NewLoop(net, trainSet, cfg.SGD, factory, cfg.Replicas)
	if err != nil {
		return nil, err
	}
	p := &pool{params: net.Params(), bns: net.BatchNorms(), reps: make([]*replica, cfg.Replicas)}
	for r := range p.reps {
		c := net.CloneArchitecture()
		p.reps[r] = &replica{net: c, params: c.Params(), bns: c.BatchNorms()}
	}
	return loop.Run(p)
}

// pool is dist.Network's executor: the replicas plus handles to the
// authoritative parameter groups and batch-norm layers.
type pool struct {
	params []*nn.Param
	bns    []*nn.BatchNorm
	reps   []*replica
}

// Shards broadcasts the authoritative weights and running statistics (so
// the first broadcast carries a restored checkpoint), scatters the shards
// over the replicas — replica r owns shards r, r+R, …, a fixed map, so
// each shard is captured by exactly one replica and the Each barrier
// orders those writes before the loop's fold — and averages the running
// statistics of the replicas that computed back into the authoritative
// network.
func (p *pool) Shards(b *train.Batch) error {
	p.broadcast()
	R := len(p.reps)
	active := min(R, b.Shards)
	replicaPool.Each(active, func(r int) {
		rep := p.reps[r]
		for s := r; s < b.Shards; s += R {
			lo, hi := b.Rows(s)
			b.Capture(s, rep.params, train.ShardGrad(rep.net, b.X.Rows(lo, hi), b.Y[lo:hi], b.N))
		}
	})
	averageStats(p.bns, p.reps[:active])
	return nil
}

// broadcast pushes the authoritative weights and batch-norm running
// statistics to every replica; replicas only ever read them inside a
// global step.
func (p *pool) broadcast() {
	for _, rep := range p.reps {
		for i, q := range p.params {
			copy(rep.params[i].W, q.W)
		}
		for i, b := range p.bns {
			am, av := b.Stats()
			rm, rv := rep.bns[i].Stats()
			copy(rm, am)
			copy(rv, av)
		}
	}
}

// averageStats overwrites the authoritative batch-norm running statistics
// with the mean over the replicas that computed this step (ascending
// replica order, so the fold is deterministic).
func averageStats(authBNs []*nn.BatchNorm, active []*replica) {
	if len(authBNs) == 0 {
		return
	}
	inv := 1 / float64(len(active))
	for i, b := range authBNs {
		am, av := b.Stats()
		for c := range am {
			am[c], av[c] = 0, 0
		}
		for _, rep := range active {
			rm, rv := rep.bns[i].Stats()
			for c := range am {
				am[c] += rm[c]
				av[c] += rv[c]
			}
		}
		for c := range am {
			am[c] *= inv
			av[c] *= inv
		}
	}
}
