package train

import (
	"fmt"
	"time"

	"gmreg/internal/data"
	"gmreg/internal/nn"
	"gmreg/internal/reg"
	"gmreg/internal/tensor"
)

// epochLoop runs epochs [first, cfg.Epochs) of a synchronous trainer. body
// trains one epoch and returns its mean loss and the learning rate to
// report; epochLoop records the history, emits the epoch's telemetry, runs
// the checkpoint schedule and the AfterEpoch callback, and writes the final
// checkpoint when every epoch ran. It is the one epoch loop of the
// logistic-regression and network trainers alike.
func epochLoop(cfg SGDConfig, first int, hist *History, tel *telemetry, regs map[string]reg.Regularizer,
	capture func() *State, body func(epoch int) (loss, lr float64, err error)) error {
	ckpt := newCkptRunner(cfg.Ckpt, cfg.Sink)
	start := time.Now()
	completed := first
	for epoch := first; epoch < cfg.Epochs; epoch++ {
		loss, lr, err := body(epoch)
		if err != nil {
			return err
		}
		hist.EpochLoss = append(hist.EpochLoss, loss)
		hist.EpochTime = append(hist.EpochTime, time.Since(start))
		tel.epoch(epoch, loss, lr, time.Since(start), regs)
		completed = epoch + 1
		if err := ckpt.afterEpoch(completed, capture); err != nil {
			return err
		}
		if cfg.AfterEpoch != nil && !cfg.AfterEpoch(epoch, loss) {
			break
		}
	}
	if completed < cfg.Epochs {
		return nil
	}
	return ckpt.finish(completed, capture)
}

// EffectiveShardSize is the micro-shard size a network trainer of the given
// data-parallel width splits each minibatch of batch rows into: an explicit
// shard size wins, otherwise ceil(batch/width), which is one shard per
// replica and the whole batch for the sequential trainer (width ≤ 1). The
// result never exceeds the batch.
func EffectiveShardSize(batch, shard, width int) int {
	if shard <= 0 {
		width = max(width, 1)
		shard = (batch + width - 1) / width
	}
	return min(shard, batch)
}

// ShardGrad runs one micro-shard's forward and backward pass on net,
// leaving the shard's data-misfit gradient in net's parameter Grads, and
// returns the shard's loss. n is the row count of the whole minibatch: loss
// and gradient rows are scaled by 1/n, so the ascending sum over a batch's
// shards is the batch mean. Every network trainer, the distnet trainer
// process included, computes its shards with this one function.
func ShardGrad(net *nn.Network, x *tensor.Tensor, y []int, n int) float64 {
	logits := net.Forward(x, true)
	loss, dl := nn.SoftmaxCrossEntropyScaled(logits, y, n)
	net.ZeroGrads()
	net.Backward(dl)
	return loss
}

// Batch is one global minibatch as a ShardExecutor sees it: its N rows
// are split into Shards micro-shards, shard s being rows Rows(s) of X and
// Y, and each shard's result is recorded with Capture or Load.
type Batch struct {
	// Epoch is the 0-based epoch the batch belongs to.
	Epoch  int
	X      *tensor.Tensor
	Y      []int
	N      int
	Shards int

	size    int // micro-shard size
	bank    *gradBank
	losses  []float64
	inPlace bool
}

// Rows returns shard s's row range [lo, hi).
func (b *Batch) Rows(s int) (lo, hi int) {
	lo = s * b.size
	return lo, min(lo+b.size, b.N)
}

// Capture records shard s: the gradient now in params, the parameter
// groups of the network (or architectural clone) that computed it, and its
// loss. Distinct shards may be captured concurrently.
func (b *Batch) Capture(s int, params []*nn.Param, loss float64) {
	b.bank.capture(s, params)
	b.losses[s] = loss
}

// Load records shard s from a flattened gradient in Capture's layout (the
// parameter groups concatenated in network order), the form in which a
// distnet trainer sends it.
func (b *Batch) Load(s int, flat []float64, loss float64) error {
	if err := b.bank.load(s, flat); err != nil {
		return err
	}
	b.losses[s] = loss
	return nil
}

// InPlace records a single-shard batch computed on the loop's own network,
// whose parameter Grads already hold the gradient; the loop skips the fold.
func (b *Batch) InPlace(loss float64) {
	b.losses[0] = loss
	b.inPlace = true
}

// A ShardExecutor computes the data-misfit gradient of each global
// minibatch for a Loop — the only part of a training step in which the
// sequential, in-process data-parallel and multi-process trainers differ.
type ShardExecutor interface {
	// Shards computes every shard s < b.Shards with ShardGrad and records
	// it with b.Capture or b.Load; the loop then folds the shards in
	// ascending order. An executor that ran a single-shard batch on the
	// loop's own network may call b.InPlace instead.
	Shards(b *Batch) error
}

// Loop is the synchronous epoch loop of the network trainers: train.Network
// (sequential), dist.Network (an in-process replica pool) and
// distnet.Coordinate (trainer processes over TCP) differ only in their
// ShardExecutor. The loop owns the rest of a run: the batch clamp and the
// shard partition, the optimizer (per-group regularizers, one Grad per
// group per global step, and momentum), checkpoint restore and capture,
// the batch stream with its per-shard gradient bank, the ascending fold,
// and the per-epoch history, telemetry, checkpoints and AfterEpoch
// callback.
type Loop struct {
	// OnFold, when set, receives the duration of every step's fold.
	OnFold func(time.Duration)

	net      *nn.Network
	set      *data.ImageSet
	cfg      SGDConfig
	width    int
	batch    int // minibatch size, clamped to the training set
	nBatches int // batches per epoch
	shard    int // effective micro-shard size
	first    int // first epoch to run: the restored epoch count on resume
	opt      *optimizer
	hist     *History
}

// NewLoop prepares a run of the epoch loop on net: it validates cfg, builds
// the optimizer (calling factory once per regularized parameter group) and
// restores cfg.Ckpt.Resume when set. Restoring here, before an executor
// acquires replicas or connections, makes a bad resume fail fast. width is
// the data-parallel width — 0 for the sequential trainer, otherwise the
// replica or trainer count — which defaults the shard size
// (EffectiveShardSize) and is reported in telemetry. The regularization
// gradient is scaled by 1/N like in LogReg.
func NewLoop(net *nn.Network, set *data.ImageSet, cfg SGDConfig, factory reg.Factory, width int) (*Loop, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.BarzilaiBorwein {
		return nil, fmt.Errorf("train: Barzilai–Borwein steps are supported for LogReg only")
	}
	if set.N == 0 {
		return nil, fmt.Errorf("train: empty training set")
	}
	batch := min(cfg.BatchSize, set.N)
	l := &Loop{
		net:      net,
		set:      set,
		cfg:      cfg,
		width:    width,
		batch:    batch,
		nBatches: (set.N + batch - 1) / batch,
		shard:    EffectiveShardSize(batch, cfg.ShardSize, width),
		hist:     &History{},
	}
	l.opt = newOptimizer(net.Params(), factory, l.nBatches, 1/float64(set.N))
	if cfg.Ckpt != nil && cfg.Ckpt.Resume != nil {
		if err := l.restore(cfg.Ckpt.Resume); err != nil {
			return nil, err
		}
		l.first = cfg.Ckpt.Resume.Epoch
	}
	return l, nil
}

// Run trains until cfg.Epochs are complete or AfterEpoch stops it, with
// exec computing every global batch's shard gradients. The result's Net is
// the network the loop was built on.
func (l *Loop) Run(exec ShardExecutor) (*NetworkResult, error) {
	cfg := l.cfg
	batches := data.NewBatches(l.set, data.StreamConfig{
		Batch:       l.batch,
		Epochs:      cfg.Epochs,
		Seed:        cfg.Seed,
		Augment:     cfg.Augment,
		Prefetch:    cfg.Prefetch,
		SkipBatches: l.first * l.nBatches,
	})
	defer batches.Close()

	tel := newTelemetry(cfg.Sink, l.width)
	maxShards := (l.batch + l.shard - 1) / l.shard
	b := &Batch{size: l.shard, bank: newGradBank(l.opt.params, maxShards), losses: make([]float64, maxShards)}
	err := epochLoop(cfg, l.first, l.hist, tel, l.opt.regs, l.Capture, func(epoch int) (float64, float64, error) {
		lr := cfg.lrAt(epoch)
		var epochLoss float64
		for range l.nBatches {
			b.X, b.Y = batches.Next()
			b.Epoch, b.N = epoch, b.X.Shape[0]
			b.Shards, b.inPlace = (b.N+l.shard-1)/l.shard, false
			if err := exec.Shards(b); err != nil {
				return 0, 0, err
			}
			if !b.inPlace {
				l.fold(b, tel)
			}
			var batchLoss float64
			for _, loss := range b.losses[:b.Shards] {
				batchLoss += loss
			}
			epochLoss += batchLoss
			// Server-side regularizers + momentum, once per global step.
			l.opt.step(lr, cfg.Momentum)
		}
		return epochLoss / float64(l.nBatches), lr, nil
	})
	if err != nil {
		return nil, err
	}
	return &NetworkResult{Net: l.net, Regs: l.opt.regs, History: l.hist}, nil
}

// fold overwrites the network's gradients with the ascending sum of the
// batch's shard gradients and reports how long that took.
func (l *Loop) fold(b *Batch, tel *telemetry) {
	t0 := time.Now()
	b.bank.reduce(l.opt.params, b.Shards)
	d := time.Since(t0)
	tel.addFold(d)
	if l.OnFold != nil {
		l.OnFold(d)
	}
}
