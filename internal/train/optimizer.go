package train

import (
	"fmt"

	"gmreg/internal/nn"
	"gmreg/internal/reg"
	"gmreg/internal/tensor"
)

// optimizer is the server side of network SGD: per-group regularizers,
// momentum velocities, and the weight update applied once per global step.
// Every network trainer runs it through the one Loop, so a given
// accumulated gradient produces the same weights bit for bit on every path
// — and stateful regularizers (the GM's E/M steps) see exactly one Grad
// call per global step, never per-shard fragments.
type optimizer struct {
	// params are the parameter groups being optimized, in network order.
	params []*nn.Param
	// regs holds the per-group regularizers, keyed by group name — the
	// handles through which learned GM parameters are read out.
	regs map[string]reg.Regularizer
	// vels are the momentum velocities, one per group in params order.
	// Checkpoint capture copies them out and resume copies a saved state
	// back in; they must not be resized.
	vels [][]float64

	regScale float64
	gregs    map[string][]float64
}

// newOptimizer builds the per-group regularizers from factory (wiring the
// batches-per-epoch count into EpochAware ones) and zeroed velocities.
// regScale is the 1/N weighting of the regularization gradient.
func newOptimizer(params []*nn.Param, factory reg.Factory, batchesPerEpoch int, regScale float64) *optimizer {
	o := &optimizer{
		params:   params,
		regs:     map[string]reg.Regularizer{},
		vels:     make([][]float64, len(params)),
		regScale: regScale,
		gregs:    map[string][]float64{},
	}
	for i, p := range params {
		o.vels[i] = make([]float64, len(p.W))
		if !p.Regularize {
			continue
		}
		r := factory(len(p.W), p.InitStd)
		if ea, ok := r.(EpochAware); ok {
			ea.SetBatchesPerEpoch(batchesPerEpoch)
		}
		o.regs[p.Name] = r
		o.gregs[p.Name] = make([]float64, len(p.W))
	}
	return o
}

// step applies one global SGD+momentum update: each group's accumulated
// data-misfit gradient (already in p.Grad) gets the scaled regularization
// gradient added, then v ← momentum·v − lr·g and w ← w + v.
func (o *optimizer) step(lr, momentum float64) {
	for i, p := range o.params {
		if r, ok := o.regs[p.Name]; ok {
			buf := o.gregs[p.Name]
			r.Grad(p.W, buf)
			tensor.Axpy(o.regScale, buf, p.Grad)
		}
		v := o.vels[i]
		for j := range v {
			v[j] = momentum*v[j] - lr*p.Grad[j]
			p.W[j] += v[j]
		}
	}
}

// gradBank stores per-shard gradient snapshots of a minibatch, one
// flattened buffer per shard (the parameter groups concatenated in network
// order), which the Loop folds back in canonical order. The ascending
// left-fold is part of the numeric contract: every network trainer
// produces bit-identical weights because it folds identical shard
// snapshots in the identical order, regardless of which goroutine (or
// process) computed each snapshot. A shard's buffer is allocated on its
// first write, so a run whose batches are all single-shard steps computed
// in place never pays for the bank.
type gradBank struct {
	offs []int
	bufs [][]float64
}

// newGradBank sizes a bank for up to shards snapshots of params' layout.
func newGradBank(params []*nn.Param, shards int) *gradBank {
	offs := make([]int, len(params)+1)
	for i, p := range params {
		offs[i+1] = offs[i] + len(p.W)
	}
	return &gradBank{offs: offs, bufs: make([][]float64, shards)}
}

// slot returns shard s's buffer, allocating it on first use.
func (g *gradBank) slot(s int) []float64 {
	if g.bufs[s] == nil {
		g.bufs[s] = make([]float64, g.offs[len(g.offs)-1])
	}
	return g.bufs[s]
}

// capture snapshots every group's Grad as shard s's contribution. params
// must share the bank's layout (architectural clones do); distinct shards
// may be captured concurrently.
func (g *gradBank) capture(s int, params []*nn.Param) {
	buf := g.slot(s)
	for i, p := range params {
		copy(buf[g.offs[i]:g.offs[i+1]], p.Grad)
	}
}

// load overwrites shard s's snapshot with an externally computed flattened
// gradient in the capture layout.
func (g *gradBank) load(s int, flat []float64) error {
	if s < 0 || s >= len(g.bufs) {
		return fmt.Errorf("train: shard %d out of range [0, %d)", s, len(g.bufs))
	}
	if n := g.offs[len(g.offs)-1]; len(flat) != n {
		return fmt.Errorf("train: shard gradient has %d values, bank layout needs %d", len(flat), n)
	}
	copy(g.slot(s), flat)
	return nil
}

// reduce overwrites params' Grad with the ascending-order sum of shards
// [0, shards).
func (g *gradBank) reduce(params []*nn.Param, shards int) {
	for i, p := range params {
		for j := range p.Grad {
			p.Grad[j] = 0
		}
		for s := 0; s < shards; s++ {
			tensor.Axpy(1, g.bufs[s][g.offs[i]:g.offs[i+1]], p.Grad)
		}
	}
}
