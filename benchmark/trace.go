package main

import (
	"encoding/json"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"gmreg/internal/core"
	"gmreg/internal/nn"
	"gmreg/internal/reg"
	"gmreg/internal/tensor"
	"gmreg/internal/train"
)

// The traced pass measures each layer from outside: every span is recorded
// by a benchmark-owned wrapper around a public seam (an nn.Layer, a
// reg.Factory plus core.Hooks, an http.Handler, or a direct timed call), so
// the program under test runs unchanged.

// maxSpans bounds the spans kept for the trace file; aggregates cover every
// span regardless.
const maxSpans = 50_000

// span is one timed call at a layer boundary. Parent is the ID of the span
// that caused it (0 for none); spans of one step or request share it.
type span struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent,omitempty"`
	Name    string `json:"name"`
	StartUS int64  `json:"start_us"`
	EndUS   int64  `json:"end_us"`
}

// tracer keeps spans in memory and aggregates their durations by name.
// Safe for concurrent use.
type tracer struct {
	origin  time.Time
	ids     atomic.Int64
	mu      sync.Mutex
	spans   []span
	dropped int
	durs    map[string][]time.Duration
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), durs: map[string][]time.Duration{}}
}

// newID reserves a span ID, so children can name a parent that has not
// ended yet.
func (t *tracer) newID() int64 { return t.ids.Add(1) }

// record stores the finished span id.
func (t *tracer) record(id, parent int64, name string, start, end time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.durs[name] = append(t.durs[name], end.Sub(start))
	if len(t.spans) >= maxSpans {
		t.dropped++
		return
	}
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Name: name,
		StartUS: start.Sub(t.origin).Microseconds(),
		EndUS:   end.Sub(t.origin).Microseconds(),
	})
}

// durations returns a copy of every recorded duration of name.
func (t *tracer) durations(name string) []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]time.Duration(nil), t.durs[name]...)
}

// total sums the durations of name.
func (t *tracer) total(name string) time.Duration { return sum(t.durations(name)) }

// write saves the spans as JSON.
func (t *tracer) write(path, workload string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Dropped  int    `json:"dropped_spans"`
		Spans    []span `json:"spans"`
	}{workload, t.dropped, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// stepClock times SGD steps through the regularizer seam: the trainers call
// every regularized group's Grad once per step, in group order, so the end
// of the last group's Grad ends the step. A step's span runs from the end of
// the previous step (or the unit start), so consecutive steps tile the loop
// and include batch assembly. With a tracer it also records the core.grad
// spans and, through core.Hooks, the E- and M-step spans inside them.
// Training runs on one goroutine, so the clock is not synchronized.
type stepClock struct {
	tr     *tracer // nil in untraced passes
	groups int     // regularized groups of the current unit
	seen   int     // groups whose Grad ran in the current step
	last   time.Time
	stepID int64
	gradID int64
	steps  []time.Duration
	merges int
}

// start begins a unit; call it right before the trainer.
func (c *stepClock) start() {
	c.groups, c.seen = 0, 0
	c.last = time.Now()
	if c.tr != nil {
		c.stepID = c.tr.newID()
	}
}

// factory wraps inner so that every regularizer it builds reports to c.
func (c *stepClock) factory(inner reg.Factory) reg.Factory {
	return func(m int, initStd float64) reg.Regularizer {
		r := inner(m, initStd)
		c.groups++
		if h, ok := r.(interface{ SetHooks(*core.Hooks) }); ok && c.tr != nil {
			h.SetHooks(&core.Hooks{
				EStep: func(d time.Duration) { c.hook("core.estep", d) },
				MStep: func(d time.Duration) { c.hook("core.mstep", d) },
				Merge: func(int, int, int) { c.merges++ },
			})
		}
		return &clockedReg{Regularizer: r, clock: c}
	}
}

func (c *stepClock) hook(name string, d time.Duration) {
	end := time.Now()
	c.tr.record(c.tr.newID(), c.gradID, name, end.Add(-d), end)
}

// clockedReg forwards to the wrapped regularizer, including the
// batches-per-epoch wiring the trainers do through train.EpochAware, so the
// lazy-update schedule and every result stay bit-identical.
type clockedReg struct {
	reg.Regularizer
	clock *stepClock
}

func (r *clockedReg) SetBatchesPerEpoch(b int) {
	if ea, ok := r.Regularizer.(train.EpochAware); ok {
		ea.SetBatchesPerEpoch(b)
	}
}

func (r *clockedReg) Grad(w, dst []float64) {
	c := r.clock
	if c.tr == nil {
		r.Regularizer.Grad(w, dst)
	} else {
		c.gradID = c.tr.newID()
		t0 := time.Now()
		r.Regularizer.Grad(w, dst)
		c.tr.record(c.gradID, c.stepID, "core.grad", t0, time.Now())
	}
	c.seen++
	if c.seen < c.groups {
		return
	}
	now := time.Now()
	c.steps = append(c.steps, now.Sub(c.last))
	if c.tr != nil {
		c.tr.record(c.stepID, 0, "train.step", c.last, now)
		c.stepID = c.tr.newID()
	}
	c.last, c.seen = now, 0
}

// tracedLayer times one network layer's Forward and Backward as children of
// the current step.
type tracedLayer struct {
	nn.Layer
	clock    *stepClock
	fwd, bwd string // span names
}

func (l *tracedLayer) Forward(x *tensor.Tensor, training bool) *tensor.Tensor {
	t0 := time.Now()
	y := l.Layer.Forward(x, training)
	l.clock.tr.record(l.clock.tr.newID(), l.clock.stepID, l.fwd, t0, time.Now())
	return y
}

func (l *tracedLayer) Backward(dy *tensor.Tensor) *tensor.Tensor {
	t0 := time.Now()
	dx := l.Layer.Backward(dy)
	l.clock.tr.record(l.clock.tr.newID(), l.clock.stepID, l.bwd, t0, time.Now())
	return dx
}

// traceLayers wraps every top-level layer of net.
func traceLayers(net *nn.Network, c *stepClock) {
	for i, l := range net.Layers {
		net.Layers[i] = &tracedLayer{Layer: l, clock: c, fwd: "nn.fwd." + l.Name(), bwd: "nn.bwd." + l.Name()}
	}
}
