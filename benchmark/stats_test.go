package main

import (
	"math"
	"testing"
	"time"
)

func TestMedianAndQuartilesMatchPython(t *testing.T) {
	// Reference values from Python's statistics.median and
	// statistics.quantiles(xs, n=4).
	cases := []struct {
		xs          []float64
		med, q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 5.5, 2.75, 8.25},
		{[]float64{3, 1, 2}, 2, 1, 3},
		{[]float64{10, 20}, 15, 7.5, 22.5},
		{[]float64{5, 1, 4, 2, 3}, 3, 1.5, 4.5},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.xs)
		if got := median(c.xs); got != c.med || q1 != c.q1 || q3 != c.q3 {
			t.Errorf("%v: median %v quartiles %v %v, want %v %v %v", c.xs, got, q1, q3, c.med, c.q1, c.q3)
		}
	}
	if s := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(s-5.5/5.5) > 1e-12 {
		t.Errorf("spread = %v, want 1", s)
	}
}

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending, so tail must sort
		}
		return xs
	}
	if _, _, ok := tail(seq(10)); ok {
		t.Error("10 samples cannot support a tail percentile")
	}
	cases := []struct {
		n        int
		v, pct   float64
		beyondOK int
	}{
		{11, 1, 100.0 / 11, 10}, // the smallest value, ten beyond it
		{100, 90, 90, 10},       // p90
		{1000, 990, 99, 10},     // exactly p99
		{2000, 1980, 99, 20},    // capped at p99
		{250, 240, 96, 10},      // p96
	}
	for _, c := range cases {
		v, pct, ok := tail(seq(c.n))
		if !ok || v != c.v || math.Abs(pct-c.pct) > 1e-9 {
			t.Errorf("n=%d: tail %v at p%v (ok %v), want %v at p%v", c.n, v, pct, ok, c.v, c.pct)
		}
		if beyond := c.n - int(v); beyond != c.beyondOK {
			t.Errorf("n=%d: %d samples beyond the tail, want %d", c.n, beyond, c.beyondOK)
		}
	}
}

func TestResidualAndOverhead(t *testing.T) {
	if got := residualPct(10*time.Second, 9*time.Second); got != 10 {
		t.Errorf("residual = %v, want 10", got)
	}
	if got := residualPct(0, time.Second); got != 0 {
		t.Errorf("residual of empty wall = %v, want 0", got)
	}
	if got := overheadPct(100, 103); math.Abs(got-3) > 1e-12 {
		t.Errorf("overhead = %v, want 3", got)
	}
}

func TestReportLayersAddsUp(t *testing.T) {
	// Two steps of 10 ms: layers take 6 ms, the regularizer 3 ms, so the
	// trainer's own work is 1 ms per step; the unit ran 25 ms in all.
	tr := newTracer()
	t0 := time.Now()
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	for s := 0; s < 2; s++ {
		base := 10 * s
		tr.record(tr.newID(), 0, "train.step", at(base), at(base+10))
		tr.record(tr.newID(), 0, "nn.fwd.conv1", at(base), at(base+2))
		tr.record(tr.newID(), 0, "nn.bwd.conv1", at(base+2), at(base+6))
		tr.record(tr.newID(), 0, "core.grad", at(base+6), at(base+9))
		tr.record(tr.newID(), 0, "core.estep", at(base+6), at(base+8))
	}
	rc := &runCtx{metrics: map[string]float64{}}
	p := &trainPass{clock: &stepClock{}, walls: []time.Duration{25 * time.Millisecond}}
	p.reportLayers(rc, tr, []string{"nn.fwd.conv1", "nn.bwd.conv1"})
	want := map[string]float64{
		"train.step_ms": 10, "nn.fwd.conv1_ms": 2, "nn.bwd.conv1_ms": 4, "core.grad_ms": 3,
		"core.estep_ms": 2, "train.other_ms": 1, "core.estep_calls": 1, "core.skip_ratio": 0,
		"trace.residual_pct": 20,
	}
	for name, w := range want {
		if got := rc.metrics[name]; math.Abs(got-w) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got, w)
		}
	}
}
