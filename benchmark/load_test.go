package main

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"gmreg/internal/tensor"
)

func TestOpenLoopCountsUnsentAndFailed(t *testing.T) {
	// One worker that needs 20 ms per request cannot keep up with 500 req/s
	// for 200 ms: roughly (200 ms + 100 ms grace) / 20 ms requests get sent,
	// the rest of the ~100 arrivals are abandoned as unsent. Every third
	// request fails.
	var calls atomic.Int64
	g := &openLoop{workers: 1, grace: 100 * time.Millisecond, send: func(_, i int, _ int64) error {
		calls.Add(1)
		time.Sleep(20 * time.Millisecond)
		if i%3 == 0 {
			return errors.New("refused")
		}
		return nil
	}}
	r := g.run(500, 200*time.Millisecond, nil, tensor.NewRNG(1))
	arrivals := len(r.late)
	if r.sent+r.unsent != arrivals {
		t.Fatalf("sent %d + unsent %d != %d arrivals", r.sent, r.unsent, arrivals)
	}
	if r.sent != int(calls.Load()) || r.sent < 5 || r.sent > 20 {
		t.Errorf("sent %d (send called %d times), want about 15", r.sent, calls.Load())
	}
	if r.unsent < arrivals/2 {
		t.Errorf("only %d of %d arrivals unsent", r.unsent, arrivals)
	}
	if r.failed == 0 || len(r.lat) != r.sent-r.failed {
		t.Errorf("failed %d, %d latencies for %d sent", r.failed, len(r.lat), r.sent)
	}
	// Queued requests wait behind slow ones, and the wait counts.
	if worst := sortedCopy(r.lat)[len(r.lat)-1]; worst < 100 {
		t.Errorf("largest latency %.1f ms does not include the queueing delay", worst)
	}
}

func TestOpenLoopStopEndsSchedule(t *testing.T) {
	g := &openLoop{workers: 2, grace: time.Second, send: func(int, int, int64) error { return nil }}
	stop := make(chan struct{})
	time.AfterFunc(50*time.Millisecond, func() { close(stop) })
	t0 := time.Now()
	r := g.run(200, 10*time.Second, stop, tensor.NewRNG(2))
	if took := time.Since(t0); took > 5*time.Second {
		t.Fatalf("run took %v after stop", took)
	}
	if r.unsent != 0 || r.failed != 0 || r.sent == 0 {
		t.Errorf("sent %d failed %d unsent %d", r.sent, r.failed, r.unsent)
	}
}

func TestMaxQPSAtSLO(t *testing.T) {
	lat := func(ms float64) []float64 {
		xs := make([]float64, 100)
		for i := range xs {
			xs[i] = ms
		}
		return xs
	}
	rates := []int{100, 200, 400, 800}
	rungs := []loadResult{
		{lat: lat(2)},
		{lat: lat(3)},
		{lat: lat(4), unsent: 1}, // an unanswered request misses the limit
		{lat: lat(50)},
	}
	if got := maxQPSAtSLO(rates, rungs); got != 200 {
		t.Errorf("max qps = %d, want 200", got)
	}
	rungs[2].unsent = 0
	rungs[2].failed = 1
	if got := maxQPSAtSLO(rates, rungs); got != 200 {
		t.Errorf("with a failure: max qps = %d, want 200", got)
	}
	rungs[2].failed = 0
	if got := maxQPSAtSLO(rates, rungs); got != 400 {
		t.Errorf("max qps = %d, want 400", got)
	}
	rungs[0].lat = lat(1)[:5] // too few samples to judge a tail
	if got := maxQPSAtSLO(rates[:1], rungs[:1]); got != 0 {
		t.Errorf("max qps from 5 samples = %d, want 0", got)
	}
}

func TestSwapLags(t *testing.T) {
	t0 := time.Now()
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	pubs := []timedEvent{{at: at(0), seq: 1}, {at: at(50), seq: 2}, {at: at(120), seq: 3}, {at: at(300), seq: 4}, {at: at(400), seq: 5}}
	swaps := []timedEvent{
		{at: at(100), seq: 2}, // installs publishes 1 and 2
		{at: at(119), seq: 3}, // reloaded just before the trainer emitted publish 3
		{at: at(500), seq: 4},
	}
	lags, unpaired := swapLags(pubs, swaps)
	want := []time.Duration{100 * time.Millisecond, 50 * time.Millisecond, 0, 200 * time.Millisecond}
	if unpaired != 1 || len(lags) != len(want) {
		t.Fatalf("lags %v unpaired %d, want %v and 1 unpaired", lags, unpaired, want)
	}
	for i := range want {
		if lags[i] != want[i] {
			t.Errorf("lag %d = %v, want %v", i, lags[i], want[i])
		}
	}
}
