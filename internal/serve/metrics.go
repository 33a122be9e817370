package serve

import (
	"gmreg/internal/obs"
	"gmreg/internal/tensor"
)

// Serving metrics. Every family name is listed in the DESIGN.md §10 metric
// registry. Per-model counters are scrape-time functions over the atomic
// counters the predictor already keeps, so enabling /metrics adds nothing to
// the request path; only the two histograms (request latency, coalesced
// batch size) write at request time, and those are striped obs cells.

// batchSizeBuckets covers coalesced batch sizes for any realistic MaxBatch
// (powers of two up to 256).
var batchSizeBuckets = obs.ExpBuckets(1, 2, 9)

// registerProcessMetrics exports the process-wide tensor arena and worker
// pool counters plus the server-level admission series. Re-registration
// (several servers sharing obs.Default, tests) replaces the callbacks.
func registerProcessMetrics(r *obs.Registry, s *Server) {
	arena := &tensor.DefaultArena
	r.CounterFunc("gmreg_arena_gets_total",
		"Tensor-arena buffer requests.",
		func() float64 { return float64(arena.Stats().Gets) })
	r.CounterFunc("gmreg_arena_misses_total",
		"Arena requests that allocated a fresh backing slice.",
		func() float64 { return float64(arena.Stats().Misses) })
	r.CounterFunc("gmreg_arena_oversized_total",
		"Arena requests beyond the largest size class.",
		func() float64 { return float64(arena.Stats().Oversized) })
	r.CounterFunc("gmreg_arena_puts_total",
		"Buffers returned to the arena.",
		func() float64 { return float64(arena.Stats().Puts) })

	pool := tensor.Pool()
	r.CounterFunc("gmreg_pool_jobs_total",
		"Worker-pool jobs that fanned out (serial runs excluded).",
		func() float64 { return float64(pool.Stats().Jobs) })
	r.CounterFunc("gmreg_pool_chunks_total",
		"Chunks executed across all fanned-out jobs.",
		func() float64 { return float64(pool.Stats().Chunks) })
	r.GaugeFunc("gmreg_pool_queue_depth",
		"Worker-pool jobs posted but not yet picked up.",
		func() float64 { return float64(pool.QueueDepth()) })

	r.GaugeFunc("gmreg_serve_inflight",
		"Predict requests currently inside the load-shedding middleware.",
		func() float64 { return float64(len(s.sem)) })
	r.CounterFunc("gmreg_serve_http_shed_total",
		"Requests answered 503 by the inflight limiter before reading the body.",
		func() float64 { return float64(s.httpShed.Load()) })
	r.GaugeFunc("gmreg_serve_models",
		"Models with a live predictor.",
		func() float64 {
			s.mu.RLock()
			defer s.mu.RUnlock()
			return float64(len(s.preds))
		})

	// Wire-codec pool health (DESIGN.md §14): in steady state gets climbs
	// while misses and alloc bytes stay flat — the zero-allocation
	// signature. The wire pool is process-wide, like the arena above.
	r.CounterFunc("gmreg_serve_wire_gets_total",
		"Pooled wire-buffer checkouts on the /predict hot path.",
		func() float64 { return float64(wireGets.Load()) })
	r.CounterFunc("gmreg_serve_wire_misses_total",
		"Wire-buffer checkouts that built a fresh buffer set.",
		func() float64 { return float64(wireMisses.Load()) })
	r.CounterFunc("gmreg_serve_wire_fallback_total",
		"Predict bodies outside the canonical shape, decoded by encoding/json.",
		func() float64 { return float64(wireFallbacks.Load()) })
	r.CounterFunc("gmreg_serve_alloc_bytes_total",
		"Bytes of backing-array growth across recycled wire buffers.",
		func() float64 { return float64(wireAllocBytes.Load()) })
	r.CounterFunc("gmreg_serve_encode_failures_total",
		"Response encode or write failures (previously silent).",
		func() float64 { return float64(s.encodeFails.Load()) })
	r.CounterFunc("gmreg_serve_body_too_large_total",
		"Request bodies rejected with 413 by the configured size caps.",
		func() float64 { return float64(s.tooLarge.Load()) })
	r.CounterFunc("gmreg_serve_abandoned_total",
		"Requests whose buffers were leaked to the GC after timeout/cancel.",
		func() float64 { return float64(s.abandoned.Load()) })
}

// modelInst bundles the per-model series the handlers write to directly.
type modelInst struct {
	latency *obs.Histogram // gmreg_serve_request_seconds{model}
	swaps   *obs.Counter   // gmreg_serve_swaps_total{model}
}

// instrumentModel registers every per-model series for key. The counters and
// the queue-depth gauge sample p at scrape time; p outlives every swap (only
// its replica set is replaced), so the closures stay valid for the server's
// lifetime.
func instrumentModel(r *obs.Registry, key string, p *Predictor) *modelInst {
	l := obs.L("model", key)
	r.CounterFunc("gmreg_serve_requests_total",
		"Requests admitted to the predictor queue.",
		func() float64 { return float64(p.Stats().Requests) }, l)
	r.CounterFunc("gmreg_serve_forwards_total",
		"Coalesced forward passes executed.",
		func() float64 { return float64(p.Stats().Forwards) }, l)
	r.CounterFunc("gmreg_serve_shed_total",
		"Requests fast-failed because the predictor queue was full.",
		func() float64 { return float64(p.Stats().Shed) }, l)
	r.GaugeFunc("gmreg_serve_queue_depth",
		"Requests queued but not yet taken by a batch executor.",
		func() float64 { return float64(p.QueueDepth()) }, l)
	return &modelInst{
		latency: r.Histogram("gmreg_serve_request_seconds",
			"End-to-end /predict latency (queue wait and forward pass included).",
			obs.DefLatencyBuckets, l),
		swaps: r.Counter("gmreg_serve_swaps_total",
			"Checkpoint versions installed (first load included).", l),
	}
}
