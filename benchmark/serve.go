package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"slices"
	"strconv"
	"sync/atomic"
	"time"

	"gmreg"
	"gmreg/internal/core"
	"gmreg/internal/data"
	"gmreg/internal/models"
	"gmreg/internal/obs"
	"gmreg/internal/serve"
	"gmreg/internal/store"
	"gmreg/internal/tensor"
	"gmreg/internal/train"
)

// serveConfig is gmreg-serve's default configuration (its flag defaults),
// with a private metrics registry so repeated set-ups in one process do not
// share series.
func serveConfig(watch time.Duration, sink obs.Sink) serve.ServerConfig {
	return serve.ServerConfig{
		Predictor:      serve.Config{MaxBatch: 32, MaxWait: 2 * time.Millisecond},
		RequestTimeout: 5 * time.Second,
		WatchInterval:  watch,
		Sink:           sink,
		Metrics:        obs.NewRegistry(),
	}
}

// httpServer serves a serve.Server on a loopback port. While a tracer is
// set, every /predict gets a serve.handler span around Server.Handler(),
// parented to the client span named in the request's spanHeader.
type httpServer struct {
	srv    *serve.Server
	hs     *http.Server
	url    string
	tracer atomic.Pointer[tracer]
	served chan struct{} // closed when Serve has returned
}

// spanHeader carries the client's send span ID to the server.
const spanHeader = "X-Bench-Span"

func startHTTP(srv *serve.Server) (*httpServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	h := &httpServer{srv: srv, url: "http://" + ln.Addr().String(), served: make(chan struct{})}
	plain := srv.Handler()
	h.hs = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tr := h.tracer.Load()
		if tr == nil || r.URL.Path != "/predict" {
			plain.ServeHTTP(w, r)
			return
		}
		t0 := time.Now()
		plain.ServeHTTP(w, r)
		parent, _ := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
		tr.record(tr.newID(), parent, "serve.handler", t0, time.Now())
	})}
	go func() {
		defer close(h.served)
		h.hs.Serve(ln)
	}()
	return h, nil
}

// close stops the listener, waits for Serve to return and drains the
// server's predictors.
func (h *httpServer) close() {
	h.hs.Close()
	<-h.served
	h.srv.Close()
}

// predictBodies encodes rows of task as /predict bodies for key.
func predictBodies(task *data.Task, rows []int, key string) ([][]byte, error) {
	bodies := make([][]byte, len(rows))
	for i, r := range rows {
		b, err := json.Marshal(struct {
			Model    string    `json:"model"`
			Features []float64 `json:"features"`
		}{key, task.X[r]})
		if err != nil {
			return nil, err
		}
		bodies[i] = b
	}
	return bodies, nil
}

// conns is how many keep-alive connections carry the serve-predict load,
// and how many callers drive the direct predictor probe.
func conns() int { return min(2, runtime.NumCPU()) }

// serveKey is the store key the serve-predict model is published under.
const serveKey = "hosp-fa"

// serveBodies is how many distinct dataset rows the requests cycle over.
const serveBodies = 256

// sloMS is the latency objective on the tail percentile
// (internal/bench.DefaultServeSLO).
const sloMS = 10.0

type serveState struct {
	http     *httpServer
	ckpt     *serve.Checkpoint
	features [][]float64    // the dataset rows requests carry
	bodies   [][]byte       // their /predict bodies
	want     []serve.Result // their in-process predictions
}

func (s *serveState) release() { s.http.close() }

// buildServe trains the Hosp-FA logistic regression at the gmreg-train
// defaults, publishes it to an in-memory store, starts a server on it and
// computes the in-process prediction every request must match.
func buildServe(rc *runCtx) (*serveState, error) {
	spec := data.DefaultHospFA()
	if rc.short {
		spec.Samples, spec.Features = 200, 40
	}
	task := data.GenerateHospFA(spec, rc.seed)
	trainRows, _ := data.StratifiedSplit(task.Y, 0.8, tensor.NewRNG(rc.seed+1))
	res, err := train.LogReg(task, trainRows,
		train.SGDConfig{LearningRate: 0.5, Momentum: 0.9, Epochs: 40, BatchSize: 32, Seed: rc.seed}, gmreg.New())
	if err != nil {
		return nil, err
	}
	gm, err := json.Marshal(res.Regularizer.(*core.GM))
	if err != nil {
		return nil, err
	}
	mspec := models.Spec{Family: "logreg", In: task.NumFeatures()}
	ckpt, err := serve.NewCheckpoint(mspec, models.LogRegNetwork(res.Model), gm, map[string]string{"dataset": task.Name})
	if err != nil {
		return nil, err
	}
	st := store.New()
	if _, err := serve.PutCheckpoint(st, serveKey, ckpt); err != nil {
		return nil, err
	}
	reg := serve.NewRegistry(st)
	srv := serve.NewServer(reg, serveConfig(time.Second, nil))
	reg.Refresh()
	s := &serveState{ckpt: ckpt}
	if s.http, err = startHTTP(srv); err != nil {
		srv.Close()
		return nil, err
	}

	rows := tensor.NewRNG(rc.seed + 2).Perm(task.NumSamples())[:min(serveBodies, task.NumSamples())]
	if s.bodies, err = predictBodies(task, rows, serveKey); err != nil {
		s.release()
		return nil, err
	}
	m, _ := reg.Current(serveKey)
	oracle, err := serve.NewPredictor(m, serve.Config{MaxWait: -1})
	if err != nil {
		s.release()
		return nil, err
	}
	defer oracle.Close()
	for _, r := range rows {
		want, err := oracle.Predict(context.Background(), task.X[r])
		if err != nil {
			s.release()
			return nil, err
		}
		s.features, s.want = append(s.features, task.X[r]), append(s.want, want)
	}
	// Warm the connections, pools and batch executors before timing.
	clients := httpClients(conns())
	defer closeClients(clients)
	var buf bytes.Buffer
	for i := 0; i < 32; i++ {
		if _, err := post(clients[i%len(clients)], s.http.url+"/predict", s.bodies[i%len(s.bodies)], 0, &buf); err != nil {
			s.release()
			return nil, err
		}
	}
	return s, nil
}

// checkEvery is the sampling interval of response checks.
const checkEvery = 8

// ladder is one pass over the fixed rate ladder.
type ladder struct {
	rungs     []loadResult
	mismatch  atomic.Int64 // sampled responses that differ from the in-process prediction
	batchMean float64      // requests per forward pass on the measured rung
	handler   []float64    // traced: serve.handler ms on the measured rung
	mallocs   uint64
	sent      int
}

// measuredRate is the rung whose latency is the end-to-end metric; it gets
// three shares of the pass's time, the other rungs one each.
const measuredRate = 400

func rungWindow(budget time.Duration, rate int) time.Duration {
	shares := len(ladderRates) + 2
	if rate == measuredRate {
		return budget * 3 / time.Duration(shares)
	}
	return budget / time.Duration(shares)
}

// runLadder offers every rate of the ladder in turn, always all of them.
func runLadder(rc *runCtx, s *serveState, tr *tracer) *ladder {
	clients := httpClients(conns())
	defer closeClients(clients)
	bufs := make([]bytes.Buffer, len(clients))
	l := &ladder{}
	url := s.http.url + "/predict"
	g := &openLoop{workers: len(clients), grace: rc.grace(), tr: tr, send: func(w, i int, span int64) error {
		b := i % len(s.bodies)
		status, err := post(clients[w], url, s.bodies[b], span, &bufs[w])
		if err != nil {
			return err
		}
		if status != http.StatusOK {
			return fmt.Errorf("status %d", status)
		}
		if i%checkEvery == 0 && !samePrediction(bufs[w].Bytes(), s.want[b]) {
			l.mismatch.Add(1)
		}
		return nil
	}}
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	mallocs0 := mem.Mallocs
	for _, rate := range ladderRates {
		var before modelStats
		spans := 0
		if rate == measuredRate {
			before = s.http.modelStats(serveKey)
			if tr != nil {
				spans = len(tr.durations("serve.handler"))
			}
		}
		r := g.run(float64(rate), rungWindow(rc.budget, rate), nil, tensor.NewRNG(rc.seed*1000003+uint64(rate)))
		if rate == measuredRate {
			after := s.http.modelStats(serveKey)
			l.batchMean = perUnit(float64(after.Requests-before.Requests), int(after.Forwards-before.Forwards))
			if tr != nil {
				l.handler = ms(tr.durations("serve.handler")[spans:])
			}
		}
		l.rungs = append(l.rungs, r)
		l.sent += r.sent
	}
	runtime.ReadMemStats(&mem)
	l.mallocs = mem.Mallocs - mallocs0
	return l
}

// samePrediction reports whether a /predict response carries exactly the
// in-process prediction after a JSON round trip.
func samePrediction(body []byte, want serve.Result) bool {
	var got struct {
		Label int       `json:"label"`
		Probs []float64 `json:"probs"`
	}
	if json.Unmarshal(body, &got) != nil || got.Label != want.Label || len(got.Probs) != len(want.Probs) {
		return false
	}
	for i := range got.Probs {
		if got.Probs[i] != want.Probs[i] {
			return false
		}
	}
	return true
}

type modelStats struct {
	Requests int64 `json:"requests"`
	Forwards int64 `json:"forwards"`
}

// modelStats reads key's predictor counters from GET /models.
func (h *httpServer) modelStats(key string) modelStats {
	resp, err := http.Get(h.url + "/models")
	if err != nil {
		return modelStats{}
	}
	defer resp.Body.Close()
	var out struct {
		Models []struct {
			Model string `json:"model"`
			modelStats
		} `json:"models"`
	}
	if json.NewDecoder(resp.Body).Decode(&out) != nil {
		return modelStats{}
	}
	for _, m := range out.Models {
		if m.Model == key {
			return m.modelStats
		}
	}
	return modelStats{}
}

// genLateLimitMS invalidates a run whose load generator woke this late (tail
// percentile) on a rung at or below the measured rate: such latencies would
// be scheduler noise, not serving time.
const genLateLimitMS = 5.0

func runServe(rc *runCtx) error {
	s, err := setupRepeated(rc, func() (*serveState, error) { return buildServe(rc) }, (*serveState).release)
	if err != nil {
		return err
	}
	defer s.release()

	plain := runLadder(rc, s, nil)
	measured := plain.rungs[slices.Index(ladderRates, measuredRate)]
	top := plain.rungs[len(plain.rungs)-1]
	invalid := false
	for i, r := range plain.rungs {
		rc.attempted += int64(r.sent)
		rc.failed += int64(r.failed)
		if late, _, ok := tail(r.late); ok && late > genLateLimitMS && ladderRates[i] <= measuredRate {
			fmt.Fprintf(os.Stderr, "invalid run: the load generator ran %.2f ms late at %d req/s\n", late, ladderRates[i])
			invalid = true
		}
	}
	if invalid {
		rc.failed = rc.attempted
	}
	rc.check(plain.mismatch.Load() == 0, "%d sampled responses differ from the in-process prediction", plain.mismatch.Load())
	rc.set("throughput_per_s", float64(len(top.lat))/top.busy.Seconds())
	reportLatency(rc, measured.lat)
	if !rc.trace {
		return nil
	}

	unsent := 0
	for i, r := range plain.rungs {
		t, _, _ := tail(r.lat)
		rc.set(fmt.Sprintf("ladder.r%d.tail_ms", ladderRates[i]), t)
		unsent += r.unsent
	}
	rc.set("serve.max_qps_at_slo", float64(maxQPSAtSLO(ladderRates, plain.rungs)))
	rc.set("ladder.unsent", float64(unsent))
	late, _, _ := tail(measured.late)
	rc.set("gen.late_tail_ms", late)
	rc.set("http.client_p50_ms", median(measured.sendMS))
	rc.set("serve.batch_mean", plain.batchMean)
	rc.set("go.allocs_per_op", perUnit(float64(plain.mallocs), plain.sent))

	tr := newTracer()
	s.http.tracer.Store(tr)
	traced := runLadder(rc, s, tr)
	s.http.tracer.Store(nil)
	rc.check(traced.mismatch.Load() == 0, "traced pass: %d sampled responses differ", traced.mismatch.Load())
	tmeasured := traced.rungs[slices.Index(ladderRates, measuredRate)]
	rc.set("trace.overhead_pct", overheadPct(median(measured.lat), median(tmeasured.lat)))
	// On the measured rung, the share of request time that neither the
	// generator's queue wait nor the handler covers: transport and the HTTP
	// stacks on both sides. A request's time minus its wait is its send time.
	if wall := sum(tmeasured.lat); wall > 0 {
		rc.set("trace.residual_pct", 100*(sum(tmeasured.sendMS)-sum(traced.handler))/wall)
	}
	rc.set("serve.handler_p50_ms", median(traced.handler))
	ht, _, _ := tail(traced.handler)
	rc.set("serve.handler_tail_ms", ht)

	if err := probePredictor(rc, s); err != nil {
		return err
	}
	writeTrace(rc, tr)
	return nil
}

// maxQPSAtSLO is the highest offered rate whose rung kept its tail latency
// within sloMS with no failed and no unsent request — a request that was
// never answered misses any latency limit.
func maxQPSAtSLO(rates []int, rungs []loadResult) int {
	best := 0
	for i, r := range rungs {
		if t, _, ok := tail(r.lat); ok && t <= sloMS && r.failed == 0 && r.unsent == 0 {
			best = rates[i]
		}
	}
	return best
}

// probePredictor times the layers below the HTTP handler with direct calls:
// Predictor.PredictInto under the measured rate's open-loop schedule (queue,
// batching window and forward), one batch-1 forward pass, and the server's
// own per-request allocation probe.
func probePredictor(rc *runCtx, s *serveState) error {
	m := &serve.Model{Key: serveKey, Ckpt: s.ckpt}
	p, err := serve.NewPredictor(m, serveConfig(time.Second, nil).Predictor)
	if err != nil {
		return err
	}
	defer p.Close()
	probs := make([][]float64, conns())
	for i := range probs {
		probs[i] = make([]float64, p.Classes())
	}
	g := &openLoop{workers: conns(), grace: rc.grace(), send: func(w, i int, _ int64) error {
		_, err := p.PredictInto(context.Background(), s.features[i%len(s.features)], probs[w], nil)
		return err
	}}
	r := g.run(measuredRate, rungWindow(rc.budget, measuredRate)/3, nil, tensor.NewRNG(rc.seed*1000003+measuredRate))
	rc.set("serve.predict_p50_ms", median(r.lat))
	pt, _, _ := tail(r.lat)
	rc.set("serve.predict_tail_ms", pt)

	net, err := s.ckpt.Build()
	if err != nil {
		return err
	}
	x := tensor.FromSlice(append([]float64(nil), s.features[0]...), s.ckpt.Spec.InputShape(1)...)
	var fwd []float64
	for i := 0; i < 2000; i++ {
		t0 := time.Now()
		net.Forward(x, false)
		fwd = append(fwd, float64(time.Since(t0))/float64(time.Millisecond))
	}
	rc.set("nn.forward_b1_ms", median(fwd))

	allocs, _, err := s.http.srv.MeasurePredictAllocs(s.bodies[0], 300)
	if err != nil {
		return err
	}
	rc.set("serve.allocs_per_request", allocs)
	return nil
}
