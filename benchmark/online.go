package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"gmreg/internal/data"
	"gmreg/internal/obs"
	"gmreg/internal/online"
	"gmreg/internal/serve"
	"gmreg/internal/store"
	"gmreg/internal/tensor"
)

// The online-publish workload runs online.Run over a replayed Hosp-FA
// stream (batch 16, a publish every 25 steps) while a server in the same
// process watches the store file every 200 ms — the CI online job's
// interval — and answers 100 req/s of /predict for the online key. Each
// publish rewrites the whole store, so writes compete with reads.
const (
	onlineKey        = "online"
	onlineWatch      = 200 * time.Millisecond
	onlineSideRate   = 100
	onlineBatch      = 16
	onlinePublishes  = 25
	onlineSamplesPer = 16000 // stream samples per second of --seconds
)

// timedEvent is one publish or swap, stamped when it was emitted.
type timedEvent struct {
	at      time.Time
	seq     int
	latency time.Duration // publishes: capture+store+snapshot time
}

// eventLog is an obs.Sink that keeps Publish and Swap events.
type eventLog struct {
	mu     sync.Mutex
	events []timedEvent
	first  chan struct{} // closed at the first kept event
	once   sync.Once
}

func newEventLog() *eventLog { return &eventLog{first: make(chan struct{})} }

func (l *eventLog) Emit(e obs.Event) {
	ev := timedEvent{at: time.Now()}
	switch e := e.(type) {
	case obs.Publish:
		ev.seq, ev.latency = e.Seq, time.Duration(e.LatencySec*float64(time.Second))
	case obs.Swap:
		ev.seq = e.Seq
	default:
		return
	}
	l.mu.Lock()
	l.events = append(l.events, ev)
	l.mu.Unlock()
	l.once.Do(func() { close(l.first) })
}

func (l *eventLog) snapshot() []timedEvent {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]timedEvent(nil), l.events...)
}

// lastSeq is the highest sequence logged so far (0 for none).
func (l *eventLog) lastSeq() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.events) == 0 {
		return 0
	}
	return l.events[len(l.events)-1].seq
}

// swapLags pairs every publish with the first swap that installs its
// sequence or a later one and returns the delay from publish to swap
// (never negative: a watch tick may reload the file before the trainer
// emits its event). Publishes no swap covers are counted as unpaired.
// Both lists are in emission order, so sequences only grow.
func swapLags(pubs, swaps []timedEvent) (lags []time.Duration, unpaired int) {
	j := 0
	for _, p := range pubs {
		for j < len(swaps) && swaps[j].seq < p.seq {
			j++
		}
		if j == len(swaps) {
			unpaired++
			continue
		}
		lags = append(lags, max(0, swaps[j].at.Sub(p.at)))
	}
	return lags, unpaired
}

// replaySource streams n samples from a seeded permutation of a task's
// rows, cycling.
type replaySource struct {
	task  *data.Task
	order []int
	i, n  int
}

func (s *replaySource) Next(ctx context.Context) (online.Sample, error) {
	if s.i >= s.n {
		return online.Sample{}, io.EOF
	}
	if err := ctx.Err(); err != nil {
		return online.Sample{}, err
	}
	r := s.order[s.i%len(s.order)]
	s.i++
	return online.Sample{Features: s.task.X[r], Label: s.task.Y[r]}, nil
}

func (s *replaySource) Close() error { return nil }

// onlineState is one pass's store file and the server watching it.
type onlineState struct {
	dir, path string
	task      *data.Task
	bodies    [][]byte
	swaps     *eventLog
	http      *httpServer
	stopWatch context.CancelFunc
	watching  chan struct{}
}

func buildOnline(rc *runCtx, pass int) (*onlineState, error) {
	spec := data.DefaultHospFA()
	if rc.short {
		spec.Samples, spec.Features = 200, 40
	}
	s := &onlineState{
		dir:   filepath.Join(rc.dir, fmt.Sprintf("online-%d", pass)),
		task:  data.GenerateHospFA(spec, rc.seed),
		swaps: newEventLog(),
	}
	s.path = filepath.Join(s.dir, "online.store")
	if err := os.MkdirAll(s.dir, 0o755); err != nil {
		return nil, err
	}
	rows := tensor.NewRNG(rc.seed + 2).Perm(s.task.NumSamples())[:min(serveBodies, s.task.NumSamples())]
	var err error
	if s.bodies, err = predictBodies(s.task, rows, onlineKey); err != nil {
		return nil, err
	}
	srv := serve.NewServer(serve.NewRegistry(store.New()), serveConfig(onlineWatch, s.swaps))
	if s.http, err = startHTTP(srv); err != nil {
		srv.Close()
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s.stopWatch, s.watching = cancel, make(chan struct{})
	go func() {
		defer close(s.watching)
		srv.Watch(ctx, s.path)
	}()
	return s, nil
}

func (s *onlineState) release() {
	s.stopWatch()
	<-s.watching
	s.http.close()
	os.RemoveAll(s.dir)
}

// onlinePass is what one online run measured.
type onlinePass struct {
	res         *online.Result
	wall        time.Duration
	pubs, swaps []timedEvent
	side        loadResult
}

// runOnlinePass streams the samples through online.Run while side traffic
// queries the published model, then waits until the server serves the last
// publish.
func runOnlinePass(rc *runCtx, s *onlineState, tr *tracer) (*onlinePass, error) {
	samples := onlineSamplesPer * int(rc.budget/time.Second)
	if rc.short {
		samples = 8000
	}
	pubs := newEventLog()
	src := &replaySource{task: s.task, order: tensor.NewRNG(rc.seed + 3).Perm(s.task.NumSamples()), n: samples}

	clients := httpClients(1)
	defer closeClients(clients)
	var buf bytes.Buffer
	side := &openLoop{workers: 1, grace: rc.grace(), tr: tr, send: func(_, i int, span int64) error {
		status, err := post(clients[0], s.http.url+"/predict", s.bodies[i%len(s.bodies)], span, &buf)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("status %d", status)
		}
		return err
	}}
	stop := make(chan struct{})
	sideDone := make(chan loadResult, 1)
	go func() {
		// The key exists only once the first publish is served.
		select {
		case <-s.swaps.first:
		case <-stop:
			sideDone <- loadResult{}
			return
		}
		// It runs until stop; childTimeout only sizes its arrival queue.
		sideDone <- side.run(onlineSideRate, childTimeout, stop, tensor.NewRNG(rc.seed+4))
	}()

	t0 := time.Now()
	res, err := online.Run(context.Background(), src, online.Config{
		Store: s.path, Key: onlineKey, Batch: onlineBatch, PublishEvery: onlinePublishes,
		MaxSamples: samples, Seed: rc.seed, Sink: pubs,
	})
	wall := time.Since(t0)
	if err == nil {
		for wait := time.Now(); s.swaps.lastSeq() < res.LastVersion.Seq && time.Since(wait) < 5*time.Second; {
			time.Sleep(10 * time.Millisecond)
		}
	}
	close(stop)
	p := &onlinePass{res: res, wall: wall, pubs: pubs.snapshot(), swaps: s.swaps.snapshot(), side: <-sideDone}
	rc.attempted += int64(len(p.pubs) + p.side.sent)
	rc.failed += int64(p.side.failed)
	if err != nil {
		return nil, err
	}
	return p, nil
}

// checkOnline verifies the final checkpoint loads and is the one served.
func checkOnline(rc *runCtx, s *onlineState, p *onlinePass) {
	rc.check(len(p.pubs) == p.res.Publishes, "%d publish events for %d publishes", len(p.pubs), p.res.Publishes)
	st, err := store.LoadFile(s.path)
	if err != nil {
		rc.fail("loading the final store: %v", err)
		return
	}
	blob, v, err := st.Get(onlineKey)
	if err == nil {
		_, err = serve.UnmarshalCheckpoint(blob)
	}
	rc.check(err == nil, "final checkpoint does not load: %v", err)
	rc.check(v.Seq == p.res.LastVersion.Seq, "store holds seq %d, last publish was %d", v.Seq, p.res.LastVersion.Seq)
	rc.check(s.swaps.lastSeq() == p.res.LastVersion.Seq, "server serves seq %d, last publish was %d",
		s.swaps.lastSeq(), p.res.LastVersion.Seq)
}

func runOnline(rc *runCtx) error {
	s, err := setupRepeated(rc, func() (*onlineState, error) { return buildOnline(rc, 0) }, (*onlineState).release)
	if err != nil {
		return err
	}
	plain, err := runOnlinePass(rc, s, nil)
	if err == nil {
		checkOnline(rc, s, plain)
	}
	s.release()
	if err != nil {
		return err
	}
	var pubMS []float64
	var pubTotal time.Duration
	for _, e := range plain.pubs {
		pubMS = append(pubMS, float64(e.latency)/float64(time.Millisecond))
		pubTotal += e.latency
	}
	rc.set("throughput_per_s", float64(plain.res.Samples)/plain.wall.Seconds())
	reportLatency(rc, pubMS)
	if !rc.trace {
		return nil
	}

	lags, _ := swapLags(plain.pubs, plain.swaps)
	rc.set("online.swap_lag_p50_ms", median(ms(lags)))
	rc.set("online.predict_p50_ms", median(plain.side.lat))
	pt, _, _ := tail(plain.side.lat)
	rc.set("online.predict_tail_ms", pt)
	rc.set("online.step_us", perUnit(float64(plain.wall-pubTotal)/float64(time.Microsecond), plain.res.Steps))
	rc.set("online.publish_share_pct", 100*float64(pubTotal)/float64(plain.wall))
	rc.set("serve.swaps", float64(len(plain.swaps)))

	tr := newTracer()
	ts, err := buildOnline(rc, 1)
	if err != nil {
		return err
	}
	ts.http.tracer.Store(tr)
	traced, err := runOnlinePass(rc, ts, tr)
	if err == nil {
		checkOnline(rc, ts, traced)
		err = probeStore(rc, ts.path)
	}
	ts.release()
	if err != nil {
		return err
	}
	rc.set("trace.overhead_pct", overheadPct(plain.wall.Seconds(), traced.wall.Seconds()))
	// The SGD steps have no public seam: they are the residual.
	var tpub time.Duration
	for _, e := range traced.pubs {
		tpub += e.latency
		tr.record(tr.newID(), 0, "online.publish", e.at.Add(-e.latency), e.at)
	}
	rc.set("trace.residual_pct", residualPct(traced.wall, tpub))
	rc.set("serve.handler_p50_ms", median(ms(tr.durations("serve.handler"))))
	ht, _, _ := tail(ms(tr.durations("serve.handler")))
	rc.set("serve.handler_tail_ms", ht)
	writeTrace(rc, tr)
	return nil
}

// probeStore times the store and reload layers with direct calls on the
// final snapshot: LoadFile, SaveFile, and Registry.ReplaceStore into a
// server that has not loaded the model yet (decode plus predictor build).
func probeStore(rc *runCtx, path string) error {
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	var st *store.Store
	var load, save, reload []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		if st, err = store.LoadFile(path); err != nil {
			return err
		}
		load = append(load, msSince(t0))
		t0 = time.Now()
		if err := store.SaveFile(path+".copy", st); err != nil {
			return err
		}
		save = append(save, msSince(t0))

		reg := serve.NewRegistry(store.New())
		srv := serve.NewServer(reg, serveConfig(onlineWatch, nil))
		t0 = time.Now()
		reg.ReplaceStore(st)
		reload = append(reload, msSince(t0))
		srv.Close()
	}
	versions, err := st.History(onlineKey)
	if err != nil {
		return err
	}
	rc.set("store.load_ms", median(load))
	rc.set("store.save_ms", median(save))
	rc.set("serve.reload_ms", median(reload))
	rc.set("store.snapshot_mb", float64(fi.Size())/(1<<20))
	rc.set("store.versions", float64(len(versions)))
	return nil
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }
