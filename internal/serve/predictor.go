package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"gmreg/internal/models"
	"gmreg/internal/nn"
	"gmreg/internal/obs"
	"gmreg/internal/store"
	"gmreg/internal/tensor"
)

// ErrOverloaded is returned when the admission queue is full; callers should
// shed the request (HTTP 503) rather than wait.
var ErrOverloaded = errors.New("serve: predictor overloaded")

// ErrClosed is returned for requests arriving after Close started draining.
var ErrClosed = errors.New("serve: predictor closed")

// Config tunes one Predictor.
type Config struct {
	// Replicas is the number of network replicas — the maximum number of
	// concurrent Forward passes. Defaults to half of GOMAXPROCS (min 1):
	// each Forward can itself fan out through the tensor worker pool.
	Replicas int
	// MaxBatch caps how many requests one Forward pass coalesces.
	// Defaults to 32.
	MaxBatch int
	// Deprecated: batches never wait; MaxWait is ignored.
	MaxWait time.Duration
	// QueueCap bounds the admission queue; requests beyond it fast-fail
	// with ErrOverloaded. Defaults to 8×MaxBatch.
	QueueCap int
	// BatchSizes, when non-nil, receives one observation per executed
	// forward pass: the number of requests the pass coalesced. The server
	// wires this to the gmreg_serve_batch_size{model} histogram.
	BatchSizes *obs.Histogram
}

func (c Config) withDefaults() Config {
	if c.Replicas <= 0 {
		c.Replicas = max(1, runtime.GOMAXPROCS(0)/2)
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 32
	}
	if c.QueueCap <= 0 {
		c.QueueCap = 8 * c.MaxBatch
	}
	return c
}

// Result is one prediction.
type Result struct {
	// Label is the argmax class.
	Label int
	// Probs is the softmax distribution over classes.
	Probs []float64
	// Version identifies the checkpoint version that produced this
	// response; every response is computed entirely by one version.
	Version store.Version
}

// Stats counts predictor activity; Forwards < Requests demonstrates
// micro-batch coalescing.
type Stats struct {
	Requests int64 // admitted requests
	Forwards int64 // Forward passes executed
	Shed     int64 // fast-failed with ErrOverloaded
}

type response struct {
	res Result
	err error
}

type request struct {
	x     []float64
	probs []float64     // caller-owned output buffer, len == NumClasses
	done  chan response // buffered(1); executor never blocks on it
}

// requestPool recycles request envelopes (and their done channels) across
// Predict calls. Only requests whose response was actually received may be
// returned: an abandoned request's executor may still be about to send, so
// reusing its channel would deliver a stale response to the next caller.
var requestPool sync.Pool

func getRequest() *request {
	r, _ := requestPool.Get().(*request)
	if r == nil {
		r = &request{done: make(chan response, 1)}
	}
	return r
}

func putRequest(r *request) {
	r.x, r.probs = nil, nil
	requestPool.Put(r)
}

// replicaSet is one checkpoint version's worth of replicas. Swapping
// installs a whole new set atomically; in-flight batches keep the replica
// (and thus the version) they acquired, so no response mixes versions.
type replicaSet struct {
	version  store.Version
	replicas chan *nn.Network
}

// Predictor serves one model key: a micro-batching queue in front of a pool
// of network replicas. Batching is work-conserving: a request reaching an
// idle replica runs at once, and requests that queue behind busy replicas
// are coalesced into single Forward passes (up to MaxBatch); the queue is
// bounded with fast-fail admission control; Close drains queued requests
// before returning. Hot-swapping to a new checkpoint version never drops
// requests.
type Predictor struct {
	cfg  Config
	spec models.Spec
	pool atomic.Pointer[replicaSet]

	mu     sync.RWMutex // guards closed ↔ queue sends
	closed bool
	queue  chan *request
	wg     sync.WaitGroup

	nreq, nfwd, nshed atomic.Int64
}

// NewPredictor builds the replica pool for m and starts the batch executors.
func NewPredictor(m *Model, cfg Config) (*Predictor, error) {
	cfg = cfg.withDefaults()
	p := &Predictor{
		cfg:   cfg,
		spec:  m.Ckpt.Spec,
		queue: make(chan *request, cfg.QueueCap),
	}
	if err := p.Swap(m); err != nil {
		return nil, err
	}
	p.wg.Add(cfg.Replicas)
	for i := 0; i < cfg.Replicas; i++ {
		go p.runExecutor()
	}
	return p, nil
}

// Swap atomically replaces the replica pool with one built from m. Requests
// already executing finish on the old version; everything dequeued after the
// swap runs on the new one. The model key's architecture is fixed at
// predictor creation — a checkpoint with a different spec is rejected.
func (p *Predictor) Swap(m *Model) error {
	if m.Ckpt.Spec != p.spec {
		return fmt.Errorf("serve: checkpoint %s@v%d changes architecture (%+v → %+v)",
			m.Key, m.Version.Seq, p.spec, m.Ckpt.Spec)
	}
	base, err := m.Ckpt.Build()
	if err != nil {
		return err
	}
	set := &replicaSet{version: m.Version, replicas: make(chan *nn.Network, p.cfg.Replicas)}
	set.replicas <- base
	for i := 1; i < p.cfg.Replicas; i++ {
		rep := base.CloneArchitecture()
		if err := nn.LoadWeights(bytes.NewReader(m.Ckpt.Weights), rep); err != nil {
			return err
		}
		set.replicas <- rep
	}
	p.pool.Store(set)
	return nil
}

// Spec returns the architecture this predictor serves.
func (p *Predictor) Spec() models.Spec { return p.spec }

// Classes returns the number of output classes this predictor emits — the
// length PredictInto requires of its probs buffer.
func (p *Predictor) Classes() int { return p.spec.NumClasses() }

// Version returns the checkpoint version new batches will run on.
func (p *Predictor) Version() store.Version { return p.pool.Load().version }

// Stats returns cumulative counters.
func (p *Predictor) Stats() Stats {
	return Stats{Requests: p.nreq.Load(), Forwards: p.nfwd.Load(), Shed: p.nshed.Load()}
}

// QueueDepth returns the number of admitted requests not yet taken by a
// batch executor — a scrape-time backlog signal.
func (p *Predictor) QueueDepth() int { return len(p.queue) }

// Predict enqueues one sample and blocks until its batch executes, ctx
// expires, or the queue is full (ErrOverloaded, immediately). features must
// have exactly Spec().NumFeatures() entries; the slice is read until the
// response is delivered and must not be mutated meanwhile. The returned
// Result.Probs is freshly allocated; callers that recycle buffers should use
// PredictInto.
func (p *Predictor) Predict(ctx context.Context, features []float64) (Result, error) {
	return p.PredictInto(ctx, features, make([]float64, p.spec.NumClasses()), nil)
}

// PredictInto is the zero-allocation Predict: the softmax distribution is
// written into probs (len must be Classes()) and Result.Probs aliases it.
// deadline, when non-nil, bounds the wait exactly like a ctx deadline but
// without allocating a context (fire → context.DeadlineExceeded).
//
// Buffer ownership: features and probs belong to the executor until
// PredictInto returns. On a nil error, or on any error other than
// ctx.Err()/DeadlineExceeded, ownership is back with the caller and the
// buffers may be recycled. When the wait is abandoned (ctx done or deadline
// fired) the batch executor may still be about to write probs — the caller
// must leak those buffers to the GC rather than reuse them.
func (p *Predictor) PredictInto(ctx context.Context, features, probs []float64, deadline <-chan time.Time) (Result, error) {
	if len(features) != p.spec.NumFeatures() {
		return Result{}, fmt.Errorf("serve: request has %d features, model %s wants %d",
			len(features), p.spec.Family, p.spec.NumFeatures())
	}
	if len(probs) != p.spec.NumClasses() {
		return Result{}, fmt.Errorf("serve: probs buffer has %d slots, model %s emits %d classes",
			len(probs), p.spec.Family, p.spec.NumClasses())
	}
	req := getRequest()
	req.x, req.probs = features, probs
	p.mu.RLock()
	if p.closed {
		p.mu.RUnlock()
		putRequest(req)
		return Result{}, ErrClosed
	}
	select {
	case p.queue <- req:
		p.mu.RUnlock()
	default:
		p.mu.RUnlock()
		p.nshed.Add(1)
		putRequest(req)
		return Result{}, ErrOverloaded
	}
	p.nreq.Add(1)
	select {
	case r := <-req.done:
		putRequest(req)
		return r.res, r.err
	case <-ctx.Done():
		// The request still executes; its buffered response is dropped and
		// the envelope is left to the GC (see requestPool).
		return Result{}, ctx.Err()
	case <-deadline:
		return Result{}, context.DeadlineExceeded
	}
}

// Close stops admitting requests, drains everything already queued, and
// waits for the executors to finish — the graceful-shutdown path.
func (p *Predictor) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		p.wg.Wait()
		return
	}
	p.closed = true
	close(p.queue)
	p.mu.Unlock()
	p.wg.Wait()
}

// runExecutor is one work-conserving batch loop: take the oldest queued
// request, acquire a replica, then add whatever is already queued (up to
// MaxBatch) without waiting, run one Forward and distribute responses.
// Batches grow only while the replica is busy, which is the only time
// coalescing saves anything; requests that arrive meanwhile, e.g. right
// after a Swap, join the batch. A closed queue still yields its buffered
// requests, so drain comes for free.
func (p *Predictor) runExecutor() {
	defer p.wg.Done()
	batch := make([]*request, 0, p.cfg.MaxBatch)
	for open := true; open; {
		first, ok := <-p.queue
		if !ok {
			return
		}
		rs := p.pool.Load()
		net := <-rs.replicas
		batch, open = p.drain(append(batch[:0], first))
		p.execute(rs, net, batch)
	}
}

// drain appends already-queued requests to batch up to MaxBatch without
// blocking. It reports whether the queue is still open.
func (p *Predictor) drain(batch []*request) ([]*request, bool) {
	for len(batch) < p.cfg.MaxBatch {
		select {
		case r, ok := <-p.queue:
			if !ok {
				return batch, false
			}
			batch = append(batch, r)
		default:
			return batch, true
		}
	}
	return batch, true
}

// execute runs one coalesced Forward pass on net, a replica acquired from
// rs, and distributes the per-request results. The input tensor is
// arena-pooled and each softmax is written into the request's caller-owned
// probs buffer, so a steady-state pass allocates nothing. All reads of the
// replica's output buffer happen before the replica is released.
func (p *Predictor) execute(rs *replicaSet, net *nn.Network, batch []*request) {
	sent := 0
	defer func() {
		if r := recover(); r != nil {
			err := fmt.Errorf("serve: forward pass panicked: %v", r)
			// Only requests not yet answered get the error; re-sending to
			// batch[:sent] would corrupt their (possibly already pooled)
			// envelopes.
			for _, req := range batch[sent:] {
				req.done <- response{err: err}
			}
		}
	}()
	n := len(batch)
	per := p.spec.NumFeatures()
	in := tensor.DefaultArena.Get(p.spec.InputShape(n)...)
	for i, req := range batch {
		copy(in.Data[i*per:(i+1)*per], req.x)
	}
	out := net.Forward(in, false)
	classes := out.Shape[len(out.Shape)-1]
	for i, req := range batch {
		logits := out.Data[i*classes : (i+1)*classes]
		softmaxInto(req.probs, logits)
		req.done <- response{res: Result{
			Label:   tensor.ArgMax(logits),
			Probs:   req.probs,
			Version: rs.version,
		}}
		sent++
	}
	rs.replicas <- net
	tensor.DefaultArena.Put(in)
	p.nfwd.Add(1)
	if p.cfg.BatchSizes != nil {
		p.cfg.BatchSizes.Observe(float64(n))
	}
}

// softmaxInto writes the stable softmax of logits into out (equal length).
func softmaxInto(out, logits []float64) {
	m := logits[tensor.ArgMax(logits)]
	var sum float64
	for i, v := range logits {
		out[i] = math.Exp(v - m)
		sum += out[i]
	}
	for i := range out {
		out[i] /= sum
	}
}

// softmax returns the stable softmax of logits in a fresh slice.
func softmax(logits []float64) []float64 {
	out := make([]float64, len(logits))
	softmaxInto(out, logits)
	return out
}
