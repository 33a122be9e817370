package tensor

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// The worker pool replaces the per-call `go func` fan-out the kernels and
// the nn layers used to do: a fixed set of goroutines is started once
// (lazily) and every Parallel call afterwards launches zero goroutines.
//
// Deadlock freedom under nesting (a conv layer parallelizes over samples and
// each sample's matmul parallelizes over rows) comes from two rules:
//
//  1. The submitting goroutine always works on its own job; helpers are
//     invited with non-blocking channel sends and merely steal chunks.
//  2. Workers never block on anything except the job channel, so a job's
//     chunks are always drained by goroutines that are actively running.
//
// Callers come in two kinds, and they are split differently:
//
//   - Parallel callers write disjoint rows, so how [0, n) is split never
//     changes a bit. Parallel fans out up to the pool's width, and runs f
//     inline on a pool one worker wide or below minChunk rows.
//   - ParallelIndexed callers keep per-chunk partial sums (the k-reduction
//     of MatMulTransA and Conv2D's weight gradient over samples). Their
//     partition, Chunks(n), is a compiled-in function of n alone: at most
//     maxChunks chunks of at least minChunk rows each. It does not depend on
//     the pool's width, GOMAXPROCS, the host or the environment, so every
//     per-chunk reduction gives the same bits on any pool and any machine.
//     That is what lets data-parallel (internal/dist) and multi-process
//     (internal/distnet) training reproduce the sequential trainer bit for
//     bit, and what makes a checkpoint independent of the core count.
//
// The pool is also the concurrency budget: Each lets a caller run R
// replica bodies as pool jobs instead of spawning R goroutines, so the
// total number of goroutines doing work at any instant stays bounded by
// the pool size (workers + submitter) even when each body issues nested
// Parallel calls.

// minChunk is the shortest range worth a chunk of its own: the row count
// below which Parallel runs inline, and the minimum length of a reduction
// chunk. Job post plus steal costs about 1µs, so rows cheaper than ~15ns
// each need n in the tens before fan-out pays for itself. maxChunks caps
// the reduction partition: every chunk adds an m×n partial to fill and sum.
const (
	minChunk  = 64
	maxChunks = 4
)

// WorkerPool is a persistent pool of worker goroutines executing chunked
// range jobs. The zero value with a Size is usable; methods start the
// workers on first use.
type WorkerPool struct {
	// Size is the number of goroutines that can work on a job concurrently,
	// including the submitter. 0 means GOMAXPROCS at first use.
	Size int

	once    sync.Once
	tasks   chan *rangeJob
	started atomic.Bool // set after tasks exists; orders QueueDepth reads

	// Fan-out counters (atomic, touched only on the submit path — never on
	// serial Parallel calls, whose per-op cost the extra add would distort).
	jobs, chunks int64
}

// PoolStats is a snapshot of a pool's cumulative fan-out activity.
// Chunks/Jobs is the mean partition width — how much concurrency each
// fan-out actually exposed.
type PoolStats struct {
	// Jobs counts Parallel/Each invocations that fanned out (serial runs
	// are not counted).
	Jobs int64
	// Chunks counts chunks executed across all fanned-out jobs.
	Chunks int64
}

// Stats returns the cumulative fan-out counters.
func (p *WorkerPool) Stats() PoolStats {
	return PoolStats{Jobs: atomic.LoadInt64(&p.jobs), Chunks: atomic.LoadInt64(&p.chunks)}
}

// QueueDepth returns the number of posted jobs not yet picked up by a
// worker — a scrape-time occupancy signal (0 when the pool is keeping up).
func (p *WorkerPool) QueueDepth() int {
	if !p.started.Load() {
		return 0
	}
	return len(p.tasks)
}

// width is the effective pool size. It reads only the immutable Size
// configuration (set before first use), so it is race-free.
func (p *WorkerPool) width() int {
	if p.Size > 0 {
		return p.Size
	}
	return runtime.GOMAXPROCS(0)
}

// rangeJob is one posted Parallel, ParallelIndexed or Each invocation: a
// fixed partition of [0, n) into chunks claimed by an atomic counter.
type rangeJob struct {
	n, chunk, chunks int
	next             int64
	f                func(chunk, lo, hi int)
	wg               sync.WaitGroup
}

// run claims and executes chunks until the job is exhausted.
func (j *rangeJob) run() {
	for {
		c := int(atomic.AddInt64(&j.next, 1)) - 1
		if c >= j.chunks {
			return
		}
		// Clamp both bounds: with chunk = ceil(n/chunks) the last chunk
		// indices of a width-based Parallel split can start past n (e.g.
		// n=65 on a 16-wide pool -> chunk=5, chunk 14 starts at 70). Those
		// chunks run f with an empty range lo == hi == n, which is safe for
		// every caller (slices [lo*c:hi*c] are empty, loops don't execute).
		lo := min(c*j.chunk, j.n)
		hi := min(lo+j.chunk, j.n)
		j.f(c, lo, hi)
		j.wg.Done()
	}
}

func (p *WorkerPool) start() {
	p.once.Do(func() {
		size := p.width()
		// Buffered so invitations almost never fall back to the submitter
		// doing all the work; a full channel is still fine (see Parallel).
		p.tasks = make(chan *rangeJob, 4*size)
		for i := 1; i < size; i++ {
			go func() {
				for j := range p.tasks {
					j.run()
				}
			}()
		}
		p.started.Store(true)
	})
}

// Chunks returns the number of chunks ParallelIndexed partitions [0, n)
// into: n/minChunk, clamped to [1, maxChunks], and 0 for an empty range.
// Callers size per-chunk state with it. It reads neither the pool's width
// nor any setting of the process, so per-chunk reductions give the same
// bits on every pool and every host.
func (p *WorkerPool) Chunks(n int) int {
	if n <= 0 {
		return 0
	}
	return min(max(n/minChunk, 1), maxChunks)
}

// ParallelIndexed partitions [0, n) into Chunks(n) contiguous chunks and
// runs f(chunk, lo, hi) for each, using the pool's workers plus the calling
// goroutine. f is called exactly once per chunk; chunk indices are dense in
// [0, Chunks(n)) and every chunk is non-empty. On a pool one worker wide
// the chunks run in order on the caller, without posting a job. It is safe
// to call from inside another job (nested parallelism) and from multiple
// goroutines at once.
func (p *WorkerPool) ParallelIndexed(n int, f func(chunk, lo, hi int)) {
	chunks := p.Chunks(n)
	if chunks == 0 {
		return
	}
	size := (n + chunks - 1) / chunks
	if chunks == 1 || p.width() <= 1 {
		for c := 0; c < chunks; c++ {
			lo := c * size
			f(c, lo, min(lo+size, n))
		}
		return
	}
	p.submit(&rangeJob{n: n, chunk: size, chunks: chunks, f: f})
}

// submit posts a job, helps run it, and waits for every chunk to finish.
func (p *WorkerPool) submit(j *rangeJob) {
	p.start()
	atomic.AddInt64(&p.jobs, 1)
	atomic.AddInt64(&p.chunks, int64(j.chunks))
	j.wg.Add(j.chunks)
	// Invite helpers without ever blocking: if the queue is full the
	// submitter simply runs more chunks itself. There is no point inviting
	// more helpers than there are chunks beyond the submitter's own.
	helpers := min(p.width(), j.chunks) - 1
invite:
	for i := 0; i < helpers; i++ {
		select {
		case p.tasks <- j:
		default:
			break invite
		}
	}
	j.run()
	j.wg.Wait()
}

// Each runs f(i) for every i in [0, n) as n single-index pool chunks,
// however small n is. It is the concurrency-budget primitive for coarse
// replica fan-out: each body runs on a pool worker (or the submitter), so n
// replicas never add goroutines beyond the pool's size, and nested Parallel
// calls inside a body steal chunks from the same fixed worker set instead
// of oversubscribing the machine. Bodies with distinct i may run
// concurrently; Each returns after all n have finished.
func (p *WorkerPool) Each(n int, f func(i int)) {
	if n <= 0 {
		return
	}
	if n == 1 {
		f(0)
		return
	}
	p.submit(&rangeJob{n: n, chunk: 1, chunks: n, f: func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			f(i)
		}
	}})
}

// Parallel runs f over contiguous sub-ranges of [0, n) concurrently. The
// ranges are disjoint and f keeps no per-chunk state, so the split is free
// to follow the pool: one chunk per worker, or f(0, n) on the caller when
// inline(n) holds.
func (p *WorkerPool) Parallel(n int, f func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if p.inline(n) {
		f(0, n)
		return
	}
	chunks := min(p.width(), n)
	p.submit(&rangeJob{n: n, chunk: (n + chunks - 1) / chunks, chunks: chunks,
		f: func(_, lo, hi int) { f(lo, hi) }})
}

// inline reports whether Parallel(n, ·) runs on the calling goroutine: on a
// pool one worker wide, or below minChunk rows.
func (p *WorkerPool) inline(n int) bool { return n < minChunk || p.width() <= 1 }

// defaultPool serves the package-level Parallel helpers used by the kernels
// and the nn layers.
var defaultPool WorkerPool

// Parallel runs f over contiguous sub-ranges of [0, n) on the shared
// process-wide worker pool.
func Parallel(n int, f func(lo, hi int)) { defaultPool.Parallel(n, f) }

// ParallelIndexed is the chunk-indexed variant on the shared pool; the
// partition is deterministic (see WorkerPool.ParallelIndexed).
func ParallelIndexed(n int, f func(chunk, lo, hi int)) { defaultPool.ParallelIndexed(n, f) }

// ParallelChunks returns the number of chunks ParallelIndexed splits n
// into (see WorkerPool.Chunks).
func ParallelChunks(n int) int { return defaultPool.Chunks(n) }

// ParallelInline reports whether Parallel(n, f) on the shared pool runs f
// on the calling goroutine. Callers test it to skip building a closure that
// would never reach the pool: constructing one heap-allocates.
func ParallelInline(n int) bool { return defaultPool.inline(n) }

// Pool returns the shared process-wide worker pool so coarse-grained
// callers (replica fan-out in internal/dist) can schedule work on the same
// fixed worker set the kernels use instead of spawning goroutines.
func Pool() *WorkerPool { return &defaultPool }
