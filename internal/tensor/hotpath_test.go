package tensor

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"
)

// ---- naive reference kernels (the pre-pool implementations) ----

func naiveMatMul(a, b *Tensor) *Tensor {
	m, k, n := a.Shape[0], a.Shape[1], b.Shape[1]
	c := New(m, n)
	for i := 0; i < m; i++ {
		ci := c.Data[i*n : (i+1)*n]
		ai := a.Data[i*k : (i+1)*k]
		for p := 0; p < k; p++ {
			av := ai[p]
			if av == 0 {
				continue
			}
			bp := b.Data[p*n : (p+1)*n]
			for j, bv := range bp {
				ci[j] += av * bv
			}
		}
	}
	return c
}

func naiveMatMulTransA(a, b *Tensor) *Tensor {
	k, m, n := a.Shape[0], a.Shape[1], b.Shape[1]
	c := New(m, n)
	for p := 0; p < k; p++ {
		ap := a.Data[p*m : (p+1)*m]
		bp := b.Data[p*n : (p+1)*n]
		for i, av := range ap {
			if av == 0 {
				continue
			}
			ci := c.Data[i*n : (i+1)*n]
			for j, bv := range bp {
				ci[j] += av * bv
			}
		}
	}
	return c
}

func naiveMatMulTransB(a, b *Tensor) *Tensor {
	m, k, n := a.Shape[0], a.Shape[1], b.Shape[0]
	c := New(m, n)
	for i := 0; i < m; i++ {
		ai := a.Data[i*k : (i+1)*k]
		ci := c.Data[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			bj := b.Data[j*k : (j+1)*k]
			var s float64
			for p, av := range ai {
				s += av * bj[p]
			}
			ci[j] = s
		}
	}
	return c
}

func equalBits(t *testing.T, name string, got, want *Tensor) {
	t.Helper()
	if !got.SameShape(want) {
		t.Fatalf("%s: shape %v, want %v", name, got.Shape, want.Shape)
	}
	for i := range want.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
			t.Fatalf("%s: element %d = %v, want %v (not bit-identical)",
				name, i, got.Data[i], want.Data[i])
		}
	}
}

// dirty returns an arena tensor pre-filled with garbage, to prove the Into
// kernels overwrite every element.
func dirty(shape ...int) *Tensor {
	d := DefaultArena.Get(shape...)
	d.Fill(math.NaN())
	return d
}

// ---- arena ----

func TestArenaSizeClass(t *testing.T) {
	cases := map[int]int{1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 64: 6, 65: 7, 1024: 10}
	for n, want := range cases {
		if got := sizeClass(n); got != want {
			t.Errorf("sizeClass(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestArenaReuse(t *testing.T) {
	// Under -race, sync.Pool randomly drops a fraction of Puts, so a
	// single Put/Get round-trip is allowed to miss; retrying on a fresh
	// arena makes a genuine reuse bug still fail every attempt.
	reused := false
	for attempt := 0; attempt < 20 && !reused; attempt++ {
		var a Arena
		x := a.Get(8, 16)
		if x.Shape[0] != 8 || x.Shape[1] != 16 || x.Len() != 128 {
			t.Fatalf("Get(8,16) gave shape %v len %d", x.Shape, x.Len())
		}
		x.Fill(3)
		a.Put(x)
		y := a.Get(100) // same size class (128) should reuse x's backing array
		reused = &y.Data[0] == &x.Data[0]
		if reused && y.Len() != 100 {
			t.Fatalf("reused tensor has len %d, want 100", y.Len())
		}
		a.Put(y)
		z := a.GetZeroed(128)
		for i, v := range z.Data {
			if v != 0 {
				t.Fatalf("GetZeroed left element %d = %v", i, v)
			}
		}
	}
	if !reused {
		t.Fatal("arena did not reuse the freed buffer within a size class")
	}
}

// TestArenaOversized: requests beyond the largest size class must not index
// past the bucket array (Get used to panic where Put clamped) and must
// allocate exactly n elements instead of rounding up to a power of two.
func TestArenaOversized(t *testing.T) {
	if testing.Short() {
		t.Skip("allocates >1 GiB")
	}
	var a Arena
	n := (1 << (arenaClasses - 1)) + 1
	x := a.Get(n)
	if x.Len() != n {
		t.Fatalf("oversized Get has len %d, want %d", x.Len(), n)
	}
	if cap(x.Data) != n {
		t.Fatalf("oversized Get rounded capacity up to %d, want exactly %d", cap(x.Data), n)
	}
	a.Put(x) // must clamp into the largest class without panicking
}

func TestArenaSliceRoundTrip(t *testing.T) {
	// Same retry rationale as TestArenaReuse: sync.Pool sheds Puts
	// randomly under -race.
	for attempt := 0; attempt < 20; attempt++ {
		var a Arena
		s := a.GetSlice(300)
		if len(s) != 300 {
			t.Fatalf("GetSlice(300) has len %d", len(s))
		}
		a.PutSlice(s)
		s2 := a.GetSlice(512) // class 9 holds caps in [512, 1024): 300→cap 512
		if &s2[0] == &s[0] {
			return
		}
	}
	t.Fatal("arena did not reuse slice within its class")
}

// ---- worker pool ----

func TestWorkerPoolCoversRangeOnce(t *testing.T) {
	p := &WorkerPool{Size: 4}
	const n = 1000
	var hits [n]int32
	p.ParallelIndexed(n, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&hits[i], 1)
		}
	})
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("index %d visited %d times", i, h)
		}
	}
}

// TestWorkerPoolChunkPartition pins the compiled-in reduction partition:
// n/64 chunks, at least one and at most four, and the same (chunk, lo, hi)
// ranges whether the chunks run on the caller or across workers.
func TestWorkerPoolChunkPartition(t *testing.T) {
	p := &WorkerPool{Size: 4}
	for _, tc := range []struct{ n, want int }{
		{0, 0}, {1, 1}, {63, 1}, {64, 1}, {127, 1}, {128, 2}, {256, 4}, {10000, 4},
	} {
		if got := p.Chunks(tc.n); got != tc.want {
			t.Errorf("Chunks(%d) = %d, want %d", tc.n, got, tc.want)
		}
	}
	ranges := func(pool *WorkerPool, n int) map[int][2]int {
		seen := make(map[int][2]int)
		var mu sync.Mutex
		pool.ParallelIndexed(n, func(c, lo, hi int) {
			mu.Lock()
			seen[c] = [2]int{lo, hi}
			mu.Unlock()
		})
		return seen
	}
	for _, n := range []int{130, 255, 1000} {
		wide, inline := ranges(p, n), ranges(&WorkerPool{Size: 1}, n)
		if len(wide) != p.Chunks(n) || fmt.Sprint(wide) != fmt.Sprint(inline) {
			t.Fatalf("n=%d: 4-wide ranges %v, 1-wide ranges %v, want %d equal chunks",
				n, wide, inline, p.Chunks(n))
		}
	}
}

// TestWorkerPoolChunksWidthIndependent asserts the partition is a pure
// function of n: pools of different widths must produce identical chunk
// counts, so per-chunk floating-point reductions are bit-identical no
// matter which pool (or how many replicas) runs them.
func TestWorkerPoolChunksWidthIndependent(t *testing.T) {
	narrow, wide := &WorkerPool{Size: 2}, &WorkerPool{Size: 16}
	for _, n := range []int{0, 1, 10, 64, 65, 97, 1000} {
		if a, b := narrow.Chunks(n), wide.Chunks(n); a != b {
			t.Fatalf("Chunks(%d) differs across widths: %d vs %d", n, a, b)
		}
	}
}

// TestWorkerPoolOvershootClamp is the regression test for the chunk-overshoot
// panic: Parallel splits by pool width with chunk = ceil(n/chunks), so n=65 on
// a 16-wide pool gives chunk=5 and chunk 14 used to start at lo=70 > n. The
// partition must clamp to empty trailing ranges, still visit every index
// exactly once, and never hand a caller lo > hi (which made slice expressions
// like c[lo*n:hi*n] panic).
func TestWorkerPoolOvershootClamp(t *testing.T) {
	p := &WorkerPool{Size: 16}
	for _, n := range []int{65, 64, 97, 100, 1000} {
		hits := make([]int32, n)
		p.Parallel(n, func(lo, hi int) {
			if lo > hi || lo > n || hi > n {
				panic("chunk range out of bounds")
			}
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&hits[i], 1)
			}
		})
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("n=%d: index %d visited %d times", n, i, h)
			}
		}
	}
}

// TestMatMulTransAOvershootShapes drives the reduction with the k values
// that used to overshoot a width-based partition (Parallel(65) on a Size:16
// pool panicked slicing [700:650]), on the widest pool the tests use.
func TestMatMulTransAOvershootShapes(t *testing.T) {
	pool := &WorkerPool{Size: 16}
	rng := NewRNG(29)
	for _, k := range []int{65, 97, 130} {
		m, n := 7, 9
		a, b := randMat(rng, k, m), randMat(rng, k, n)
		got := New(m, n)
		matMulTransAPool(pool, got, a, b)
		serial := naiveMatMulTransA(a, b)
		for i := range serial.Data {
			if d := math.Abs(got.Data[i] - serial.Data[i]); d > 1e-9*(1+math.Abs(serial.Data[i])) {
				t.Fatalf("k=%d: element %d = %v, want %v", k, i, got.Data[i], serial.Data[i])
			}
		}
	}
}

// TestWorkerPoolNested is the deadlock regression test: jobs submitted from
// inside jobs on the same pool must complete because submitters always work
// on their own ranges.
func TestWorkerPoolNested(t *testing.T) {
	p := &WorkerPool{Size: 4}
	var total int64
	p.Parallel(64, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			p.Parallel(64, func(lo2, hi2 int) {
				atomic.AddInt64(&total, int64(hi2-lo2))
			})
		}
	})
	if total != 64*64 {
		t.Fatalf("nested jobs covered %d elements, want %d", total, 64*64)
	}
}

func TestWorkerPoolConcurrentSubmitters(t *testing.T) {
	p := &WorkerPool{Size: 4}
	done := make(chan int64)
	for g := 0; g < 8; g++ {
		go func() {
			var sum int64
			for rep := 0; rep < 50; rep++ {
				p.Parallel(97, func(lo, hi int) {
					atomic.AddInt64(&sum, int64(hi-lo))
				})
			}
			done <- sum
		}()
	}
	for g := 0; g < 8; g++ {
		if got := <-done; got != 50*97 {
			t.Fatalf("submitter covered %d, want %d", got, 50*97)
		}
	}
}

func TestWorkerPoolEach(t *testing.T) {
	p := &WorkerPool{Size: 4}
	for _, n := range []int{0, 1, 3, 8, 100} {
		hits := make([]int32, n)
		p.Each(n, func(i int) {
			atomic.AddInt32(&hits[i], 1)
		})
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("n=%d: body %d ran %d times", n, i, h)
			}
		}
	}
}

// TestWorkerPoolBudget is the oversubscription guard for replica fan-out:
// running R replica bodies via Each, each issuing nested Parallel work,
// must never have more goroutines active than the pool size (Size-1
// workers plus the one submitter). This is what keeps dist.Network's
// replicas within GOMAXPROCS instead of multiplying it.
func TestWorkerPoolBudget(t *testing.T) {
	const size = 4
	p := &WorkerPool{Size: size}
	var active, peak int64
	enter := func() {
		a := atomic.AddInt64(&active, 1)
		for {
			old := atomic.LoadInt64(&peak)
			if a <= old || atomic.CompareAndSwapInt64(&peak, old, a) {
				break
			}
		}
	}
	leave := func() { atomic.AddInt64(&active, -1) }
	p.Each(8, func(i int) {
		// Nested fine-grained work steals chunks from the same worker set;
		// counting inside the leaves measures goroutines actually executing
		// (a submitter parked in wg.Wait is blocked, not working). Every
		// leaf runs on one of the pool's size goroutines, so the peak can
		// never exceed size.
		for rep := 0; rep < 20; rep++ {
			p.Parallel(256, func(lo, hi int) {
				enter()
				s := 0.0
				for k := lo; k < hi; k++ {
					s += float64(k)
				}
				_ = s
				leave()
			})
		}
	})
	if got := atomic.LoadInt64(&peak); got > size {
		t.Fatalf("peak concurrency %d exceeds pool size %d", got, size)
	}
}

// ---- pooled kernel equivalence (property tests over random shapes) ----

func randMat(rng *RNG, m, n int) *Tensor {
	t := New(m, n)
	rng.FillNormal(t.Data, 0, 1)
	return t
}

func TestPooledKernelsBitIdentical(t *testing.T) {
	rng := NewRNG(11)
	shapes := [][3]int{}
	for trial := 0; trial < 30; trial++ {
		shapes = append(shapes, [3]int{1 + rng.Intn(90), 1 + rng.Intn(90), 1 + rng.Intn(90)})
	}
	// Force both the small serial path and the packed/blocked path.
	shapes = append(shapes, [3]int{130, 300, 260}, [3]int{257, 129, 5}, [3]int{1, 1, 1})
	for _, s := range shapes {
		m, k, n := s[0], s[1], s[2]
		a, b := randMat(rng, m, k), randMat(rng, k, n)

		want := naiveMatMul(a, b)
		equalBits(t, "MatMul", MatMul(a, b), want)
		into := dirty(m, n)
		MatMulInto(into, a, b)
		equalBits(t, "MatMulInto", into, want)
		DefaultArena.Put(into)

		bt := randMat(rng, n, k)
		wantB := naiveMatMulTransB(a, bt)
		equalBits(t, "MatMulTransB", MatMulTransB(a, bt), wantB)
		intoB := dirty(m, n)
		MatMulTransBInto(intoB, a, bt)
		equalBits(t, "MatMulTransBInto", intoB, wantB)
		DefaultArena.Put(intoB)

		at := randMat(rng, k, m)
		wantA := MatMulTransA(at, b)
		intoA := dirty(m, n)
		MatMulTransAInto(intoA, at, b)
		equalBits(t, "MatMulTransAInto", intoA, wantA)
		DefaultArena.Put(intoA)

		wantT := New(k, m)
		for i := 0; i < m; i++ {
			for j := 0; j < k; j++ {
				wantT.Data[j*m+i] = a.Data[i*k+j]
			}
		}
		equalBits(t, "Transpose", Transpose(a), wantT)
		intoT := dirty(k, m)
		TransposeInto(intoT, a)
		equalBits(t, "TransposeInto", intoT, wantT)
		DefaultArena.Put(intoT)
	}
}

// TestMatMulTransAParallelDeterministic drives the multi-chunk partial
// reduction (k of 128 and more: two to four chunks) on a 4-wide pool:
// repeated runs must agree bit-for-bit with each other and with the same
// partition run in order on a 1-wide pool, and match the serial kernel to
// rounding.
func TestMatMulTransAParallelDeterministic(t *testing.T) {
	pool, inline := &WorkerPool{Size: 4}, &WorkerPool{Size: 1}
	rng := NewRNG(13)
	for trial := 0; trial < 10; trial++ {
		k, m, n := 128+rng.Intn(300), 1+rng.Intn(60), 1+rng.Intn(60)
		a, b := randMat(rng, k, m), randMat(rng, k, n)
		r1, r2, r3 := New(m, n), New(m, n), New(m, n)
		matMulTransAPool(pool, r1, a, b)
		matMulTransAPool(pool, r2, a, b)
		matMulTransAPool(inline, r3, a, b)
		equalBits(t, "MatMulTransA parallel determinism", r2, r1)
		equalBits(t, "MatMulTransA width independence", r3, r1)
		serial := naiveMatMulTransA(a, b)
		for i := range serial.Data {
			if d := math.Abs(r1.Data[i] - serial.Data[i]); d > 1e-9*(1+math.Abs(serial.Data[i])) {
				t.Fatalf("parallel TransA diverges from serial at %d: %v vs %v",
					i, r1.Data[i], serial.Data[i])
			}
		}
	}
}

func TestIm2ColIntoMatchesIm2Col(t *testing.T) {
	rng := NewRNG(17)
	for trial := 0; trial < 20; trial++ {
		c, h, w := 1+rng.Intn(4), 3+rng.Intn(10), 3+rng.Intn(10)
		k := 1 + rng.Intn(3)
		stride, pad := 1+rng.Intn(2), rng.Intn(2)
		if h+2*pad < k || w+2*pad < k {
			continue
		}
		img := make([]float64, c*h*w)
		rng.FillNormal(img, 0, 1)
		want := Im2Col(img, c, h, w, k, k, stride, pad)
		got := dirty(want.Shape...)
		Im2ColInto(got, img, c, h, w, k, k, stride, pad)
		equalBits(t, "Im2ColInto", got, want)
		DefaultArena.Put(got)
	}
}

// FuzzMatMulInto cross-checks the packed/blocked kernel against the naive
// reference on fuzzer-chosen shapes and data seeds.
func FuzzMatMulInto(f *testing.F) {
	f.Add(uint64(1), 8, 8, 8)
	f.Add(uint64(2), 130, 70, 90)
	f.Add(uint64(3), 1, 300, 2)
	f.Fuzz(func(t *testing.T, seed uint64, m, k, n int) {
		if m < 1 || k < 1 || n < 1 || m > 200 || k > 200 || n > 200 {
			t.Skip()
		}
		rng := NewRNG(seed)
		a, b := randMat(rng, m, k), randMat(rng, k, n)
		want := naiveMatMul(a, b)
		got := dirty(m, n)
		MatMulInto(got, a, b)
		equalBits(t, "MatMulInto(fuzz)", got, want)
		DefaultArena.Put(got)
	})
}

// ---- micro-kernel edge shapes (satellite: tile-boundary coverage) ----

// tileMRs lists the tile heights tests drive: this platform's own, and the
// portable 2×4 tile every non-amd64 build runs.
func tileMRs() []int {
	if defaultTileMR == 2 {
		return []int{2}
	}
	return []int{defaultTileMR, 2}
}

// setKernel overrides the tile height and the packing cutoff until the test
// ends. Tests in this package run sequentially, so the global swap is safe.
func setKernel(tb testing.TB, mr, cutoff int) {
	oldMR, oldCutoff := tileMR, smallCutoff
	tileMR, smallCutoff = mr, cutoff
	tb.Cleanup(func() { tileMR, smallCutoff = oldMR, oldCutoff })
}

// TestMicroKernelEdgeShapes sweeps every MatMul variant over the shapes
// where tile-boundary bugs live — 1, tile−1, tile, tile+1, and primes —
// under this platform's tile and the portable 2×4 tile (CI runs only on
// amd64, so this is where 2×4 gets tested), with the packing cutoff forced
// down so the micro-kernel path handles even 1×1×1 instead of deferring to
// the serial kernel.
func TestMicroKernelEdgeShapes(t *testing.T) {
	dims := []int{1, 3, 4, 5, 7, 8, 9, 13, 31}
	rng := NewRNG(23)
	for _, mr := range tileMRs() {
		setKernel(t, mr, 1)
		for _, m := range dims {
			for _, k := range dims {
				for _, n := range dims {
					label := fmt.Sprintf("tile=%dx%d m=%d k=%d n=%d", mr, tileNR, m, k, n)
					a, b := randMat(rng, m, k), randMat(rng, k, n)
					want := naiveMatMul(a, b)
					equalBits(t, "MatMul "+label, MatMul(a, b), want)
					got := dirty(m, n)
					MatMulInto(got, a, b)
					equalBits(t, "MatMulInto "+label, got, want)
					DefaultArena.Put(got)

					bt := randMat(rng, n, k)
					gotB := dirty(m, n)
					MatMulTransBInto(gotB, a, bt)
					equalBits(t, "MatMulTransBInto "+label, gotB, naiveMatMulTransB(a, bt))
					DefaultArena.Put(gotB)

					at := randMat(rng, k, m)
					gotA := dirty(m, n)
					MatMulTransAInto(gotA, at, b)
					wantA := naiveMatMulTransA(at, b)
					for i := range wantA.Data {
						if d := math.Abs(gotA.Data[i] - wantA.Data[i]); d > 1e-9*(1+math.Abs(wantA.Data[i])) {
							t.Fatalf("MatMulTransAInto %s diverges at %d: %v vs %v",
								label, i, gotA.Data[i], wantA.Data[i])
						}
					}
					DefaultArena.Put(gotA)
				}
			}
		}
	}
}
