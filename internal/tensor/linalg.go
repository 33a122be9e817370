package tensor

import "fmt"

// The MatMul family runs the register-blocked micro-kernels in
// microkernel.go, fed by the panel packers in micro.go. Products too small
// to repay packing run the serial loops of linalg_ref.go, whose
// cache-blocked kernels are also the test oracle. Every path sums each
// output element over p in ascending order, so all are bit-identical.

// Kernel settings, fixed per platform at compile time. The micro-kernel
// tile is tileMR×tileNR: 4×4 through the SSE2/AVX kernel on amd64, 2×4
// elsewhere (defaultTileMR). Products of fewer than smallCutoff
// multiply-adds skip packing. tileMR and smallCutoff are variables only so
// in-package tests can drive the portable 2×4 tile on amd64 and push tiny
// products through the packed path; nothing else assigns them.
const tileNR = 4

var (
	tileMR      = defaultTileMR
	smallCutoff = 32 * 1024
)

func checkMat2(op string, a, b *Tensor) {
	if a.Rank() != 2 || b.Rank() != 2 {
		panic("tensor: " + op + " requires rank-2 operands")
	}
}

func checkDst(op string, dst *Tensor, m, n int) {
	if dst.Rank() != 2 || dst.Shape[0] != m || dst.Shape[1] != n {
		panic(fmt.Sprintf("tensor: %s dst has shape %v, want [%d %d]", op, dst.Shape, m, n))
	}
}

// MatMul computes C = A·B for rank-2 tensors A (m×k) and B (k×n).
func MatMul(a, b *Tensor) *Tensor {
	checkMat2("MatMul", a, b)
	c := New(a.Shape[0], b.Shape[1])
	MatMulInto(c, a, b)
	return c
}

// MatMulInto computes dst = A·B without allocating: dst (m×n) is fully
// overwritten. The kernel tiles over k and j with a packed panel of B drawn
// from the arena and reused across the parallel i-loop; the per-element
// accumulation order is identical to the naive i-k-j loop, so results are
// bit-identical to MatMul and deterministic.
func MatMulInto(dst, a, b *Tensor) {
	checkMat2("MatMulInto", a, b)
	m, k := a.Shape[0], a.Shape[1]
	k2, n := b.Shape[0], b.Shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMul shape mismatch %v x %v", a.Shape, b.Shape))
	}
	checkDst("MatMulInto", dst, m, n)
	matMulKernel(dst.Data, a.Data, b.Data, m, k, n)
}

// matMulKernel is the shared C = A·B dispatcher: small products run the
// serial axpy loop, and everything else packs B into NR-wide panels once
// and streams the register-blocked row driver over them.
func matMulKernel(c, a, b []float64, m, k, n int) {
	if m*k*n < smallCutoff {
		refMatMulSerial(c, a, b, m, k, n)
		return
	}
	mr := tileMR
	bp := DefaultArena.GetSlice(k * n)
	packPanels(bp, b, k, n, n, tileNR)
	// The serial branch calls the row driver directly: constructing the
	// closure would heap-allocate even when it is never sent to the pool.
	if ParallelInline(m) {
		microMatMulRows(c, a, bp, 0, m, k, n, mr)
	} else {
		Parallel(m, func(lo, hi int) {
			microMatMulRows(c, a, bp, lo, hi, k, n, mr)
		})
	}
	DefaultArena.PutSlice(bp)
}

// MatMulTransA computes C = Aᵀ·B where A is k×m and B is k×n, yielding m×n.
func MatMulTransA(a, b *Tensor) *Tensor {
	checkMat2("MatMulTransA", a, b)
	if a.Shape[0] != b.Shape[0] {
		panic(fmt.Sprintf("tensor: MatMulTransA shape mismatch %v x %v", a.Shape, b.Shape))
	}
	c := New(a.Shape[1], b.Shape[1])
	MatMulTransAInto(c, a, b)
	return c
}

// MatMulTransAInto computes dst = Aᵀ·B. The reduction over k is split into
// the worker pool's fixed chunk partition (Chunks(k), a function of k
// alone); each chunk accumulates into a private partial drawn from the
// arena, and the partials are summed in chunk order — lock-free, and the
// same bits on every pool and every host.
func MatMulTransAInto(dst, a, b *Tensor) {
	matMulTransAPool(&defaultPool, dst, a, b)
}

// matMulTransAPool is MatMulTransAInto over an explicit worker pool, so
// tests can run the same reduction on pools of different widths.
func matMulTransAPool(pool *WorkerPool, dst, a, b *Tensor) {
	checkMat2("MatMulTransAInto", a, b)
	k, m := a.Shape[0], a.Shape[1]
	k2, n := b.Shape[0], b.Shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMulTransA shape mismatch %v x %v", a.Shape, b.Shape))
	}
	checkDst("MatMulTransAInto", dst, m, n)
	c := dst.Data
	chunks := pool.Chunks(k)
	if chunks <= 1 {
		clear(c[:m*n])
		transAAccum(c, a.Data, b.Data, 0, k, m, n)
		return
	}
	mn := m * n
	partials := DefaultArena.GetSlice(chunks * mn)
	clear(partials)
	pool.ParallelIndexed(k, func(chunk, lo, hi int) {
		transAAccum(partials[chunk*mn:(chunk+1)*mn], a.Data, b.Data, lo, hi, m, n)
	})
	// Deterministic reduce: every element sums the partials in ascending
	// chunk order. At most maxChunks-1 adds per element against at least
	// minChunk multiply-adds per chunk, so it runs serially.
	copy(c[:mn], partials[:mn])
	for ch := 1; ch < chunks; ch++ {
		for i, v := range partials[ch*mn : (ch+1)*mn] {
			c[i] += v
		}
	}
	DefaultArena.PutSlice(partials)
}

// transAAccum accumulates local += A[lo:hi, :]ᵀ · B[lo:hi, :] where A is k×m
// and B is k×n; local is an m×n buffer the caller has zeroed (or holds a
// prior chunk's partial). Large chunks pack both operand slabs into panels
// and run the accumulate-mode tile driver; the result is bit-identical to
// the reference loop because every element still extends its own
// accumulator chain over p ascending.
func transAAccum(local, a, b []float64, lo, hi, m, n int) {
	kk := hi - lo
	if kk*m*n < smallCutoff {
		refTransAAccum(local, a, b, lo, hi, m, n)
		return
	}
	mr := tileMR
	ap := DefaultArena.GetSlice(kk * m)
	bp := DefaultArena.GetSlice(kk * n)
	packPanels(ap, a[lo*m:], kk, m, m, mr)
	packPanels(bp, b[lo*n:], kk, n, n, tileNR)
	microTransAPanels(local, ap, bp, kk, m, n, mr)
	DefaultArena.PutSlice(bp)
	DefaultArena.PutSlice(ap)
}

// MatMulTransB computes C = A·Bᵀ where A is m×k and B is n×k, yielding m×n.
func MatMulTransB(a, b *Tensor) *Tensor {
	checkMat2("MatMulTransB", a, b)
	if a.Shape[1] != b.Shape[1] {
		panic(fmt.Sprintf("tensor: MatMulTransB shape mismatch %v x %v", a.Shape, b.Shape))
	}
	c := New(a.Shape[0], b.Shape[0])
	MatMulTransBInto(c, a, b)
	return c
}

// MatMulTransBInto computes dst = A·Bᵀ without allocating. Both operands
// are traversed row-major (the inner product runs along contiguous k), and
// four output columns are computed per pass so each load of A feeds four
// independent accumulators.
func MatMulTransBInto(dst, a, b *Tensor) {
	checkMat2("MatMulTransBInto", a, b)
	m, k := a.Shape[0], a.Shape[1]
	n, k2 := b.Shape[0], b.Shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMulTransB shape mismatch %v x %v", a.Shape, b.Shape))
	}
	checkDst("MatMulTransBInto", dst, m, n)
	matMulTransBKernel(dst.Data, a.Data, b.Data, m, k, n)
}

// matMulTransBKernel dispatches C = A·Bᵀ. The rows of B are the columns of
// the effective right operand, so packRowsT re-interleaves them into exactly
// the NR-wide panel layout microMatMulRows streams; small products keep the
// reference 4-wide dot kernel. Both paths sum each output element over p
// ascending, so they are bit-identical.
func matMulTransBKernel(c, a, b []float64, m, k, n int) {
	if m*k*n < smallCutoff {
		if ParallelInline(m) {
			refMatMulTransBRows(c, a, b, 0, m, k, n)
		} else {
			Parallel(m, func(lo, hi int) {
				refMatMulTransBRows(c, a, b, lo, hi, k, n)
			})
		}
		return
	}
	mr := tileMR
	bp := DefaultArena.GetSlice(n * k)
	packRowsT(bp, b, n, k, k, tileNR)
	if ParallelInline(m) {
		microMatMulRows(c, a, bp, 0, m, k, n, mr)
	} else {
		Parallel(m, func(lo, hi int) {
			microMatMulRows(c, a, bp, lo, hi, k, n, mr)
		})
	}
	DefaultArena.PutSlice(bp)
}

// Transpose returns Aᵀ for a rank-2 tensor.
func Transpose(a *Tensor) *Tensor {
	if a.Rank() != 2 {
		panic("tensor: Transpose requires a rank-2 operand")
	}
	t := New(a.Shape[1], a.Shape[0])
	TransposeInto(t, a)
	return t
}

// TransposeInto writes Aᵀ into dst, tiled so both matrices are visited in
// cache-line-sized blocks.
func TransposeInto(dst, a *Tensor) {
	if a.Rank() != 2 {
		panic("tensor: Transpose requires a rank-2 operand")
	}
	m, n := a.Shape[0], a.Shape[1]
	checkDst("TransposeInto", dst, n, m)
	const tile = 32
	for ii := 0; ii < m; ii += tile {
		ih := min(ii+tile, m)
		for jj := 0; jj < n; jj += tile {
			jh := min(jj+tile, n)
			for i := ii; i < ih; i++ {
				row := a.Data[i*n:]
				for j := jj; j < jh; j++ {
					dst.Data[j*m+i] = row[j]
				}
			}
		}
	}
}
