package tensor

// defaultTileMR makes the tile 4×4 on amd64: the drivers in micro.go route
// its aligned interior through the packed-double kernels below, which is
// what lifts the hot path past the ~2 flops/cycle scalar SSE ceiling the
// pure-Go kernels top out at.
const defaultTileMR = 4

// mm4x4sse advances a 4×4 tile over the full-k packed panels ap (4-wide A
// interleave) and bp (4-wide B interleave) with SSE2 packed-double
// arithmetic, accumulating in XMM registers across the whole k extent.
// accum != 0 seeds the accumulators from the C tile at c (row stride ldc
// elements); accum == 0 seeds them with +0. The finished tile is stored
// back to c. Per-lane IEEE semantics keep every element bit-identical to
// the scalar kernels.
//
//go:noescape
func mm4x4sse(ap, bp *float64, k int, c *float64, ldc int, accum int)

// mm4x4avx is the AVX twin of mm4x4sse: one YMM register per accumulator
// row, VMULPD+VADDPD (never FMA — fusing would change the rounding and
// break bit-identity with the scalar kernels). Only called when hasAVX.
//
//go:noescape
func mm4x4avx(ap, bp *float64, k int, c *float64, ldc int, accum int)

// cpuHasAVX reports AVX support with OS-enabled YMM state (CPUID+XGETBV).
func cpuHasAVX() bool

// hasAVX is probed once; amd64 guarantees only SSE2, so the AVX kernel
// needs this runtime gate.
var hasAVX = cpuHasAVX()

// mm4x4tile routes a 4×4 tile invocation to the widest vector kernel the
// host supports. Both targets are bit-identical; only throughput differs.
func mm4x4tile(ap, bp *float64, k int, c *float64, ldc int, accum int) {
	if hasAVX {
		mm4x4avx(ap, bp, k, c, ldc, accum)
	} else {
		mm4x4sse(ap, bp, k, c, ldc, accum)
	}
}
