package tensor

import (
	"fmt"
	"testing"
)

// Benchmarks comparing this platform's micro-kernel tile with the portable
// 2×4 tile on the hotpath harness shapes. Run with
//
//	go test ./internal/tensor/ -run=NONE -bench=Micro -benchtime=200ms
//
// gmreg-bench -exp hotpath compares the tile against the reference kernels.

func benchTiles(b *testing.B, run func(b *testing.B)) {
	for _, mr := range tileMRs() {
		b.Run(fmt.Sprintf("tile=%dx%d", mr, tileNR), func(b *testing.B) {
			setKernel(b, mr, smallCutoff)
			run(b)
		})
	}
}

func benchMicroMatMul(b *testing.B, m, k, n int) {
	rng := NewRNG(11)
	a, bb := New(m, k), New(k, n)
	dst := New(m, n)
	rng.FillNormal(a.Data, 0, 1)
	rng.FillNormal(bb.Data, 0, 1)
	benchTiles(b, func(b *testing.B) {
		MatMulInto(dst, a, bb)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			MatMulInto(dst, a, bb)
		}
	})
}

func BenchmarkMicroMatMul128(b *testing.B) { benchMicroMatMul(b, 128, 128, 128) }

func BenchmarkMicroMatMulConv(b *testing.B) { benchMicroMatMul(b, 256, 800, 32) }

func BenchmarkMicroTransBConv(b *testing.B) {
	rng := NewRNG(12)
	a, bb := New(256, 800), New(32, 800)
	dst := New(256, 32)
	rng.FillNormal(a.Data, 0, 1)
	rng.FillNormal(bb.Data, 0, 1)
	benchTiles(b, func(b *testing.B) {
		MatMulTransBInto(dst, a, bb)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			MatMulTransBInto(dst, a, bb)
		}
	})
}

func BenchmarkMicroTransAConv(b *testing.B) {
	rng := NewRNG(13)
	a, bb := New(256, 32), New(256, 800)
	dst := New(32, 800)
	rng.FillNormal(a.Data, 0, 1)
	rng.FillNormal(bb.Data, 0, 1)
	benchTiles(b, func(b *testing.B) {
		MatMulTransAInto(dst, a, bb)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			MatMulTransAInto(dst, a, bb)
		}
	})
}
