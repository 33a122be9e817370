package tensor

import "testing"

func benchmarkMatMul(b *testing.B, m, k, n int) {
	rng := NewRNG(1)
	x := New(m, k)
	y := New(k, n)
	rng.FillNormal(x.Data, 0, 1)
	rng.FillNormal(y.Data, 0, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMul(x, y)
	}
	b.SetBytes(int64(8 * (m*k + k*n + m*n)))
}

// benchmarkMatMulInto measures the pooled hot path the layers actually use:
// output reused across steps, scratch from the arena.
func benchmarkMatMulInto(b *testing.B, m, k, n int) {
	rng := NewRNG(1)
	x := New(m, k)
	y := New(k, n)
	dst := New(m, n)
	rng.FillNormal(x.Data, 0, 1)
	rng.FillNormal(y.Data, 0, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulInto(dst, x, y)
	}
	b.SetBytes(int64(8 * (m*k + k*n + m*n)))
}

func BenchmarkMatMul128(b *testing.B)      { benchmarkMatMul(b, 128, 128, 128) }
func BenchmarkMatMul512(b *testing.B)      { benchmarkMatMul(b, 512, 512, 512) }
func BenchmarkMatMulTall(b *testing.B)     { benchmarkMatMul(b, 1024, 75, 32) }
func BenchmarkMatMulInto128(b *testing.B)  { benchmarkMatMulInto(b, 128, 128, 128) }
func BenchmarkMatMulInto512(b *testing.B)  { benchmarkMatMulInto(b, 512, 512, 512) }
func BenchmarkMatMulIntoTall(b *testing.B) { benchmarkMatMulInto(b, 1024, 75, 32) }

func BenchmarkMatMulTransBInto(b *testing.B) {
	rng := NewRNG(5)
	x := New(256, 800)  // conv im2col geometry: spatial × inC·kh·kw
	w := New(32, 800)   // filter bank
	dst := New(256, 32) // spatial × outC
	rng.FillNormal(x.Data, 0, 1)
	rng.FillNormal(w.Data, 0, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulTransBInto(dst, x, w)
	}
}

func BenchmarkMatMulTransAInto(b *testing.B) {
	rng := NewRNG(6)
	dyMat := New(256, 32)
	cols := New(256, 800)
	dst := New(32, 800)
	rng.FillNormal(dyMat.Data, 0, 1)
	rng.FillNormal(cols.Data, 0, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulTransAInto(dst, dyMat, cols)
	}
}

func BenchmarkIm2Col(b *testing.B) {
	rng := NewRNG(2)
	const c, h, w = 32, 32, 32
	img := make([]float64, c*h*w)
	rng.FillNormal(img, 0, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Im2Col(img, c, h, w, 5, 5, 1, 2)
	}
}

func BenchmarkIm2ColInto(b *testing.B) {
	rng := NewRNG(2)
	const c, h, w = 32, 32, 32
	img := make([]float64, c*h*w)
	rng.FillNormal(img, 0, 1)
	cols := New(h*w, c*5*5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Im2ColInto(cols, img, c, h, w, 5, 5, 1, 2)
	}
}

func BenchmarkCol2Im(b *testing.B) {
	rng := NewRNG(3)
	const c, h, w = 32, 32, 32
	img := make([]float64, c*h*w)
	rng.FillNormal(img, 0, 1)
	cols := Im2Col(img, c, h, w, 5, 5, 1, 2)
	dimg := make([]float64, c*h*w)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range dimg {
			dimg[j] = 0
		}
		Col2Im(cols, dimg, c, h, w, 5, 5, 1, 2)
	}
}

func BenchmarkRNGNormal(b *testing.B) {
	rng := NewRNG(4)
	buf := make([]float64, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rng.FillNormal(buf, 0, 1)
	}
	b.SetBytes(8 * 1024)
}
