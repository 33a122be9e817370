package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"testing"
	"time"

	"gmreg/internal/core"
	"gmreg/internal/nn"
	"gmreg/internal/obs"
	"gmreg/internal/tensor"
)

// The hotpath experiment quantifies the zero-allocation training hot path:
// for each hot kernel it benchmarks the allocating API (the pre-arena
// behavior: fresh output and scratch per call) against the pooled *Into API
// the layers use, and emits the comparison as BENCH_hotpath.json so CI can
// track regressions. The conv cases reconstruct the old per-sample
// allocating composition (Im2Col + MatMulTransB + MatMul + MatMulTransA with
// fresh tensors) against the arena-backed nn.Conv2D layer.
//
// Both sides share today's blocked/packed inner kernels, so the deltas below
// isolate allocation and buffer reuse; the wall-clock gains from the blocked
// kernels themselves versus the pre-PR naive loops are recorded in DESIGN.md
// §"Performance architecture".

// HotpathResult is one measured benchmark side.
type HotpathResult struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// HotpathCase pairs the allocating baseline with the pooled implementation.
type HotpathCase struct {
	Name     string        `json:"name"`
	Baseline HotpathResult `json:"baseline"`
	After    HotpathResult `json:"after"`
	// Speedup is baseline ns/op divided by after ns/op.
	Speedup float64 `json:"speedup"`
}

// HotpathReport is the full comparison written to BENCH_hotpath.json.
type HotpathReport struct {
	Env Env `json:"env"`
	// ScalingValid is false when the run could not realize parallelism
	// (effective GOMAXPROCS < 2); ScalingNote says why. Single-thread
	// speedups (the micro-kernel rows) remain meaningful either way.
	ScalingValid bool          `json:"scaling_valid"`
	ScalingNote  string        `json:"scaling_note,omitempty"`
	Cases        []HotpathCase `json:"cases"`
}

// HotpathJSONPath is where the hotpath experiment writes its JSON report.
const HotpathJSONPath = "BENCH_hotpath.json"

func measureBench(f func(b *testing.B)) HotpathResult {
	r := testing.Benchmark(f)
	return HotpathResult{
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
	}
}

// RunHotpath benchmarks the allocating kernels against their pooled
// counterparts and prints the comparison table.
func RunHotpath(w io.Writer, _ Scale) (*HotpathReport, error) {
	env := CaptureEnv()
	rep := &HotpathReport{
		Env:          env,
		ScalingValid: env.ScalingInvalidReason() == "",
		ScalingNote:  env.ScalingInvalidReason(),
	}
	rng := tensor.NewRNG(1)

	// MatMul 128×128×128 — the dense-layer shape class. The -micro row pins
	// the same shape against the PR-1 blocked kernel (Ref*Into), isolating
	// the register-blocked micro-kernel win from the allocation win.
	{
		a, b := tensor.New(128, 128), tensor.New(128, 128)
		dst := tensor.New(128, 128)
		rng.FillNormal(a.Data, 0, 1)
		rng.FillNormal(b.Data, 0, 1)
		rep.add("matmul-128",
			func(bb *testing.B) {
				for i := 0; i < bb.N; i++ {
					tensor.MatMul(a, b)
				}
			},
			func(bb *testing.B) {
				for i := 0; i < bb.N; i++ {
					tensor.MatMulInto(dst, a, b)
				}
			})
		rep.add("matmul-128-micro",
			func(bb *testing.B) {
				for i := 0; i < bb.N; i++ {
					tensor.RefMatMulInto(dst, a, b)
				}
			},
			func(bb *testing.B) {
				for i := 0; i < bb.N; i++ {
					tensor.MatMulInto(dst, a, b)
				}
			})
	}

	// A·Bᵀ on the conv im2col geometry (spatial × inC·kh·kw by outC rows).
	{
		a, b := tensor.New(256, 800), tensor.New(32, 800)
		dst := tensor.New(256, 32)
		rng.FillNormal(a.Data, 0, 1)
		rng.FillNormal(b.Data, 0, 1)
		rep.add("matmul-transB-conv",
			func(bb *testing.B) {
				for i := 0; i < bb.N; i++ {
					tensor.MatMulTransB(a, b)
				}
			},
			func(bb *testing.B) {
				for i := 0; i < bb.N; i++ {
					tensor.MatMulTransBInto(dst, a, b)
				}
			})
		rep.add("matmul-transB-conv-micro",
			func(bb *testing.B) {
				for i := 0; i < bb.N; i++ {
					tensor.RefMatMulTransBInto(dst, a, b)
				}
			},
			func(bb *testing.B) {
				for i := 0; i < bb.N; i++ {
					tensor.MatMulTransBInto(dst, a, b)
				}
			})
	}

	// Aᵀ·B on the conv weight-gradient geometry.
	{
		a, b := tensor.New(256, 32), tensor.New(256, 800)
		dst := tensor.New(32, 800)
		rng.FillNormal(a.Data, 0, 1)
		rng.FillNormal(b.Data, 0, 1)
		rep.add("matmul-transA-conv",
			func(bb *testing.B) {
				for i := 0; i < bb.N; i++ {
					tensor.MatMulTransA(a, b)
				}
			},
			func(bb *testing.B) {
				for i := 0; i < bb.N; i++ {
					tensor.MatMulTransAInto(dst, a, b)
				}
			})
		rep.add("matmul-transA-conv-micro",
			func(bb *testing.B) {
				for i := 0; i < bb.N; i++ {
					tensor.RefMatMulTransAInto(dst, a, b)
				}
			},
			func(bb *testing.B) {
				for i := 0; i < bb.N; i++ {
					tensor.MatMulTransAInto(dst, a, b)
				}
			})
	}

	// Im2Col on a 32-channel 32×32 image with a 5×5 kernel.
	{
		const c, h, wd = 32, 32, 32
		img := make([]float64, c*h*wd)
		rng.FillNormal(img, 0, 1)
		cols := tensor.New(h*wd, c*5*5)
		rep.add("im2col-32x32x32-k5",
			func(bb *testing.B) {
				for i := 0; i < bb.N; i++ {
					tensor.Im2Col(img, c, h, wd, 5, 5, 1, 2)
				}
			},
			func(bb *testing.B) {
				for i := 0; i < bb.N; i++ {
					tensor.Im2ColInto(cols, img, c, h, wd, 5, 5, 1, 2)
				}
			})
	}

	// Conv2D forward/backward, batch 8: old allocating composition against
	// the arena-backed layer.
	for _, batch := range []int{8, 64} {
		crng := tensor.NewRNG(2)
		layer := nn.NewConv2D("hot", 32, 32, 5, 1, 2, 0.1, crng)
		ref := newAllocConv(32, 32, 5, 1, 2, crng)
		x := tensor.New(batch, 32, 16, 16)
		crng.FillNormal(x.Data, 0, 1)
		y := layer.Forward(x, true)
		dy := tensor.New(y.Shape...)
		crng.FillNormal(dy.Data, 0, 1)

		rep.add(fmt.Sprintf("conv2d-forward-%d", batch),
			func(bb *testing.B) {
				for i := 0; i < bb.N; i++ {
					ref.forward(x)
				}
			},
			func(bb *testing.B) {
				for i := 0; i < bb.N; i++ {
					layer.Forward(x, true)
				}
			})
		rep.add(fmt.Sprintf("conv2d-backward-%d", batch),
			func(bb *testing.B) {
				for i := 0; i < bb.N; i++ {
					ref.backward(x, dy)
				}
			},
			func(bb *testing.B) {
				for i := 0; i < bb.N; i++ {
					layer.Backward(dy)
				}
			})
	}

	// GM responsibility (Eq. 9): per-call log-space scratch against the
	// reused scratch.
	{
		const m = 89440
		g := core.MustNewGM(m, core.DefaultConfig(0.1))
		grng := tensor.NewRNG(3)
		wv := make([]float64, m)
		grng.FillNormal(wv, 0, 0.2)
		k := g.K()
		rep.add("gm-calresponsibility",
			func(bb *testing.B) {
				for i := 0; i < bb.N; i++ {
					// Emulate the pre-PR per-call scratch allocation.
					_ = make([]float64, k)
					_ = make([]float64, k)
					_ = make([]float64, k)
					g.CalResponsibility(wv)
				}
			},
			func(bb *testing.B) {
				for i := 0; i < bb.N; i++ {
					g.CalResponsibility(wv)
				}
			})
	}

	// Observability overhead: the identical Grad loop with E/M-step timing
	// hooks feeding live obs histograms ("after") against bare hooks-nil GMs
	// ("baseline"). The obs contract is <2% wall-time overhead when enabled,
	// so this row's speedup must stay ≈1.0; CI tracks it via the JSON.
	{
		const m = 89440
		grng := tensor.NewRNG(3)
		wv := make([]float64, m)
		grng.FillNormal(wv, 0, 0.2)
		dst := make([]float64, m)
		mkGM := func(hooked bool) *core.GM {
			g := core.MustNewGM(m, core.DefaultConfig(0.1))
			if hooked {
				r := obs.NewRegistry()
				e := r.Histogram("bench_gm_estep_seconds", "", obs.DefLatencyBuckets)
				ms := r.Histogram("bench_gm_mstep_seconds", "", obs.DefLatencyBuckets)
				g.SetHooks(&core.Hooks{
					EStep: func(d time.Duration) { e.Observe(d.Seconds()) },
					MStep: func(d time.Duration) { ms.Observe(d.Seconds()) },
				})
			}
			return g
		}
		plain, hooked := mkGM(false), mkGM(true)
		rep.add("gm-grad-instrumented",
			func(bb *testing.B) {
				for i := 0; i < bb.N; i++ {
					plain.Grad(wv, dst)
				}
			},
			func(bb *testing.B) {
				for i := 0; i < bb.N; i++ {
					hooked.Grad(wv, dst)
				}
			})
	}

	sectionHeader(w, "Hot-path comparison (baseline = allocating APIs; -micro rows = PR-1 blocked kernels)")
	fmt.Fprintf(w, "gomaxprocs=%d num_cpu=%d\n", env.GOMAXPROCS, env.NumCPU)
	env.warnScaling(w)
	t := newTable("case", "base ns/op", "base allocs", "base B/op", "pooled ns/op", "pooled allocs", "pooled B/op", "speedup")
	for _, c := range rep.Cases {
		t.addRowf("%s|%.0f|%d|%d|%.0f|%d|%d|%.2fx",
			c.Name, c.Baseline.NsPerOp, c.Baseline.AllocsPerOp, c.Baseline.BytesPerOp,
			c.After.NsPerOp, c.After.AllocsPerOp, c.After.BytesPerOp, c.Speedup)
	}
	t.write(w)
	return rep, nil
}

func (r *HotpathReport) add(name string, baseline, after func(b *testing.B)) {
	base := measureBench(baseline)
	aft := measureBench(after)
	speedup := 0.0
	if aft.NsPerOp > 0 {
		speedup = base.NsPerOp / aft.NsPerOp
	}
	r.Cases = append(r.Cases, HotpathCase{Name: name, Baseline: base, After: aft, Speedup: speedup})
}

// WriteHotpathJSON writes the report as indented JSON.
func WriteHotpathJSON(path string, rep *HotpathReport) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// allocConv reconstructs the pre-arena Conv2D data path: every Forward and
// Backward allocates its im2col/output/gradient tensors afresh.
type allocConv struct {
	inC, outC, kh, kw, stride, pad int
	wm                             *tensor.Tensor
	bias                           []float64
}

func newAllocConv(inC, outC, k, stride, pad int, rng *tensor.RNG) *allocConv {
	wm := tensor.New(outC, inC*k*k)
	rng.FillNormal(wm.Data, 0, 0.1)
	return &allocConv{inC: inC, outC: outC, kh: k, kw: k, stride: stride, pad: pad,
		wm: wm, bias: make([]float64, outC)}
}

func (c *allocConv) forward(x *tensor.Tensor) *tensor.Tensor {
	n, ch, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	outH := tensor.ConvOutSize(h, c.kh, c.stride, c.pad)
	outW := tensor.ConvOutSize(w, c.kw, c.stride, c.pad)
	spatial := outH * outW
	imgLen := ch * h * w
	y := tensor.New(n, c.outC, outH, outW)
	for s := 0; s < n; s++ {
		img := x.Data[s*imgLen : (s+1)*imgLen]
		cols := tensor.Im2Col(img, ch, h, w, c.kh, c.kw, c.stride, c.pad)
		out := tensor.MatMulTransB(cols, c.wm)
		dst := y.Data[s*c.outC*spatial : (s+1)*c.outC*spatial]
		for p := 0; p < spatial; p++ {
			row := out.Data[p*c.outC : (p+1)*c.outC]
			for oc, v := range row {
				dst[oc*spatial+p] = v + c.bias[oc]
			}
		}
	}
	return y
}

func (c *allocConv) backward(x, dy *tensor.Tensor) *tensor.Tensor {
	n, ch, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	outH := tensor.ConvOutSize(h, c.kh, c.stride, c.pad)
	outW := tensor.ConvOutSize(w, c.kw, c.stride, c.pad)
	spatial := outH * outW
	imgLen := ch * h * w
	dx := tensor.New(x.Shape...)
	dwSum := make([]float64, len(c.wm.Data))
	for s := 0; s < n; s++ {
		img := x.Data[s*imgLen : (s+1)*imgLen]
		cols := tensor.Im2Col(img, ch, h, w, c.kh, c.kw, c.stride, c.pad)
		dyMat := tensor.New(spatial, c.outC)
		src := dy.Data[s*c.outC*spatial : (s+1)*c.outC*spatial]
		for oc := 0; oc < c.outC; oc++ {
			for sp := 0; sp < spatial; sp++ {
				dyMat.Data[sp*c.outC+oc] = src[oc*spatial+sp]
			}
		}
		dw := tensor.MatMulTransA(dyMat, cols)
		tensor.Axpy(1, dw.Data, dwSum)
		dcols := tensor.MatMul(dyMat, c.wm)
		tensor.Col2Im(dcols, dx.Data[s*imgLen:(s+1)*imgLen],
			ch, h, w, c.kh, c.kw, c.stride, c.pad)
	}
	return dx
}
