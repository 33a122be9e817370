package nn

import (
	"gmreg/internal/tensor"
)

// Conv2D is a 2-D convolution over NCHW batches, implemented by lowering
// each sample with im2col and multiplying against the filter bank. Weights
// have logical shape outC × inC × kh × kw, stored flat.
//
// Forward/Backward reuse per-layer output buffers and draw their im2col and
// gradient scratch from the tensor arena, so a steady-state training step
// performs no heap allocation in this layer.
type Conv2D struct {
	name                 string
	inC, outC            int
	kh, kw, stride, pad  int
	weight               *Param
	bias                 *Param
	wm                   *tensor.Tensor // outC × inC·kh·kw view of weight.W
	x                    *tensor.Tensor // cached input for Backward
	inH, inW, outH, outW int

	yBuf  *tensor.Tensor // reused Forward output
	dxBuf *tensor.Tensor // reused Backward output
}

// NewConv2D builds a convolution layer with Gaussian-initialized filters.
func NewConv2D(name string, inC, outC, k, stride, pad int, initStd float64, rng *tensor.RNG) *Conv2D {
	c := &Conv2D{
		name:   name,
		inC:    inC,
		outC:   outC,
		kh:     k,
		kw:     k,
		stride: stride,
		pad:    pad,
		weight: newParam(name+"/weight", outC*inC*k*k, initStd, true),
		bias:   newParam(name+"/bias", outC, 0, false),
	}
	// Serialization copies into weight.W, so this view stays valid.
	c.wm = tensor.FromSlice(c.weight.W, outC, inC*k*k)
	rng.FillNormal(c.weight.W, 0, initStd)
	return c
}

// Name implements Layer.
func (c *Conv2D) Name() string { return c.name }

// Params implements Layer.
func (c *Conv2D) Params() []*Param { return []*Param{c.weight, c.bias} }

// Forward implements Layer.
func (c *Conv2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	checkRank(c, x, 4)
	n, ch, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	if ch != c.inC {
		panic("nn: " + c.name + ": channel mismatch")
	}
	c.x = x
	c.inH, c.inW = h, w
	c.outH = tensor.ConvOutSize(h, c.kh, c.stride, c.pad)
	c.outW = tensor.ConvOutSize(w, c.kw, c.stride, c.pad)
	y := ensure(&c.yBuf, n, c.outC, c.outH, c.outW)
	// Serial guard: skip closure construction when the pool won't fan out.
	if tensor.ParallelInline(n) {
		c.forwardRange(y, 0, n)
	} else {
		tensor.Parallel(n, func(lo, hi int) { c.forwardRange(y, lo, hi) })
	}
	return y
}

// forwardRange lowers and convolves samples [lo, hi) into y, using scratch
// from the arena so concurrent chunks never share buffers.
func (c *Conv2D) forwardRange(y *tensor.Tensor, lo, hi int) {
	spatial := c.outH * c.outW
	ck := c.inC * c.kh * c.kw
	imgLen := c.inC * c.inH * c.inW
	cols := tensor.DefaultArena.Get(spatial, ck)
	out := tensor.DefaultArena.Get(spatial, c.outC)
	for s := lo; s < hi; s++ {
		img := c.x.Data[s*imgLen : (s+1)*imgLen]
		tensor.Im2ColInto(cols, img, c.inC, c.inH, c.inW, c.kh, c.kw, c.stride, c.pad)
		tensor.MatMulTransBInto(out, cols, c.wm) // spatial × outC
		dst := y.Data[s*c.outC*spatial : (s+1)*c.outC*spatial]
		for p := 0; p < spatial; p++ {
			row := out.Data[p*c.outC : (p+1)*c.outC]
			for oc, v := range row {
				dst[oc*spatial+p] = v + c.bias.W[oc]
			}
		}
	}
	tensor.DefaultArena.Put(cols)
	tensor.DefaultArena.Put(out)
}

// Backward implements Layer. Weight/bias gradients are accumulated into
// per-chunk partials (one per chunk of the fixed partition
// tensor.ParallelChunks(n), drawn from the arena) and reduced in chunk
// order, so the result is lock-free and the same on every host.
func (c *Conv2D) Backward(dy *tensor.Tensor) *tensor.Tensor {
	n := dy.Shape[0]
	dx := ensure(&c.dxBuf, n, c.inC, c.inH, c.inW)
	dx.Zero() // Col2Im accumulates into dx

	wlen := len(c.weight.W)
	chunks := tensor.ParallelChunks(n)
	dwParts := tensor.DefaultArena.GetSlice(chunks * wlen)
	dbParts := tensor.DefaultArena.GetSlice(chunks * c.outC)
	clear(dwParts)
	clear(dbParts)

	if chunks <= 1 {
		c.backwardRange(dy, dx, dwParts, dbParts, 0, n)
	} else {
		tensor.ParallelIndexed(n, func(chunk, lo, hi int) {
			c.backwardRange(dy, dx,
				dwParts[chunk*wlen:(chunk+1)*wlen],
				dbParts[chunk*c.outC:(chunk+1)*c.outC], lo, hi)
		})
	}
	// Deterministic reduce in ascending chunk order.
	for chunk := 0; chunk < chunks; chunk++ {
		tensor.Axpy(1, dwParts[chunk*wlen:(chunk+1)*wlen], c.weight.Grad)
		tensor.Axpy(1, dbParts[chunk*c.outC:(chunk+1)*c.outC], c.bias.Grad)
	}
	tensor.DefaultArena.PutSlice(dwParts)
	tensor.DefaultArena.PutSlice(dbParts)
	return dx
}

// backwardRange processes samples [lo, hi): accumulates weight/bias gradients
// into the chunk-private dwLocal/dbLocal and scatters input gradients into
// the disjoint dx rows for those samples.
func (c *Conv2D) backwardRange(dy, dx *tensor.Tensor, dwLocal, dbLocal []float64, lo, hi int) {
	spatial := c.outH * c.outW
	ck := c.inC * c.kh * c.kw
	imgLen := c.inC * c.inH * c.inW
	cols := tensor.DefaultArena.Get(spatial, ck)
	dyMat := tensor.DefaultArena.Get(spatial, c.outC)
	dw := tensor.DefaultArena.Get(c.outC, ck)
	dcols := tensor.DefaultArena.Get(spatial, ck)
	for s := lo; s < hi; s++ {
		// Re-lower the cached input (cheaper than caching every cols
		// matrix).
		img := c.x.Data[s*imgLen : (s+1)*imgLen]
		tensor.Im2ColInto(cols, img, c.inC, c.inH, c.inW, c.kh, c.kw, c.stride, c.pad)
		// Gather dy for this sample as spatial × outC.
		src := dy.Data[s*c.outC*spatial : (s+1)*c.outC*spatial]
		for oc := 0; oc < c.outC; oc++ {
			var sum float64
			for sp := 0; sp < spatial; sp++ {
				v := src[oc*spatial+sp]
				dyMat.Data[sp*c.outC+oc] = v
				sum += v
			}
			dbLocal[oc] += sum
		}
		// dW += dyMatᵀ · cols  (outC × inC·kh·kw)
		tensor.MatMulTransAInto(dw, dyMat, cols)
		tensor.Axpy(1, dw.Data, dwLocal)
		// dCols = dyMat · W  (spatial × inC·kh·kw), scattered to dx.
		tensor.MatMulInto(dcols, dyMat, c.wm)
		tensor.Col2Im(dcols, dx.Data[s*imgLen:(s+1)*imgLen],
			c.inC, c.inH, c.inW, c.kh, c.kw, c.stride, c.pad)
	}
	tensor.DefaultArena.Put(cols)
	tensor.DefaultArena.Put(dyMat)
	tensor.DefaultArena.Put(dw)
	tensor.DefaultArena.Put(dcols)
}
