// Package gmreg is the public face of the adaptive Gaussian-Mixture
// regularization tool (Luo et al., "Adaptive Lightweight Regularization Tool
// for Complex Analytics", ICDE 2018).
//
// The tool replaces hand-tuned penalties (L1, L2, Elastic-net, Huber) with a
// zero-mean Gaussian Mixture prior that is learned from the intermediate
// model parameters while they train: a lightweight EM step runs interleaved
// with SGD and the mixture's regularization gradient is fed back to the
// optimizer. A lazy-update schedule amortizes the EM cost (~4× cheaper).
//
// Minimal use, for any model that exposes its parameters as []float64:
//
//	g := gmreg.MustNewGM(len(w), gmreg.DefaultConfig(0.1))
//	greg := make([]float64, len(w))
//	for it := 0; it < steps; it++ {
//		gll := computeDataGradient(w)
//		g.Grad(w, greg) // E-step + M-step per the lazy schedule
//		for i := range w {
//			w[i] -= lr * (gll[i] + greg[i]/float64(nSamples))
//		}
//	}
//
// The subpackages under internal provide everything the paper's evaluation
// needs: a from-scratch deep-learning engine (internal/nn), model builders
// (internal/models), synthetic datasets with real preprocessing
// (internal/data), trainers (internal/train), the evaluation protocol
// (internal/eval) and the experiment harness that regenerates every table
// and figure (internal/bench).
package gmreg

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"gmreg/internal/core"
	"gmreg/internal/obs"
	"gmreg/internal/reg"
	"gmreg/internal/serve"
	"gmreg/internal/store"
)

// Re-exported core types: the adaptive regularizer and its configuration.
type (
	// GM is the adaptive Gaussian-Mixture regularizer for one parameter
	// group. See internal/core for the full method set.
	GM = core.GM
	// Config is the GM hyper-parameter set.
	Config = core.Config
	// InitMethod selects the precision initialization strategy.
	InitMethod = core.InitMethod
	// Prior is the family-agnostic prior interface every regularizer the
	// tool ships implements: the adaptive GM, the EP-GIG scale mixtures,
	// the informative (fine-tune) prior, and the degenerate fixed
	// baselines. It subsumes Regularizer.
	Prior = core.Prior
	// PriorSnapshot is the family-tagged serializable capture of a Prior.
	PriorSnapshot = core.PriorSnapshot
	// Regularizer is the interface shared by GM and the fixed baselines.
	Regularizer = reg.Regularizer
	// Factory builds a fresh Regularizer per parameter group.
	Factory = reg.Factory
	// Sink receives structured telemetry events (see internal/obs); pass
	// one to New via WithSink or to a trainer's SGDConfig.
	Sink = obs.Sink
	// Event is one structured telemetry record.
	Event = obs.Event
	// Metrics is a named-metric registry with a Prometheus text exporter.
	Metrics = obs.Registry
)

// Re-exported prior family identifiers (see internal/core).
const (
	FamilyGM          = core.FamilyGM
	FamilyLaplace     = core.FamilyLaplace
	FamilyStudentT    = core.FamilyStudentT
	FamilySlope       = core.FamilySlope
	FamilyInformative = core.FamilyInformative
	FamilyFixed       = core.FamilyFixed
)

// Discard is the no-op sink: instrumentation stays wired, every event is
// dropped, and observed computations are bit-identical to unobserved ones.
var Discard = obs.Discard

// Re-exported initialization methods (paper §V-E).
const (
	InitLinear       = core.InitLinear
	InitIdentical    = core.InitIdentical
	InitProportional = core.InitProportional
)

// GammaGrid is the paper's search grid for the γ hyper-parameter (b = γ·M).
var GammaGrid = core.GammaGrid

// DefaultConfig returns the paper's hyper-parameter recipe for a parameter
// group initialized with the given standard deviation.
func DefaultConfig(initStd float64) Config { return core.DefaultConfig(initStd) }

// NewGM builds a GM regularizer for a parameter group with m dimensions.
func NewGM(m int, cfg Config) (*GM, error) { return core.NewGM(m, cfg) }

// MustNewGM is NewGM that panics on error.
func MustNewGM(m int, cfg Config) *GM { return core.MustNewGM(m, cfg) }

// PriorSpec selects and parameterizes a prior family for New/WithPrior.
// Construct one with the family constructors (GMPrior, LaplacePrior,
// StudentTPrior, SlopePrior, InformativePrior, InformativePriorFromStore)
// rather than by hand; the zero value is not a valid spec.
type PriorSpec struct {
	// Family is the family identifier (FamilyGM, FamilyLaplace, …).
	Family string
	// Alpha is the Student-t mixing shape (degrees of freedom = 2·Alpha);
	// non-positive values default to 1.
	Alpha float64
	// Beta and MinRatio parameterize the SLOPE weight sequence (largest
	// rank weight and smallest/largest ratio).
	Beta     float64
	MinRatio float64
	// Means are the informative prior's reference weights, one vector per
	// regularized parameter group in network parameter order (the order a
	// Factory is called in). Tau is the initial pull precision toward the
	// reference; non-positive defers to the per-group recipe.
	Means [][]float64
	Tau   float64

	fixed reg.Regularizer // degenerate fixed penalty, set by the baselines
}

// GMPrior selects the paper's adaptive zero-mean Gaussian-mixture prior —
// the default family when no WithPrior option is given.
func GMPrior() PriorSpec { return PriorSpec{Family: FamilyGM} }

// LaplacePrior selects the EP-GIG Laplace scale mixture: the EM view of L1
// whose rate λ is learned online instead of hand-tuned.
func LaplacePrior() PriorSpec { return PriorSpec{Family: FamilyLaplace} }

// StudentTPrior selects the EP-GIG Student-t scale mixture with mixing shape
// alpha (degrees of freedom 2·alpha; non-positive defaults to 1).
func StudentTPrior(alpha float64) PriorSpec {
	return PriorSpec{Family: FamilyStudentT, Alpha: alpha}
}

// SlopePrior selects the sorted-L1 (SLOPE) penalty with rank weights
// decaying linearly from beta to beta·minRatio — a stateless degenerate
// prior (nothing is learned or checkpointed).
func SlopePrior(beta, minRatio float64) PriorSpec {
	return PriorSpec{Family: FamilySlope, Beta: beta, MinRatio: minRatio}
}

// InformativePrior selects a Gaussian prior centered on explicit reference
// weights, one vector per regularized parameter group in network parameter
// order. tau is the initial pull precision (non-positive defers to the
// per-group recipe); the precision is then adapted online.
func InformativePrior(tau float64, means ...[]float64) PriorSpec {
	return PriorSpec{Family: FamilyInformative, Tau: tau, Means: means}
}

// InformativePriorFromStore loads the reference checkpoint stored under key
// in the store snapshot at path and centers an informative prior on its
// regularized weights — the fine-tune-from-checkpoint workflow: train a
// model, save it with gmreg-train -save, then start a new run whose prior
// mean is the saved model. The checkpoint is rebuilt eagerly so a missing
// or corrupt reference fails here, not mid-training.
func InformativePriorFromStore(path, key string, tau float64) (PriorSpec, error) {
	st, err := store.LoadFile(path)
	if err != nil {
		return PriorSpec{}, fmt.Errorf("gmreg: loading reference store: %w", err)
	}
	blob, _, err := st.Get(key)
	if err != nil {
		return PriorSpec{}, fmt.Errorf("gmreg: reference checkpoint %q: %w", key, err)
	}
	ckpt, err := serve.UnmarshalCheckpoint(blob)
	if err != nil {
		return PriorSpec{}, fmt.Errorf("gmreg: reference checkpoint %q: %w", key, err)
	}
	net, err := ckpt.Build()
	if err != nil {
		return PriorSpec{}, fmt.Errorf("gmreg: rebuilding reference checkpoint %q: %w", key, err)
	}
	var means [][]float64
	for _, p := range net.Params() {
		if !p.Regularize {
			continue
		}
		w := p.W
		// A saved logistic regression is stored as its two-class softmax
		// equivalent (models.LogRegNetwork): row 0 all-zero, row 1 the
		// logistic weights. The logreg trainer regularizes the In-dim
		// logistic vector, so center the prior on row 1, not the 2·In
		// dense matrix.
		if ckpt.Spec.Family == "logreg" {
			w = w[ckpt.Spec.In:]
		}
		means = append(means, append([]float64(nil), w...))
	}
	if len(means) == 0 {
		return PriorSpec{}, fmt.Errorf("gmreg: reference checkpoint %q has no regularized parameter groups", key)
	}
	return PriorSpec{Family: FamilyInformative, Tau: tau, Means: means}, nil
}

// Option configures New. One option vocabulary covers the prior family
// (WithPrior), the per-group hyper-parameters (WithConfig) and the
// observability hooks (WithSink, WithMetrics), so a fully instrumented
// factory reads as one coherent call:
//
//	gmreg.New(
//		gmreg.WithPrior(gmreg.LaplacePrior()),
//		gmreg.WithConfig(func(c *gmreg.Config) { c.Gamma = 0.002 }),
//		gmreg.WithSink(sink),      // merge events
//		gmreg.WithMetrics(reg),    // E/M-step latency histograms
//	)
type Option func(*factoryOptions)

type factoryOptions struct {
	prior   *PriorSpec
	conf    []func(*Config)
	sink    obs.Sink
	metrics *obs.Registry
}

// WithPrior selects the prior family the factory builds per parameter
// group. Without it the factory produces the paper's adaptive GM.
func WithPrior(spec PriorSpec) Option {
	return func(o *factoryOptions) { o.prior = &spec }
}

// WithConfig applies an arbitrary mutation to every per-group Config the
// factory builds (after the automatic recipe, before validation).
func WithConfig(f func(*Config)) Option {
	return func(o *factoryOptions) { o.conf = append(o.conf, f) }
}

// WithSink subscribes a sink to the factory's GMs: every component merge is
// emitted as an obs.Merge event. The factory has no layer names, so groups
// are labeled by creation order ("g0", "g1", …), which matches network
// parameter order. Emission never alters the computation.
func WithSink(s Sink) Option {
	return func(o *factoryOptions) { o.sink = s }
}

// WithMetrics registers aggregate E-step and M-step latency histograms
// (gmreg_gm_estep_seconds, gmreg_gm_mstep_seconds) in r and wires every GM
// the factory creates to observe into them.
func WithMetrics(r *Metrics) Option {
	return func(o *factoryOptions) { o.metrics = r }
}

// New returns a Factory producing one prior per parameter group — the
// adaptive GM by default, or the family selected with WithPrior — using the
// automatic recipe anchored at each group's initialization scale. Options
// mutate the per-group config (e.g. to pick γ from GammaGrid) and attach
// observability hooks; with no observability options the priors carry no
// hooks and run exactly as before.
func New(opts ...Option) Factory {
	var o factoryOptions
	for _, opt := range opts {
		opt(&o)
	}
	spec := GMPrior()
	if o.prior != nil {
		spec = *o.prior
	}
	var eStep, mStep *obs.Histogram
	if o.metrics != nil {
		eStep = o.metrics.Histogram("gmreg_gm_estep_seconds",
			"GM E-step (responsibility update) latency.", obs.DefLatencyBuckets)
		mStep = o.metrics.Histogram("gmreg_gm_mstep_seconds",
			"GM M-step (parameter update) latency.", obs.DefLatencyBuckets)
	}
	var groups atomic.Int64
	means := newMeanCursor(spec.Means)
	return func(m int, initStd float64) Regularizer {
		cfg := core.DefaultConfig(initStd)
		for _, f := range o.conf {
			f(&cfg)
		}
		p := buildPrior(spec, m, cfg, means)
		if o.sink == nil && o.metrics == nil {
			return p
		}
		group := fmt.Sprintf("g%d", groups.Add(1)-1)
		h := &core.Hooks{}
		if eStep != nil {
			h.EStep = func(d time.Duration) { eStep.Observe(d.Seconds()) }
		}
		if mStep != nil {
			h.MStep = func(d time.Duration) { mStep.Observe(d.Seconds()) }
		}
		if o.sink != nil {
			sink := o.sink
			h.Merge = func(fromK, toK, mSteps int) {
				sink.Emit(obs.Merge{Group: group, FromK: fromK, ToK: toK, MStep: mSteps})
			}
		}
		p.SetHooks(h)
		return p
	}
}

// buildPrior constructs one per-group prior for the spec; construction
// errors panic like MustNewGM (a Factory has no error return and these are
// configuration mistakes, caught before any training step).
func buildPrior(spec PriorSpec, m int, cfg Config, means *meanCursor) core.Prior {
	switch spec.Family {
	case FamilyGM:
		return core.MustNewGM(m, cfg)
	case FamilyLaplace:
		p, err := core.NewLaplace(m, cfg)
		if err != nil {
			panic(err)
		}
		return p
	case FamilyStudentT:
		alpha := spec.Alpha
		if alpha <= 0 {
			alpha = 1
		}
		p, err := core.NewStudentT(m, alpha, cfg)
		if err != nil {
			panic(err)
		}
		return p
	case FamilySlope:
		return core.NewFixed(FamilySlope, reg.SLOPE{Beta: spec.Beta, MinRatio: spec.MinRatio})
	case FamilyInformative:
		tau := spec.Tau
		if tau <= 0 {
			tau = cfg.MinPrecision
		}
		p, err := core.NewInformative(means.next(m), tau, cfg)
		if err != nil {
			panic(err)
		}
		return p
	case FamilyFixed:
		if spec.fixed == nil {
			panic("gmreg: fixed PriorSpec without a penalty — use NoReg/L1/L2/ElasticNet/Huber")
		}
		return core.NewFixed(FamilyFixed, spec.fixed)
	default:
		panic(fmt.Sprintf("gmreg: unknown prior family %q", spec.Family))
	}
}

// meanCursor hands out the informative prior's reference mean vectors in
// factory-call order, which is network parameter order — the same order
// InformativePriorFromStore collected them in. Dimension mismatches scan
// forward (with wraparound) to the next group of the right size, so a
// partially matching architecture still fine-tunes its matching layers.
type meanCursor struct {
	mu    sync.Mutex
	means [][]float64
	next_ int
}

func newMeanCursor(means [][]float64) *meanCursor {
	return &meanCursor{means: means}
}

func (c *meanCursor) next(m int) []float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := len(c.means)
	if n == 0 {
		panic("gmreg: informative prior has no reference means — use InformativePrior or InformativePriorFromStore")
	}
	for k := 0; k < n; k++ {
		j := (c.next_ + k) % n
		if len(c.means[j]) == m {
			c.next_ = j + 1
			return c.means[j]
		}
	}
	panic(fmt.Sprintf("gmreg: informative prior has no reference group with %d dims (reference has %d groups)", m, n))
}

// Fixed-baseline factories, for comparison runs. Each baseline is expressed
// as a degenerate fixed prior (core.Fixed) through the same Prior interface
// the adaptive families implement, so trainers, telemetry, and checkpointing
// see one uniform surface; being stateless, the priors carry no checkpoint
// state and a single instance serves every parameter group.

// fixedPrior wraps a stateless penalty as a shared degenerate prior factory.
func fixedPrior(r reg.Regularizer) Factory {
	p := core.NewFixed(FamilyFixed, r)
	return func(m int, initStd float64) Regularizer { return p }
}

// NoReg returns the "no regularization" factory.
func NoReg() Factory { return fixedPrior(reg.None{}) }

// L1 returns an L1-norm (Lasso) factory with strength beta.
func L1(beta float64) Factory { return fixedPrior(reg.L1{Beta: beta}) }

// L2 returns an L2-norm (weight decay) factory with strength beta.
func L2(beta float64) Factory { return fixedPrior(reg.L2{Beta: beta}) }

// ElasticNet returns an Elastic-net factory with strength beta and the given
// L1 proportion.
func ElasticNet(beta, l1Ratio float64) Factory {
	return fixedPrior(reg.ElasticNet{Beta: beta, L1Ratio: l1Ratio})
}

// Huber returns a Huber-norm factory with strength beta and threshold mu.
func Huber(beta, mu float64) Factory { return fixedPrior(reg.Huber{Beta: beta, Mu: mu}) }

// Slope returns a sorted-L1 (SLOPE) factory with the rank weights decaying
// linearly from beta to beta·minRatio.
func Slope(beta, minRatio float64) Factory {
	p := core.NewFixed(FamilySlope, reg.SLOPE{Beta: beta, MinRatio: minRatio})
	return func(m int, initStd float64) Regularizer { return p }
}
