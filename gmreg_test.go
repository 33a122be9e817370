package gmreg

import (
	"math"
	"testing"

	"gmreg/internal/core"
)

func TestFacadeGMRoundTrip(t *testing.T) {
	cfg := DefaultConfig(0.1)
	g, err := NewGM(100, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if g.K() != 4 || g.M() != 100 {
		t.Fatalf("K=%d M=%d", g.K(), g.M())
	}
	if _, err := NewGM(0, cfg); err == nil {
		t.Fatal("expected error for M=0")
	}
}

func TestGMFactoryOptions(t *testing.T) {
	f := New(WithConfig(func(c *Config) {
		c.Gamma = 0.05
		c.WarmupEpochs, c.RegInterval, c.GMInterval = 3, 10, 20
		c.Init = InitProportional
	}))
	r := f(200, 0.1)
	g, ok := r.(*GM)
	if !ok {
		t.Fatalf("factory built %T", r)
	}
	_, b := g.Hyper()
	if math.Abs(b-0.05*200) > 1e-12 {
		t.Fatalf("b = %v, want γ·M = 10", b)
	}
	// Proportional init doubles precisions: min, 2min, 4min, 8min.
	lam := g.Lambda()
	for i := 1; i < len(lam); i++ {
		if math.Abs(lam[i]-2*lam[i-1]) > 1e-9 {
			t.Fatalf("proportional init not applied: %v", lam)
		}
	}
}

func TestBaselineFactories(t *testing.T) {
	cases := map[string]Factory{
		"no regularization": NoReg(),
		"L1 Reg":            L1(0.1),
		"L2 Reg":            L2(0.1),
		"Elastic-net Reg":   ElasticNet(0.1, 0.5),
		"Huber Reg":         Huber(0.1, 1),
	}
	for want, f := range cases {
		if got := f(10, 0.1).Name(); got != want {
			t.Errorf("factory name %q, want %q", got, want)
		}
	}
}

func TestGammaGridIsThePapersGrid(t *testing.T) {
	want := []float64{0.0002, 0.0005, 0.001, 0.002, 0.005, 0.01, 0.02, 0.05}
	if len(GammaGrid) != len(want) {
		t.Fatalf("grid %v", GammaGrid)
	}
	for i, v := range want {
		if GammaGrid[i] != v {
			t.Fatalf("grid %v, want %v", GammaGrid, want)
		}
	}
}

// The quickstart pattern from the package documentation must work: GM
// regularization of a plain []float64 parameter vector under hand-rolled SGD.
func TestFacadeQuickstartPattern(t *testing.T) {
	const m = 50
	cfg := DefaultConfig(0.1)
	cfg.BatchesPerEpoch = 10
	g := MustNewGM(m, cfg)
	w := make([]float64, m)
	for i := range w {
		w[i] = 0.1
	}
	greg := make([]float64, m)
	for it := 0; it < 100; it++ {
		g.Grad(w, greg)
		for i := range w {
			w[i] -= 0.01 * greg[i] // pure prior descent shrinks w
		}
	}
	for i := range w {
		if w[i] >= 0.1 || w[i] < 0 {
			t.Fatalf("prior descent failed to shrink dim %d: %v", i, w[i])
		}
	}
	if e, mm := g.Steps(); e == 0 || mm == 0 {
		t.Fatal("GM never stepped")
	}
}

// Type identity: the facade aliases must be the internal types, so users can
// mix facade and internal APIs.
func TestAliasesAreIdentities(t *testing.T) {
	var g *GM
	var cg *core.GM = g // compile-time identity check
	_ = cg
	var c Config = core.DefaultConfig(0.1)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}
