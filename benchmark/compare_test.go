package main

import (
	"bytes"
	"strings"
	"testing"
)

func series(base, step float64) []float64 {
	xs := make([]float64, 10)
	for i := range xs {
		xs[i] = base + step*float64(i%5) // alternate so pairs are not sorted
	}
	return xs
}

func shifted(xs []float64, by float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x + by
	}
	return out
}

func TestJudge(t *testing.T) {
	latency := metricDef{name: "latency_p50_ms", unit: "ms", better: "lower", bound: 0.1}
	throughput := metricDef{name: "throughput_per_s", unit: "1/s", better: "higher", bound: 0.1}
	parent := series(100, 0.5) // spread ≈ 1.5%
	cases := []struct {
		name   string
		p, c   []float64
		d      metricDef
		status string
	}{
		{"clear gain", parent, shifted(parent, -5), latency, "improved"},
		{"clear gain, higher is better", parent, shifted(parent, 5), throughput, "improved"},
		{"worse by more than the bound", parent, shifted(parent, 15), latency, "regressed"},
		{"throughput lost beyond the bound", parent, shifted(parent, -15), throughput, "regressed"},
		{"noise", parent, shifted(parent, 0.2), latency, "no-regression"},
		{"gain within the parent's IQR", parent, shifted(parent, -0.3), latency, "no-regression"},
		{"spread wider than the bound", series(100, 20), series(101, 20), latency, "unresolved"},
		{"too few pairs", parent[:9], shifted(parent[:9], -5), latency, "unresolved"},
	}
	for _, c := range cases {
		if got := judge(c.p, c.c, c.d); got.status != c.status {
			t.Errorf("%s: %s (%+v), want %s", c.name, got.status, got, c.status)
		}
	}
}

func TestCompareDirectories(t *testing.T) {
	parentDir, changeDir := t.TempDir(), t.TempDir()
	lat := series(100, 0.5)
	for i := range lat {
		m := map[string]float64{}
		for _, d := range e2eMetrics {
			m[d.name] = 50 + float64(i%3)
		}
		m["latency_p50_ms"] = lat[i]
		if err := appendRecord(parentDir, &record{Workload: "serve-predict", Attempted: 100, Metrics: m}); err != nil {
			t.Fatal(err)
		}
		c := map[string]float64{}
		for k, v := range m {
			c[k] = v
		}
		c["latency_p50_ms"] = lat[i] * 1.4
		if err := appendRecord(changeDir, &record{Workload: "serve-predict", Attempted: 100, Failed: 1, Metrics: c}); err != nil {
			t.Fatal(err)
		}
		// Traced records are not compared.
		if err := appendRecord(changeDir, &record{Workload: "serve-predict", Trace: true, Metrics: map[string]float64{}}); err != nil {
			t.Fatal(err)
		}
	}
	var out bytes.Buffer
	if code := compareMain([]string{parentDir, changeDir}, &out); code != 1 {
		t.Errorf("exit code %d, want 1 for a regression", code)
	}
	text := out.String()
	for _, want := range []string{
		"latency_p50_ms    regressed",
		"throughput_per_s  no-regression",
		"fail_frac         ROSE",
	} {
		if !strings.Contains(text, "serve-predict   "+want) {
			t.Errorf("output lacks %q:\n%s", want, text)
		}
	}
	if strings.Count(text, "\n") != len(e2eMetrics)+1 {
		t.Errorf("want one row per metric plus fail_frac:\n%s", text)
	}
}
