package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"

	"gmreg/internal/models"
	"gmreg/internal/tensor"
)

// benchmarkJSON is the part of BENCHMARK.json the code must agree with.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	bj := readBenchmarkJSON(t)
	var e2e, layer []metricDef
	for _, m := range bj.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range bj.PerLayer {
		layer = append(layer, metricDef{name: m.Name, unit: m.Unit, better: m.Better})
	}
	if !reflect.DeepEqual(e2e, e2eMetrics) {
		t.Errorf("BENCHMARK.json end_to_end %v\n != code %v", e2e, e2eMetrics)
	}
	if !reflect.DeepEqual(layer, layerMetrics) {
		t.Errorf("BENCHMARK.json per_layer %v\n != code %v", layer, layerMetrics)
	}
	var names, want []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	for w := range workloads {
		want = append(want, w)
	}
	sort.Strings(names)
	sort.Strings(want)
	if !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, code runs %v", names, want)
	}
}

func TestAlexLayersMatchModel(t *testing.T) {
	var got []string
	for _, l := range models.AlexCIFAR10(3, 8, tensor.NewRNG(1)).Layers {
		got = append(got, l.Name())
	}
	if !reflect.DeepEqual(got, alexLayers) {
		t.Errorf("AlexCIFAR10 layers %v, metrics name %v", got, alexLayers)
	}
}

// TestSmoke runs every workload at tiny sizes with its traced pass and
// checks that all output checks pass and every metric BENCHMARK.json names
// is printed with its unit.
func TestSmoke(t *testing.T) {
	bj := readBenchmarkJSON(t)
	for _, w := range bj.Workloads {
		w := w.Name
		t.Run(w, func(t *testing.T) {
			traces := t.TempDir()
			rc := &runCtx{
				workload: w, seed: 1, budget: time.Second, trace: true, short: true,
				dir: t.TempDir(), traceDir: traces,
			}
			rec := runWorkload(rc)
			if !rec.Correct || rec.Failed != 0 || rec.Attempted == 0 {
				t.Fatalf("correct %v, %d of %d failed: %v", rec.Correct, rec.Failed, rec.Attempted, rec.Failures)
			}
			for _, m := range bj.EndToEnd {
				if rec.Metrics[m.Name] <= 0 {
					t.Errorf("end-to-end %s = %v, want > 0", m.Name, rec.Metrics[m.Name])
				}
			}
			if _, err := os.Stat(filepath.Join(traces, "trace-"+w+"-1.json")); err != nil {
				t.Errorf("no trace file: %v", err)
			}
			for _, traced := range []bool{false, true} {
				rec.Trace = traced
				var out bytes.Buffer
				printResult(&out, rec)
				var last struct {
					Correct   bool  `json:"correct"`
					Attempted int64 `json:"attempted"`
					Metrics   map[string]struct {
						Value *float64 `json:"value"`
						Unit  string   `json:"unit"`
					} `json:"metrics"`
				}
				if err := json.Unmarshal(lastLine(out.Bytes()), &last); err != nil {
					t.Fatalf("last line: %v\n%s", err, out.String())
				}
				want := map[string]string{}
				if traced {
					for _, m := range bj.PerLayer {
						want[m.Name] = m.Unit
					}
				} else {
					for _, m := range bj.EndToEnd {
						want[m.Name] = m.Unit
					}
				}
				if len(last.Metrics) != len(want) {
					t.Errorf("trace=%v: %d metrics printed, want %d", traced, len(last.Metrics), len(want))
				}
				for name, unit := range want {
					if m, ok := last.Metrics[name]; !ok || m.Value == nil || m.Unit != unit {
						t.Errorf("trace=%v: metric %s printed as %+v, want unit %s", traced, name, m, unit)
					}
				}
			}
		})
	}
}
