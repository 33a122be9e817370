// Command gmreg-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	gmreg-bench -exp table7 -scale small
//	gmreg-bench -exp fig5 -model resnet -scale full
//	gmreg-bench -exp all
//
// Experiments: table4, table5, table6, table7, table8, fig3, fig4, fig5,
// fig6, fig7, hotpath, serveload, dataparallel, distnet, all. Scales: small
// (minutes) and full (hours on CPU; matches the paper's budgets where
// feasible). See EXPERIMENTS.md for the recorded paper-vs-measured
// comparison. The hotpath experiment benchmarks the allocating kernels
// against the pooled zero-allocation hot path — plus -micro rows pitting
// the register-blocked micro-kernels against the PR-1 blocked kernels — and
// writes BENCH_hotpath.json; the serveload experiment drives a real in-process
// gmreg-serve over loopback TCP with OPEN-loop Poisson arrivals (latency
// measured from each request's scheduled arrival, wrk2-style, so queueing
// delay is not hidden by coordinated omission), sweeps offered QPS around
// the server's calibrated capacity, reports p50/p99/p99.9 plus the max
// sustainable QPS at the -slo latency objective, embeds the steady-state
// allocs/request probe, and writes BENCH_serveload.json; the dataparallel
// experiment sweeps dist.Network replica
// counts × prefetch and writes BENCH_dataparallel.json; the distnet
// experiment sweeps multi-process trainer counts over loopback TCP
// (coordinator + R trainers, final loss checked bit-equal to the sequential
// baseline) and writes BENCH_distnet.json.
//
// The harness runs on all cores by default; set the GOMAXPROCS environment
// variable to run on fewer. The kernel settings are compiled in, so a
// result depends on the commit, the platform and GOMAXPROCS alone. Every
// BENCH_*.json embeds an env header (go version, host, GOMAXPROCS, NumCPU)
// so results are reproducible on another host, and the
// hotpath/dataparallel reports stamp scaling_valid:false — with the reason —
// whenever effective GOMAXPROCS (min of GOMAXPROCS and NumCPU) is below 2.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"gmreg/internal/bench"
	"gmreg/internal/cli"
	"gmreg/internal/viz"
)

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment id: table4|table5|table6|table7|table8|fig3|fig4|fig5|fig6|fig7|ablation-k|ablation-merge|ablation-gamma|ablation-grid|ablation-hpo|ablation-priors|hotpath|serveload|dataparallel|distnet|ablations|all")
		scale    = flag.String("scale", "small", "experiment scale: small|full")
		model    = flag.String("model", "alex", "model for fig4/fig5/fig6/fig7/table8: alex|resnet")
		datasets = flag.String("datasets", "", "comma-separated dataset filter for table7 (default: all 12)")
		seed     = cli.Seed(flag.CommandLine)
		svgDir   = flag.String("svg", "", "directory to write SVG renderings of fig3/fig5/fig6/fig7 (optional)")
		slo      = flag.Duration("slo", bench.DefaultServeSLO, "serveload p99 latency objective (e.g. 5ms, 20ms)")
	)
	flag.Parse()

	var s bench.Scale
	switch *scale {
	case "small":
		s = bench.SmallScale()
	case "full":
		s = bench.FullScale()
	default:
		fatalf("unknown scale %q (want small|full)", *scale)
	}
	s.Seed = *seed

	var m bench.DeepModel
	switch *model {
	case "alex":
		m = bench.ModelAlex
	case "resnet":
		m = bench.ModelResNet
	default:
		fatalf("unknown model %q (want alex|resnet)", *model)
	}

	var filter []string
	if *datasets != "" {
		filter = strings.Split(*datasets, ",")
	}

	opt := bench.Options{Model: m, Datasets: filter, SLO: *slo}
	run := func(id string) error {
		w := os.Stdout
		// The figure experiments have optional SVG renderings (the iDat
		// role); everything else goes through the registry directly.
		if *svgDir != "" {
			switch id {
			case "fig3":
				ds, err := bench.RunFigure3(w, s)
				if err != nil {
					return err
				}
				return writeFig3SVGs(*svgDir, ds)
			case "fig5":
				series, err := bench.RunFigure5(w, s, m)
				if err != nil {
					return err
				}
				return writeTimingSVGs(*svgDir, "fig5", "Fig. 5 lazy update (Im sweep)", series)
			case "fig6":
				series, err := bench.RunFigure6(w, s, m)
				if err != nil {
					return err
				}
				return writeTimingSVGs(*svgDir, "fig6", "Fig. 6 lazy update (Ig sweep)", series)
			case "fig7":
				series, err := bench.RunFigure7(w, s, m)
				if err != nil {
					return err
				}
				return writeTimingSVGs(*svgDir, "fig7", "Fig. 7 warm-up sweep", series)
			}
		}
		return bench.RunByID(id, w, s, opt)
	}

	ids := []string{*exp}
	switch *exp {
	case "all":
		ids = bench.AllIDs()
	case "ablations":
		ids = bench.AblationIDs()
	}
	for _, id := range ids {
		if err := run(id); err != nil {
			fatalf("%s: %v", id, err)
		}
	}
}

// writeFig3SVGs renders each learned mixture density with its A/B markers.
func writeFig3SVGs(dir string, ds []bench.Figure3Dataset) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, d := range ds {
		svg, err := viz.DensityPlot("Learned mixture: "+d.Dataset, d.Xs, d.Density, d.Crossovers)
		if err != nil {
			return err
		}
		path := filepath.Join(dir, "fig3-"+d.Dataset+".svg")
		if err := os.WriteFile(path, []byte(svg), 0o644); err != nil {
			return err
		}
		fmt.Println("wrote", path)
	}
	return nil
}

// writeTimingSVGs renders the cumulative time-per-epoch curves and the
// convergence-time bars for a timing experiment.
func writeTimingSVGs(dir, name, title string, series []bench.TimingSeries) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var lines []viz.Series
	var labels []string
	var totals []float64
	for _, ts := range series {
		line := viz.Series{Name: ts.Label}
		for e, d := range ts.EpochTime {
			line.X = append(line.X, float64(e+1))
			line.Y = append(line.Y, d.Seconds())
		}
		lines = append(lines, line)
		labels = append(labels, ts.Label)
		totals = append(totals, ts.Total().Seconds())
	}
	svg, err := viz.LinePlot(title, "Epoch", "Time (seconds)", lines)
	if err != nil {
		return err
	}
	path := filepath.Join(dir, name+"-time.svg")
	if err := os.WriteFile(path, []byte(svg), 0o644); err != nil {
		return err
	}
	fmt.Println("wrote", path)
	svg, err = viz.BarChart(title+" — convergence time", "Time (seconds)", labels, totals)
	if err != nil {
		return err
	}
	path = filepath.Join(dir, name+"-convergence.svg")
	if err := os.WriteFile(path, []byte(svg), 0o644); err != nil {
		return err
	}
	fmt.Println("wrote", path)
	return nil
}

func fatalf(format string, args ...interface{}) { cli.Fatalf("gmreg-bench", format, args...) }
