// Command benchmark is gmreg's repository benchmark. It runs one of four
// workloads — Alex-CIFAR-10 training, logistic-regression fits, /predict
// serving under open-loop load, and online training that publishes
// checkpoints beside a watching server — checks the outputs, and prints every
// end-to-end metric by name and unit. With --trace 1 it adds a traced pass
// that times each layer from outside and prints the per-layer metrics.
//
// Usage, from the repository root (benchmark/run.sh builds and runs it with
// all build state kept under .bench_build/):
//
//	bash benchmark/run.sh --workload train-alex --seed 1 --seconds 20 --trace 0
//	bash benchmark/run.sh --workload serve-predict --seed 1 --trace 1 --out results/run1
//	bash benchmark/run.sh compare results/parent results/change
//
// Each line before the last is "workload metric value unit"; the last line
// is one JSON object {"correct", "attempted", "failed", "metrics"}. The
// workload itself runs in a child process with a fresh scratch directory,
// GMREG_CACHE_DIR and a fixed GOMAXPROCS, so autotune state and stores cannot
// leak between runs; the scratch directory is removed on exit.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"gmreg/internal/bench"
)

// metricDef names one printed metric. End-to-end metrics also carry the
// direction that is better and the regression bound (a share of the
// parent's median). The lists below must match BENCHMARK.json
// (TestBenchmarkJSONMatchesMetrics checks it).
type metricDef struct {
	name, unit string
	better     string // "lower" or "higher"
	bound      float64
}

// e2eMetrics are measured with tracing off; every workload reports all of
// them, each for its own unit of work (see README.md).
var e2eMetrics = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"throughput_per_s", "1/s", "higher", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// alexLayers are the top-level layers of models.AlexCIFAR10, in order.
var alexLayers = []string{
	"conv1", "pool1", "relu1", "lrn1", "conv2", "relu2", "pool2", "lrn2",
	"conv3", "relu3", "pool3", "flatten", "dense",
}

// ladderRates are the fixed offered rates (req/s) of the serve-predict ladder.
var ladderRates = []int{100, 200, 400, 800, 1600, 3200}

// layerMetrics are printed by --trace 1 runs: the tail of the untraced op
// latencies (too noisy on a shared host to bound), the cost of tracing, and
// the traced pass's per-layer numbers. A workload that bypasses a layer
// reports 0 for it.
var layerMetrics = func() []metricDef {
	defs := []metricDef{
		{"op.latency_tail_ms", "ms", "lower", 0},
		{"trace.overhead_pct", "%", "lower", 0},
		{"trace.residual_pct", "%", "lower", 0},
	}
	for _, dir := range []string{"fwd", "bwd"} {
		for _, l := range alexLayers {
			defs = append(defs, metricDef{"nn." + dir + "." + l + "_ms", "ms", "lower", 0})
		}
	}
	defs = append(defs, []metricDef{
		{"tensor.arena_gets_per_step", "count", "lower", 0},
		{"tensor.arena_misses_per_step", "count", "lower", 0},
		{"go.allocs_per_op", "count", "lower", 0},
		{"data.batch_ms", "ms", "lower", 0},
		{"core.estep_ms", "ms", "lower", 0},
		{"core.mstep_ms", "ms", "lower", 0},
		{"core.grad_ms", "ms", "lower", 0},
		{"core.estep_calls", "count", "lower", 0},
		{"core.mstep_calls", "count", "lower", 0},
		{"core.skip_ratio", "ratio", "higher", 0},
		{"core.merges", "count", "lower", 0},
		{"train.step_ms", "ms", "lower", 0},
		{"train.other_ms", "ms", "lower", 0},
		{"gen.late_tail_ms", "ms", "lower", 0},
		{"http.client_p50_ms", "ms", "lower", 0},
		{"serve.handler_p50_ms", "ms", "lower", 0},
		{"serve.handler_tail_ms", "ms", "lower", 0},
		{"serve.predict_p50_ms", "ms", "lower", 0},
		{"serve.predict_tail_ms", "ms", "lower", 0},
		{"serve.batch_mean", "count", "higher", 0},
		{"nn.forward_b1_ms", "ms", "lower", 0},
		{"serve.allocs_per_request", "count", "lower", 0},
	}...)
	for _, r := range ladderRates {
		defs = append(defs, metricDef{fmt.Sprintf("ladder.r%d.tail_ms", r), "ms", "lower", 0})
	}
	return append(defs, []metricDef{
		{"serve.max_qps_at_slo", "1/s", "higher", 0},
		{"ladder.unsent", "count", "lower", 0},
		{"store.save_ms", "ms", "lower", 0},
		{"store.load_ms", "ms", "lower", 0},
		{"store.snapshot_mb", "MB", "lower", 0},
		{"store.versions", "count", "lower", 0},
		{"serve.reload_ms", "ms", "lower", 0},
		{"serve.swaps", "count", "higher", 0},
		{"online.step_us", "us", "lower", 0},
		{"online.publish_share_pct", "%", "lower", 0},
		{"online.swap_lag_p50_ms", "ms", "lower", 0},
		{"online.predict_p50_ms", "ms", "lower", 0},
		{"online.predict_tail_ms", "ms", "lower", 0},
	}...)
}()

// workload is one runner and the GOMAXPROCS it runs at (capped at the
// CPU count). Training runs on one processor: on the 2-vCPU host the
// benchmark was built on, the second vCPU is shared with other tenants and
// every parallel section waits for its slower half, so train-alex ran 16%
// slower at GOMAXPROCS=2 and its run-to-run spread rose from 2% to 20%; the
// training numbers are per-core costs. The serving workloads keep two, so
// the in-process load generator does not queue behind the server for the
// only processor.
type workload struct {
	run   func(*runCtx) error
	procs int
}

var workloads = map[string]workload{
	"train-alex":     {runAlex, 1},
	"train-logreg":   {runLogReg, 1},
	"serve-predict":  {runServe, 2},
	"online-publish": {runOnline, 2},
}

// childTimeout stops a workload that overruns the 180 s a run may take.
const childTimeout = 170 * time.Second

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	os.Exit(benchMain(os.Args[1:]))
}

func benchMain(args []string) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run (see README.md)")
	seed := fs.Uint64("seed", 1, "input seed; the same seed gives the same inputs")
	seconds := fs.Int("seconds", 20, "measuring time of one pass")
	trace := fs.Int("trace", 0, "1 adds a traced pass and prints the per-layer metrics instead")
	out := fs.String("out", "", "also append the full result record to DIR/<workload>.jsonl")
	child := fs.String("child", "", "internal: run the workload in this scratch directory")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if workloads[*workload].run == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "benchmark: need --workload (one of %s), --seconds ≥ 1, --trace 0|1\n", workloadNames())
		return 2
	}
	rc := &runCtx{
		workload: *workload, seed: *seed, budget: time.Duration(*seconds) * time.Second,
		trace: *trace == 1, dir: *child,
		traceDir: filepath.Join(".bench_build", "trace"),
	}
	if *child != "" {
		return childMain(rc)
	}
	rec, err := runChild(rc, args)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	printResult(os.Stdout, rec)
	if *out != "" {
		if err := appendRecord(*out, rec); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
	}
	if !rec.Correct {
		return 1
	}
	return 0
}

func workloadNames() string {
	var names []string
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// record is one run's full result: what the final line prints plus the
// inputs and environment needed to compare runs later.
type record struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Seconds   int                `json:"seconds"`
	Trace     bool               `json:"trace"`
	Correct   bool               `json:"correct"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Failures  []string           `json:"failures,omitempty"`
	Metrics   map[string]float64 `json:"metrics"`
	Env       bench.Env          `json:"env"`
}

// runChild runs the workload in a child process with a fresh scratch
// directory and returns the record it printed.
func runChild(rc *runCtx, args []string) (*record, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	dir, err := filepath.Abs(filepath.Join(".bench_build", "run", fmt.Sprintf("%s-%d", rc.workload, os.Getpid())))
	if err != nil {
		return nil, err
	}
	for _, sub := range []string{"cache", "tmp"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, err
		}
	}
	defer os.RemoveAll(dir)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, self, append([]string{"--child", dir}, args...)...)
	cmd.Env = childEnv(dir, min(workloads[rc.workload].procs, runtime.NumCPU()))
	cmd.Stderr = os.Stderr
	killWithParent(cmd)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	if err := cmd.Run(); err != nil && ctx.Err() != nil {
		return nil, fmt.Errorf("%s stopped: %w", rc.workload, ctx.Err())
	}
	line := lastLine(stdout.Bytes())
	var rec record
	if err := json.Unmarshal(line, &rec); err != nil {
		return nil, fmt.Errorf("%s printed no result: %w", rc.workload, err)
	}
	return &rec, nil
}

// childEnv isolates the workload: its own autotune cache and temp directory,
// default kernel tunables, and its processor budget.
func childEnv(dir string, procs int) []string {
	var env []string
	for _, kv := range os.Environ() {
		switch strings.SplitN(kv, "=", 2)[0] {
		case "GMREG_CACHE_DIR", "GMREG_AUTOTUNE", "GMREG_SERIAL_CUTOFF", "GMREG_PARTITION_GRAIN", "GOMAXPROCS", "TMPDIR":
			continue
		}
		env = append(env, kv)
	}
	return append(env,
		"GMREG_CACHE_DIR="+filepath.Join(dir, "cache"),
		"TMPDIR="+filepath.Join(dir, "tmp"),
		"GOMAXPROCS="+strconv.Itoa(procs),
	)
}

func lastLine(b []byte) []byte {
	lines := bytes.Split(bytes.TrimSpace(b), []byte("\n"))
	return lines[len(lines)-1]
}

// childMain runs the workload and prints its record as the last line.
func childMain(rc *runCtx) int {
	b, err := json.Marshal(runWorkload(rc))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Printf("%s\n", b)
	return 0
}

// runWorkload runs rc's workload in this process and returns its record.
func runWorkload(rc *runCtx) *record {
	rc.metrics = map[string]float64{}
	if err := workloads[rc.workload].run(rc); err != nil {
		rc.fail("%s: %v", rc.workload, err)
	}
	rc.set("peak_rss_mb", peakRSSMB())
	rec := &record{
		Workload: rc.workload, Seed: rc.seed, Seconds: int(rc.budget / time.Second), Trace: rc.trace,
		Correct: len(rc.failures) == 0, Attempted: rc.attempted, Failed: rc.failed,
		Failures: rc.failures, Metrics: rc.metrics, Env: bench.CaptureEnv(),
	}
	for name, v := range rec.Metrics {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			rec.Metrics[name] = 0
			rec.Correct = false
			rec.Failures = append(rec.Failures, name+" is not finite")
		}
	}
	return rec
}

// printResult prints "workload metric value unit" lines and the final JSON
// line: the end-to-end metrics, or with tracing the per-layer ones.
func printResult(w io.Writer, rec *record) {
	defs := e2eMetrics
	if rec.Trace {
		defs = layerMetrics
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, d := range defs {
		v := rec.Metrics[d.name]
		metrics[d.name] = value{v, d.unit}
		fmt.Fprintf(w, "%s %s %v %s\n", rec.Workload, d.name, v, d.unit)
	}
	for _, f := range rec.Failures {
		fmt.Fprintf(w, "%s check-failed %q\n", rec.Workload, f)
	}
	attempted := max(rec.Attempted, 1)
	b, _ := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rec.Correct, attempted, rec.Failed, metrics})
	fmt.Fprintf(w, "%s\n", b)
}

// appendRecord adds rec as one JSON line to dir/<workload>.jsonl.
func appendRecord(dir string, rec *record) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(filepath.Join(dir, rec.Workload+".jsonl"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runCtx is one workload run: its inputs and what it measured.
type runCtx struct {
	workload string
	seed     uint64
	budget   time.Duration // measuring time of one pass
	trace    bool
	short    bool   // tiny inputs, for tests
	dir      string // scratch directory, removed after the run
	traceDir string // where the traced pass writes its spans

	metrics   map[string]float64
	attempted int64
	failed    int64
	failures  []string
}

func (rc *runCtx) set(name string, v float64) { rc.metrics[name] = v }

// fail records a failed output check.
func (rc *runCtx) fail(format string, args ...any) {
	rc.failures = append(rc.failures, fmt.Sprintf(format, args...))
}

// check records a failed output check unless ok.
func (rc *runCtx) check(ok bool, format string, args ...any) {
	if !ok {
		rc.fail(format, args...)
	}
}

// grace is how long after an open-loop schedule ends its queued requests
// may still be sent: 1 s at the default 20 s pass.
func (rc *runCtx) grace() time.Duration { return rc.budget / 20 }

// setupSpan is how long each run keeps rebuilding its state, at least
// minSetups times; setup_s is the median build time. Bursts of host noise
// last a few hundred milliseconds: they slowed three or more of five
// back-to-back builds often enough to move the median by 20% between two
// sets of runs, while over a second of builds a burst reaches a minority.
const (
	setupSpan = time.Second
	minSetups = 5
)

// setupRepeated builds the workload state repeatedly (see setupSpan),
// releases all but the last, and records the median build time as setup_s.
// The garbage of every build is collected outside the timings, so each build
// and the measured passes start from the same heap.
func setupRepeated[T any](rc *runCtx, build func() (T, error), release func(T)) (T, error) {
	var st T
	var times []float64
	defer runtime.GC()
	for start := time.Now(); len(times) < minSetups || time.Since(start) < setupSpan; {
		if len(times) > 0 && release != nil {
			release(st)
		}
		runtime.GC()
		t0 := time.Now()
		s, err := build()
		if err != nil {
			return st, fmt.Errorf("setup: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
		st = s
	}
	rc.set("setup_s", median(times))
	return st, nil
}

// overheadPct is the traced pass's cost relative to the untraced one.
func overheadPct(untraced, traced float64) float64 {
	if untraced == 0 {
		return 0
	}
	return 100 * (traced - untraced) / untraced
}

// residualPct is the share of wall time no measured span covers.
func residualPct(wall, parts time.Duration) float64 {
	if wall <= 0 {
		return 0
	}
	return 100 * float64(wall-parts) / float64(wall)
}

// writeTrace saves the traced pass's spans as trace-<workload>-<seed>.json.
func writeTrace(rc *runCtx, tr *tracer) {
	err := os.MkdirAll(rc.traceDir, 0o755)
	if err == nil {
		err = tr.write(filepath.Join(rc.traceDir, fmt.Sprintf("trace-%s-%d.json", rc.workload, rc.seed)), rc.workload)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: writing trace:", err)
	}
}
