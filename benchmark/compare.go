package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// compare applies the paired-run rule to two directories of result records
// (written with --out): the parent commit's runs and the change's, run in
// alternating order so the i-th runs of each side form a pair.
//
// For every workload × end-to-end metric:
//   - improved: at least minPairs pairs, the change wins at least nine
//     tenths of them (ties count for neither side), and the medians differ
//     in the change's favour by more than the parent's interquartile range;
//   - regressed: the change's median is worse than the parent's by more
//     than the metric's bound;
//   - unresolved: fewer than minPairs pairs, or either side's spread (IQR
//     over median) is wider than the bound — unless every change run reads
//     better than every parent run;
//   - no-regression otherwise.
//
// A rise in the share of failed operations is flagged per workload.
const minPairs = 10

func compareMain(args []string, w io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchmark compare <parent-dir> <change-dir>")
		return 2
	}
	parent, err := loadRecords(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	change, err := loadRecords(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	verdicts, fails := compareRecords(parent, change)
	code := 0
	for _, v := range verdicts {
		fmt.Fprintln(w, v)
		if v.status == "regressed" {
			code = 1
		}
	}
	for _, f := range fails {
		fmt.Fprintln(w, f)
		if f.rose() {
			code = 1
		}
	}
	return code
}

// loadRecords reads every untraced record from dir/*.jsonl, grouped by
// workload in file order.
func loadRecords(dir string) (map[string][]*record, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.jsonl"))
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no *.jsonl result files in %s", dir)
	}
	out := map[string][]*record{}
	for _, path := range files {
		if err := readRecords(path, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func readRecords(path string, out map[string][]*record) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		if !r.Trace {
			out[r.Workload] = append(out[r.Workload], &r)
		}
	}
	return sc.Err()
}

// verdict is the status of one workload × metric.
type verdict struct {
	workload, metric, status   string
	pairs, wins                int
	parentMed, changeMed       float64
	parentSpread, changeSpread float64
}

func (v verdict) String() string {
	return fmt.Sprintf("%-15s %-17s %-13s parent %.6g (iqr %.1f%%)  change %.6g (iqr %.1f%%)  wins %d/%d",
		v.workload, v.metric, v.status, v.parentMed, 100*v.parentSpread, v.changeMed, 100*v.changeSpread, v.wins, v.pairs)
}

// failCheck compares the failed/attempted operations of one workload.
type failCheck struct {
	workload                      string
	parentFailed, parentAttempted int64
	changeFailed, changeAttempted int64
}

func (f failCheck) rose() bool {
	return share(f.changeFailed, f.changeAttempted) > share(f.parentFailed, f.parentAttempted)
}

func (f failCheck) String() string {
	flag := "ok"
	if f.rose() {
		flag = "ROSE"
	}
	return fmt.Sprintf("%-15s %-17s %-13s parent %d/%d  change %d/%d", f.workload, "fail_frac", flag,
		f.parentFailed, f.parentAttempted, f.changeFailed, f.changeAttempted)
}

func share(n, of int64) float64 {
	if of == 0 {
		return 0
	}
	return float64(n) / float64(of)
}

// compareRecords pairs the i-th parent and change runs of every workload
// both sides ran.
func compareRecords(parent, change map[string][]*record) ([]verdict, []failCheck) {
	var names []string
	for w := range parent {
		if _, ok := change[w]; ok {
			names = append(names, w)
		}
	}
	sort.Strings(names)
	var verdicts []verdict
	var fails []failCheck
	for _, w := range names {
		n := min(len(parent[w]), len(change[w]))
		p, c := parent[w][:n], change[w][:n]
		for _, d := range e2eMetrics {
			pv, cv := make([]float64, n), make([]float64, n)
			for i := range p {
				pv[i], cv[i] = p[i].Metrics[d.name], c[i].Metrics[d.name]
			}
			v := judge(pv, cv, d)
			v.workload, v.metric = w, d.name
			verdicts = append(verdicts, v)
		}
		f := failCheck{workload: w}
		for i := range p {
			f.parentFailed += p[i].Failed
			f.parentAttempted += p[i].Attempted
			f.changeFailed += c[i].Failed
			f.changeAttempted += c[i].Attempted
		}
		fails = append(fails, f)
	}
	return verdicts, fails
}

// judge applies the paired-run rule to one metric's paired values.
func judge(p, c []float64, d metricDef) verdict {
	better := func(a, b float64) bool { // a reads better than b
		if d.better == "higher" {
			return a > b
		}
		return a < b
	}
	v := verdict{pairs: len(p), parentMed: median(p), changeMed: median(c),
		parentSpread: spread(p), changeSpread: spread(c)}
	for i := range p {
		if better(c[i], p[i]) {
			v.wins++
		}
	}
	q1, q3 := quartiles(p)
	worse := 0.0 // share by which the change's median is worse
	if v.parentMed != 0 {
		worse = (v.changeMed - v.parentMed) / math.Abs(v.parentMed)
		if d.better == "higher" {
			worse = -worse
		}
	}
	switch {
	case v.pairs < minPairs:
		v.status = "unresolved"
	case 10*v.wins >= 9*v.pairs && better(v.changeMed, v.parentMed) && math.Abs(v.changeMed-v.parentMed) > q3-q1:
		v.status = "improved"
	case worse > d.bound:
		v.status = "regressed"
	case (v.parentSpread > d.bound || v.changeSpread > d.bound) && !allBetter(c, p, better):
		v.status = "unresolved"
	default:
		v.status = "no-regression"
	}
	return v
}

// allBetter reports whether every value of c reads better than every value
// of p.
func allBetter(c, p []float64, better func(a, b float64) bool) bool {
	for _, x := range c {
		for _, y := range p {
			if !better(x, y) {
				return false
			}
		}
	}
	return true
}
