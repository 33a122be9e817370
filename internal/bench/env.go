package bench

import (
	"fmt"
	"io"
	"os"
	"runtime"
)

// Env is the reproducibility header embedded in every BENCH_*.json report:
// the host facts needed to re-create a measurement on another machine. The
// kernel settings are constants of the commit, so they are not recorded.
type Env struct {
	GoVersion  string `json:"go_version"`
	Hostname   string `json:"hostname"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	// EffectiveProcs is min(GOMAXPROCS, NumCPU) — the parallelism the
	// harness can actually realize. Scaling claims require it to be ≥ 2.
	EffectiveProcs int `json:"effective_procs"`
}

// CaptureEnv snapshots the live environment.
func CaptureEnv() Env {
	host, _ := os.Hostname()
	return Env{
		GoVersion:      runtime.Version(),
		Hostname:       host,
		GOMAXPROCS:     runtime.GOMAXPROCS(0),
		NumCPU:         runtime.NumCPU(),
		EffectiveProcs: min(runtime.GOMAXPROCS(0), runtime.NumCPU()),
	}
}

// ScalingInvalidReason returns "" when the environment can realize real
// parallelism, or the reason scaling numbers must be stamped invalid. The
// harness refuses to set scaling_valid:true whenever this is non-empty.
func (e Env) ScalingInvalidReason() string {
	if e.EffectiveProcs >= 2 {
		return ""
	}
	return fmt.Sprintf("effective GOMAXPROCS is %d (gomaxprocs=%d, num_cpu=%d): replicas and pool workers share one CPU, so speedup/efficiency columns measure fan-out overhead, not scaling",
		e.EffectiveProcs, e.GOMAXPROCS, e.NumCPU)
}

// warnScaling prints the invalid-scaling warning when applicable.
func (e Env) warnScaling(w io.Writer) {
	if reason := e.ScalingInvalidReason(); reason != "" {
		fmt.Fprintln(w, "WARNING: scaling_valid=false —", reason)
	}
}
