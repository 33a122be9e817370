// Package cli centralizes the flag vocabulary and boilerplate shared by the
// gmreg commands so every binary spells the same concept the same way:
//
//	-seed       RNG seed                          (gmreg-train, gmreg-bench)
//	-store      checkpoint store file             (gmreg-train, gmreg-serve)
//	-prior      prior family for adaptive reg     (gmreg-train)
//	-workers    data-parallel training replicas   (gmreg-train)
//	-shard      micro-shard size                  (gmreg-train)
//	-prefetch   background batch assembly         (gmreg-train)
//	-telemetry  JSONL telemetry output path       (gmreg-train)
//	-coordinator  distnet coordinator listen addr (gmreg-train)
//	-join         distnet coordinator to dial     (gmreg-train)
//	-trainers     distnet trainer quorum          (gmreg-train)
//
// Commands that reuse a word with a different meaning must say so in their
// --help text: gmreg-serve's -replicas is serving replicas per model (not
// training workers), and its own help line spells out the distinction.
//
// No flag sets the core count: Go reads the GOMAXPROCS environment variable,
// and the bytes a command writes do not depend on it.
package cli

import (
	"flag"
	"fmt"
	"os"

	"gmreg/internal/obs"
)

// Seed registers the canonical -seed flag.
func Seed(fs *flag.FlagSet) *uint64 {
	return fs.Uint64("seed", 1, "random seed")
}

// Store registers the canonical -store flag; usage describes the command's
// relationship to the store file (writer vs reader).
func Store(fs *flag.FlagSet, usage string) *string {
	return fs.String("store", "gmreg.store", usage)
}

// Workers registers the canonical -workers flag (data-parallel training
// replicas; 1 = sequential).
func Workers(fs *flag.FlagSet) *int {
	return fs.Int("workers", 1, "model replicas for data-parallel training (1 = sequential)")
}

// Shard registers the canonical -shard flag (micro-shard size).
func Shard(fs *flag.FlagSet) *int {
	return fs.Int("shard", 0, "micro-shard size for minibatches (0 = whole batch, or batch/workers when -workers > 1); pin it for bit-identical results across worker counts")
}

// Coordinator registers the canonical -coordinator flag (multi-process
// training: run this process as the distnet coordinator).
func Coordinator(fs *flag.FlagSet) *string {
	return fs.String("coordinator", "", "run as distributed-training coordinator listening on this host:port (trainers connect with -join)")
}

// Join registers the canonical -join flag (multi-process training: run this
// process as a distnet trainer).
func Join(fs *flag.FlagSet) *string {
	return fs.String("join", "", "run as distributed trainer: dial the coordinator at this host:port and compute shard gradients until the job finishes")
}

// Trainers registers the canonical -trainers flag (the quorum a coordinator
// waits for before the first step; also the default shard partition width).
func Trainers(fs *flag.FlagSet) *int {
	return fs.Int("trainers", 1, "trainer processes the coordinator waits for before training starts (pin -shard for bit-identical results across counts)")
}

// Prior registers the canonical -prior flag (the prior family behind the
// adaptive-regularization EM loop). The informative family names its
// reference checkpoint inline: -prior informative:<store-key>, resolved
// against the command's -store file.
func Prior(fs *flag.FlagSet) *string {
	return fs.String("prior", "", "prior family: gm|laplace|student-t|slope|informative:<ckpt-key> (default: follow -reg)")
}

// Prefetch registers the canonical -prefetch flag.
func Prefetch(fs *flag.FlagSet) *bool {
	return fs.Bool("prefetch", false, "assemble minibatches one step ahead on a background goroutine")
}

// Telemetry registers the canonical -telemetry flag.
func Telemetry(fs *flag.FlagSet) *string {
	return fs.String("telemetry", "", "write per-epoch training telemetry (epoch loss/LR, GM mixture snapshots, merges) as JSON Lines to this file")
}

// OpenTelemetry opens the -telemetry JSONL sink. An empty path returns a nil
// sink (telemetry disabled) and a no-op closer; callers always defer done().
func OpenTelemetry(path string) (sink *obs.JSONL, done func(), err error) {
	if path == "" {
		return nil, func() {}, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, fmt.Errorf("opening telemetry file: %w", err)
	}
	j := obs.NewJSONL(f)
	return j, func() { j.Close() }, nil
}

// Fatal prints "<cmd>: <err>" to stderr and exits 1.
func Fatal(cmd string, err error) {
	fmt.Fprintf(os.Stderr, "%s: %v\n", cmd, err)
	os.Exit(1)
}

// Fatalf is Fatal with formatting.
func Fatalf(cmd, format string, args ...any) {
	Fatal(cmd, fmt.Errorf(format, args...))
}
