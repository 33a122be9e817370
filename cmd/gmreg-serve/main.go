// Command gmreg-serve serves trained checkpoints over an HTTP JSON API — the
// serving half of the paper's train→store→serve pipeline.
//
// Usage:
//
//	gmreg-train -dataset horse-colic -save horse-colic -store ckpt.store
//	gmreg-serve -store ckpt.store -addr :8090
//
//	curl -s localhost:8090/models
//	curl -s localhost:8090/predict -d '{"model":"horse-colic","features":[...]}'
//	curl -s localhost:8090/swap -d '{"model":"horse-colic","seq":1}'   # rollback
//	curl -s localhost:8090/healthz
//	curl -s localhost:8090/metrics            # Prometheus text format
//	go tool pprof localhost:8090/debug/pprof/profile?seconds=10
//
// The store file is polled (-watch); a new version written by a later
// `gmreg-train -save` hot-swaps in without dropping in-flight requests.
// A /predict that finds a replica idle runs at once; requests that queue
// behind busy replicas are coalesced into micro-batches of up to -max-batch.
// When the queue is full the server fast-fails with 503 instead of building
// backlog.
//
// /metrics exposes the serving series (request latency, coalesced batch
// sizes, queue depth, shed counts, checkpoint swaps) plus the process-wide
// tensor arena and worker-pool counters; /debug/pprof serves the standard
// profiling endpoints. DESIGN.md §10 lists every metric family.
//
// Note: -replicas here is inference replicas per model (the maximum number
// of concurrent forward passes), unlike gmreg-train's -workers, which is
// data-parallel training replicas.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"gmreg/internal/cli"
	"gmreg/internal/obs"
	"gmreg/internal/serve"
	"gmreg/internal/store"
)

func main() {
	var (
		stPath    = cli.Store(flag.CommandLine, "checkpoint store file written by gmreg-train -save")
		addr      = flag.String("addr", ":8090", "listen address")
		watch     = flag.Duration("watch", time.Second, "store file poll interval (0 disables hot reload)")
		replicas  = flag.Int("replicas", 0, "inference replicas per model, i.e. concurrent forward passes — not gmreg-train's -workers (0 = half of GOMAXPROCS)")
		maxBatch  = flag.Int("max-batch", 32, "max requests coalesced into one forward pass")
		queueCap  = flag.Int("queue", 0, "admission queue bound per model (0 = 8×max-batch)")
		timeout   = flag.Duration("timeout", 5*time.Second, "per-request deadline, queue wait included")
		noPprof   = flag.Bool("no-pprof", false, "disable the /debug/pprof endpoints")
		telemetry = flag.String("telemetry", "", "append swap/shadow events as JSONL to this file")

		shadow      = flag.Bool("shadow", false, "stage new versions behind mirrored-traffic comparison instead of installing immediately")
		shadowFrac  = flag.Float64("shadow-fraction", 0.25, "fraction of /predict traffic mirrored to a staged candidate")
		shadowWin   = flag.Int("shadow-window", 50, "mirrored comparisons that decide a candidate")
		maxDisagree = flag.Float64("shadow-max-disagree", 0.1, "disagreement fraction a candidate may reach and still promote")
		rbWindow    = flag.Int("rollback-window", 0, "post-install /predict outcomes judged for auto-rollback (0 disables)")
		rbErrRate   = flag.Float64("rollback-err-rate", 0.5, "error fraction that triggers auto-rollback to the previous version")
	)
	flag.Parse()

	st, err := store.LoadFile(*stPath)
	if err != nil {
		fatal(err)
	}
	var sink obs.Sink
	if *telemetry != "" {
		f, err := os.OpenFile(*telemetry, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fatal(err)
		}
		j := obs.NewJSONL(f)
		defer j.Close()
		sink = j
	}
	reg := serve.NewRegistry(st)
	srv := serve.NewServer(reg, serve.ServerConfig{
		Predictor: serve.Config{
			Replicas: *replicas,
			MaxBatch: *maxBatch,
			QueueCap: *queueCap,
		},
		RequestTimeout: *timeout,
		Sink:           sink,
		WatchInterval:  *watch,
		Shadow: serve.ShadowConfig{
			Enabled:     *shadow,
			Fraction:    *shadowFrac,
			Window:      *shadowWin,
			MaxDisagree: *maxDisagree,
		},
		Rollback: serve.RollbackConfig{
			Window:  *rbWindow,
			ErrRate: *rbErrRate,
		},
	})
	reg.Refresh()
	for _, s := range reg.List() {
		if s.Err != "" {
			log.Printf("model %s: %s", s.Key, s.Err)
			continue
		}
		log.Printf("model %s: serving %s v%d (%.12s…)", s.Key, s.Family, s.Serving.Seq, s.Serving.Hash)
	}
	if len(reg.Keys()) == 0 {
		fatal(fmt.Errorf("no loadable checkpoints in %s", *stPath))
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *watch > 0 {
		go srv.Watch(ctx, *stPath)
	}

	// Mount the API routes and, unless disabled, the pprof endpoints on an
	// outer mux. /metrics is part of srv.Handler() already.
	mux := http.NewServeMux()
	mux.Handle("/", srv.Handler())
	if !*noPprof {
		obs.RegisterPprof(mux)
	}
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           mux,
		ReadHeaderTimeout: 5 * time.Second,
	}
	go func() {
		log.Printf("listening on %s", *addr)
		if err := httpSrv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			fatal(err)
		}
	}()

	<-ctx.Done()
	log.Print("shutting down: draining in-flight requests")
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		log.Printf("shutdown: %v", err)
	}
	srv.Close()
}

func fatal(err error) { cli.Fatal("gmreg-serve", err) }
