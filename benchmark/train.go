package main

import (
	"math"
	"runtime"
	"time"

	"gmreg"
	"gmreg/internal/data"
	"gmreg/internal/models"
	"gmreg/internal/tensor"
	"gmreg/internal/train"
)

// trainPass is one pass of a training workload: repeated identical units
// (an Alex training job or a logreg fit) until the pass's time is used up.
type trainPass struct {
	clock  *stepClock
	walls  []time.Duration // per unit
	losses []float64       // final training loss per unit

	arena   tensor.ArenaStats
	mallocs uint64
}

// run repeats unit while the pass's time allows another unit of the length
// the last one took (at least one unit runs). unit returns the final loss.
func (p *trainPass) run(rc *runCtx, unit func() (float64, error)) error {
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	arena0, mallocs0 := tensor.DefaultArena.Stats(), mem.Mallocs
	start := time.Now()
	for i := 0; i == 0 || time.Since(start)+p.walls[i-1] <= rc.budget; i++ {
		rc.attempted++
		p.clock.start()
		t0 := time.Now()
		loss, err := unit()
		wall := time.Since(t0)
		if err != nil {
			rc.failed++
			return err
		}
		p.walls = append(p.walls, wall)
		p.losses = append(p.losses, loss)
	}
	runtime.ReadMemStats(&mem)
	arena := tensor.DefaultArena.Stats()
	p.arena = tensor.ArenaStats{Gets: arena.Gets - arena0.Gets, Misses: arena.Misses - arena0.Misses}
	p.mallocs = mem.Mallocs - mallocs0
	return nil
}

func (p *trainPass) medianWall() float64 {
	return median(ms(p.walls))
}

// reportLayers sets the per-step layer metrics of a traced pass. layers
// lists the span names of the network layers (none for logreg).
func (p *trainPass) reportLayers(rc *runCtx, tr *tracer, layers []string) {
	steps := len(tr.durations("train.step"))
	perStep := func(d time.Duration) float64 { return perUnit(float64(d)/float64(time.Millisecond), steps) }
	stepTotal, gradTotal := tr.total("train.step"), tr.total("core.grad")
	other := stepTotal - gradTotal
	for _, name := range layers {
		d := tr.total(name)
		other -= d
		rc.set(name+"_ms", perStep(d))
	}
	grads := len(tr.durations("core.grad"))
	esteps, msteps := len(tr.durations("core.estep")), len(tr.durations("core.mstep"))
	rc.set("train.step_ms", perStep(stepTotal))
	rc.set("train.other_ms", perStep(other))
	rc.set("core.grad_ms", perStep(gradTotal))
	rc.set("core.estep_ms", perStep(tr.total("core.estep")))
	rc.set("core.mstep_ms", perStep(tr.total("core.mstep")))
	rc.set("core.estep_calls", perUnit(float64(esteps), steps))
	rc.set("core.mstep_calls", perUnit(float64(msteps), steps))
	rc.set("core.skip_ratio", 1-perUnit(float64(esteps), grads))
	rc.set("core.merges", perUnit(float64(p.clock.merges), len(p.walls)))
	rc.set("tensor.arena_gets_per_step", perUnit(float64(p.arena.Gets), steps))
	rc.set("tensor.arena_misses_per_step", perUnit(float64(p.arena.Misses), steps))
	rc.set("go.allocs_per_op", perUnit(float64(p.mallocs), steps))
	rc.set("trace.residual_pct", residualPct(sum(p.walls), stepTotal))
}

// checkDeterministic requires every unit of p to reach the finite loss want
// bit for bit: units repeat the same arithmetic, and tracing only observes
// it.
func checkDeterministic(rc *runCtx, want float64, p *trainPass) {
	for i, loss := range p.losses {
		rc.check(!math.IsNaN(loss) && !math.IsInf(loss, 0), "unit %d: loss %v is not finite", i, loss)
		rc.check(math.Float64bits(want) == math.Float64bits(loss), "unit %d: loss %v differs from the first unit's %v", i, loss, want)
	}
}

// Alex-CIFAR-10 in the paper's setting: 3×32×32 synthetic CIFAR, batch 50,
// lr 0.001, momentum 0.9, GM at core.DefaultConfig, no prefetch (the
// gmreg-train defaults). A unit trains a freshly built network for one epoch
// over alexImages images, so every unit repeats the same arithmetic.
const alexImages = 200

func runAlex(rc *runCtx) error {
	images, size, batch := alexImages, 32, 50
	if rc.short {
		images, size, batch = 20, 8, 10
	}
	cfg := train.SGDConfig{LearningRate: 0.001, Momentum: 0.9, Epochs: 1, BatchSize: batch, Seed: rc.seed}
	set, err := setupRepeated(rc, func() (*data.ImageSet, error) {
		spec := data.DefaultCIFAR(images, 0)
		spec.Size = size
		set, _ := data.GenerateCIFAR(spec, rc.seed)
		models.AlexCIFAR10(3, size, tensor.NewRNG(rc.seed+1))
		return set, nil
	}, nil)
	if err != nil {
		return err
	}
	pass := func(tr *tracer) (*trainPass, error) {
		p := &trainPass{clock: &stepClock{tr: tr}}
		return p, p.run(rc, func() (float64, error) {
			net := models.AlexCIFAR10(3, size, tensor.NewRNG(rc.seed+1))
			if tr != nil {
				traceLayers(net, p.clock)
			}
			res, err := train.Network(net, set, cfg, p.clock.factory(gmreg.New()))
			if err != nil {
				return 0, err
			}
			return res.History.FinalLoss(), nil
		})
	}
	plain, err := pass(nil)
	if err != nil {
		return err
	}
	checkDeterministic(rc, plain.losses[0], plain)
	var rates []float64
	for _, w := range plain.walls {
		rates = append(rates, float64(images)/w.Seconds())
	}
	rc.set("throughput_per_s", median(rates))
	reportLatency(rc, ms(plain.clock.steps))
	if !rc.trace {
		return nil
	}

	tr := newTracer()
	traced, err := pass(tr)
	if err != nil {
		return err
	}
	checkDeterministic(rc, plain.losses[0], traced)
	var layers []string
	for _, dir := range []string{"nn.fwd.", "nn.bwd."} {
		for _, l := range alexLayers {
			layers = append(layers, dir+l)
		}
	}
	traced.reportLayers(rc, tr, layers)
	rc.set("trace.overhead_pct", overheadPct(plain.medianWall(), traced.medianWall()))
	rc.set("data.batch_ms", batchMS(set, data.StreamConfig{Batch: batch, Epochs: 1, Seed: rc.seed}))
	writeTrace(rc, tr)
	return nil
}

// batchMS times the input pipeline alone: a full drain of the same batch
// stream the trainer consumes, per batch, median of three drains.
func batchMS(set *data.ImageSet, cfg data.StreamConfig) float64 {
	var per []float64
	for i := 0; i < 3; i++ {
		b := data.NewBatches(set, cfg)
		n := 0
		t0 := time.Now()
		for x, _ := b.Next(); x != nil; x, _ = b.Next() {
			n++
		}
		per = append(per, perUnit(float64(time.Since(t0))/float64(time.Millisecond), n))
		b.Close()
	}
	return median(per)
}

// reportLatency sets the median and the tail of per-op latencies in ms.
func reportLatency(rc *runCtx, lat []float64) {
	rc.set("latency_p50_ms", median(lat))
	t, _, _ := tail(lat)
	rc.set("op.latency_tail_ms", t)
}

// Logistic regression on Hosp-FA (1755×375) at the gmreg-train defaults: lr
// 0.5, momentum 0.9, batch 32, 40 epochs, GM at core.DefaultConfig. A unit
// fits one model on each of logregSplits seeded stratified 80/20 splits, like
// one evaluation sweep; the splits differ in how fast their mixtures merge,
// so only whole sweeps are comparable, and every sweep must repeat the same
// losses bit for bit.
const logregSplits = 10

type logregState struct {
	task        *data.Task
	train, test [][]int
}

func runLogReg(rc *runCtx) error {
	spec, epochs := data.DefaultHospFA(), 40
	if rc.short {
		spec.Samples, spec.Features, epochs = 200, 40, 5
	}
	cfg := train.SGDConfig{LearningRate: 0.5, Momentum: 0.9, Epochs: epochs, BatchSize: 32, Seed: rc.seed}
	st, err := setupRepeated(rc, func() (*logregState, error) {
		s := &logregState{task: data.GenerateHospFA(spec, rc.seed)}
		for k := 0; k < logregSplits; k++ {
			tr, te := data.StratifiedSplit(s.task.Y, 0.8, tensor.NewRNG(rc.seed+1+uint64(k)))
			s.train, s.test = append(s.train, tr), append(s.test, te)
		}
		return s, nil
	}, nil)
	if err != nil {
		return err
	}
	samples := 0
	for _, rows := range st.train {
		samples += len(rows) * epochs
	}
	fitted := make([]*models.LogisticRegression, logregSplits)
	pass := func(tr *tracer) (*trainPass, error) {
		p := &trainPass{clock: &stepClock{tr: tr}}
		return p, p.run(rc, func() (float64, error) {
			var losses float64
			for k := range fitted {
				factory := gmreg.New()
				if tr != nil {
					p.clock.start()
					factory = p.clock.factory(factory)
				}
				res, err := train.LogReg(st.task, st.train[k], cfg, factory)
				if err != nil {
					return 0, err
				}
				fitted[k] = res.Model
				losses += res.History.FinalLoss()
			}
			return losses, nil
		})
	}
	plain, err := pass(nil)
	if err != nil {
		return err
	}
	checkDeterministic(rc, plain.losses[0], plain)
	var accs, majority []float64
	for k, m := range fitted {
		accs = append(accs, m.Accuracy(st.task.X, st.task.Y, st.test[k]))
		majority = append(majority, majorityRate(st.task.Y, st.test[k]))
	}
	rc.check(median(accs) > median(majority),
		"median held-out accuracy %.3f does not beat the majority-class rate %.3f", median(accs), median(majority))
	var rates []float64
	for _, w := range plain.walls {
		rates = append(rates, float64(samples)/w.Seconds())
	}
	rc.set("throughput_per_s", median(rates))
	reportLatency(rc, ms(plain.walls))
	if !rc.trace {
		return nil
	}

	tr := newTracer()
	traced, err := pass(tr)
	if err != nil {
		return err
	}
	checkDeterministic(rc, plain.losses[0], traced)
	traced.reportLayers(rc, tr, nil)
	rc.set("trace.overhead_pct", overheadPct(plain.medianWall(), traced.medianWall()))
	writeTrace(rc, tr)
	return nil
}

// majorityRate is the accuracy of always predicting the more frequent label
// of rows.
func majorityRate(y []int, rows []int) float64 {
	pos := 0
	for _, r := range rows {
		pos += y[r]
	}
	return float64(max(pos, len(rows)-pos)) / float64(len(rows))
}
