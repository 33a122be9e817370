package dist

import (
	"math"
	"os"
	"path/filepath"
	"testing"

	"gmreg/internal/core"
	"gmreg/internal/data"
	"gmreg/internal/obs"
	"gmreg/internal/reg"
	"gmreg/internal/train"
)

func distCfg(workers int) Config {
	return Config{
		Workers: workers,
		SGD: train.SGDConfig{
			LearningRate: 0.1,
			Momentum:     0.9,
			Epochs:       15,
			BatchSize:    32,
			Seed:         3,
		},
	}
}

func gmFactory(m int, initStd float64) reg.Regularizer {
	return core.MustNewGM(m, core.DefaultConfig(initStd))
}

func TestConfigValidate(t *testing.T) {
	if err := distCfg(4).Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := distCfg(0)
	if err := bad.Validate(); err == nil {
		t.Error("0 workers accepted")
	}
	bad = distCfg(64) // batch 32 < 64 workers
	if err := bad.Validate(); err == nil {
		t.Error("batch smaller than workers accepted")
	}
	bad = distCfg(2)
	bad.SGD.BarzilaiBorwein = true
	if err := bad.Validate(); err == nil {
		t.Error("BB accepted distributed")
	}
	bad = distCfg(2)
	bad.SGD.LearningRate = 0
	if err := bad.Validate(); err == nil {
		t.Error("invalid SGD config accepted")
	}
}

// Synchronous data parallelism must be bit-compatible (up to floating-point
// association order, so compare with a tolerance) with sequential minibatch
// SGD on the same shuffled stream.
func TestDistributedMatchesSequential(t *testing.T) {
	task, err := data.LoadUCI("climate-model", 5)
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]int, task.NumSamples())
	for i := range rows {
		rows[i] = i
	}
	cfg := distCfg(4)
	seq, err := train.LogReg(task, rows, cfg.SGD, reg.Fixed(reg.L2{Beta: 1}))
	if err != nil {
		t.Fatal(err)
	}
	par, err := LogReg(task, rows, cfg, reg.Fixed(reg.L2{Beta: 1}))
	if err != nil {
		t.Fatal(err)
	}
	for i := range seq.Model.W {
		if math.Abs(seq.Model.W[i]-par.Model.W[i]) > 1e-9 {
			t.Fatalf("weight %d diverged: sequential %v vs distributed %v",
				i, seq.Model.W[i], par.Model.W[i])
		}
	}
	if math.Abs(seq.Model.B-par.Model.B) > 1e-9 {
		t.Fatalf("bias diverged: %v vs %v", seq.Model.B, par.Model.B)
	}
	if math.Abs(seq.History.FinalLoss()-par.History.FinalLoss()) > 1e-9 {
		t.Fatalf("loss history diverged: %v vs %v",
			seq.History.FinalLoss(), par.History.FinalLoss())
	}
}

// The result must be invariant to the worker count (the partition changes,
// the weighted average does not).
func TestWorkerCountInvariance(t *testing.T) {
	task, err := data.LoadUCI("hepatitis", 7)
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]int, task.NumSamples())
	for i := range rows {
		rows[i] = i
	}
	base, err := LogReg(task, rows, distCfg(1), gmFactory)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 8} {
		res, err := LogReg(task, rows, distCfg(workers), gmFactory)
		if err != nil {
			t.Fatal(err)
		}
		for i := range base.Model.W {
			if math.Abs(base.Model.W[i]-res.Model.W[i]) > 1e-9 {
				t.Fatalf("%d workers diverged at weight %d", workers, i)
			}
		}
	}
}

// The server-side GM must step once per global iteration regardless of the
// worker count (the regularizer is not sharded).
func TestGMStepsOncePerGlobalIteration(t *testing.T) {
	task, err := data.LoadUCI("hepatitis", 7)
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]int, task.NumSamples())
	for i := range rows {
		rows[i] = i
	}
	cfg := distCfg(4)
	res, err := LogReg(task, rows, cfg, gmFactory)
	if err != nil {
		t.Fatal(err)
	}
	g := res.Regularizer.(*core.GM)
	e, _ := g.Steps()
	batch := cfg.SGD.BatchSize
	nBatches := (len(rows) + batch - 1) / batch
	want := cfg.SGD.Epochs * nBatches // default schedule: every iteration
	if e != want {
		t.Fatalf("GM ran %d E-steps, want %d (one per global step)", e, want)
	}
}

// epochSink counts the per-epoch events a trainer emits.
type epochSink struct{ epochs []int }

func (s *epochSink) Emit(e obs.Event) {
	if ev, ok := e.(obs.Epoch); ok {
		s.epochs = append(s.epochs, ev.Epoch)
	}
}

// TestLogRegHonoursSGDConfig pins dist.LogReg to the SGDConfig features it
// shares with train.LogReg: AfterEpoch stops training early, the sink gets
// one epoch event per trained epoch, the checkpoint policy writes its files
// and the learning-rate schedule changes the result.
func TestLogRegHonoursSGDConfig(t *testing.T) {
	task, err := data.LoadUCI("hepatitis", 7)
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]int, task.NumSamples())
	for i := range rows {
		rows[i] = i
	}

	cfg := distCfg(3)
	dir := t.TempDir()
	sink := &epochSink{}
	cfg.SGD.AfterEpoch = func(epoch int, _ float64) bool { return epoch < 1 } // stop after 2 epochs
	cfg.SGD.Ckpt = &train.CheckpointPolicy{Every: 1, Dir: dir}
	cfg.SGD.Sink = sink
	res, err := LogReg(task, rows, cfg, gmFactory)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(res.History.EpochLoss); got != 2 {
		t.Errorf("AfterEpoch stop after 2 epochs: history has %d epochs", got)
	}
	if len(sink.epochs) != 2 || sink.epochs[0] != 0 || sink.epochs[1] != 1 {
		t.Errorf("sink saw epoch events %v, want [0 1]", sink.epochs)
	}
	for _, epoch := range []int{1, 2} {
		if _, err := os.Stat(filepath.Join(dir, train.CheckpointName(epoch))); err != nil {
			t.Errorf("checkpoint after epoch %d: %v", epoch, err)
		}
	}

	base, err := LogReg(task, rows, distCfg(3), gmFactory)
	if err != nil {
		t.Fatal(err)
	}
	decay := distCfg(3)
	decay.SGD.LRDecayEvery, decay.SGD.LRDecayFactor = 2, 0.5
	decayed, err := LogReg(task, rows, decay, gmFactory)
	if err != nil {
		t.Fatal(err)
	}
	if decayed.History.EpochLoss[1] != base.History.EpochLoss[1] {
		t.Errorf("LR decay from epoch 2 changed epoch 1's loss")
	}
	if decayed.Model.W[0] == base.Model.W[0] && decayed.Model.B == base.Model.B {
		t.Errorf("LRDecayEvery left the trained model unchanged")
	}
}

func TestLogRegErrors(t *testing.T) {
	task, _ := data.LoadUCI("hepatitis", 7)
	if _, err := LogReg(task, nil, distCfg(2), gmFactory); err == nil {
		t.Error("empty rows accepted")
	}
	if _, err := LogReg(task, []int{0}, distCfg(0), gmFactory); err == nil {
		t.Error("invalid config accepted")
	}
}

// More workers than samples in a batch: empty shards must be harmless.
func TestEmptyShards(t *testing.T) {
	task, _ := data.LoadUCI("hepatitis", 7)
	rows := []int{0, 1, 2, 3, 4, 5}
	cfg := distCfg(6)
	cfg.SGD.BatchSize = 6
	res, err := LogReg(task, rows, cfg, reg.Fixed(reg.None{}))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.History.EpochLoss) != cfg.SGD.Epochs {
		t.Fatal("training did not complete")
	}
	for _, v := range res.Model.W {
		if math.IsNaN(v) {
			t.Fatal("NaN weights with empty shards")
		}
	}
}
