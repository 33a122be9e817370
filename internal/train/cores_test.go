package train_test

import (
	"bytes"
	"crypto/sha256"
	"os"
	"os/exec"
	"strconv"
	"testing"

	"gmreg"
	"gmreg/internal/data"
	"gmreg/internal/nn"
	"gmreg/internal/tensor"
	"gmreg/internal/train"
)

// coresChildDir names the environment variable that turns this test binary
// into a child of TestCheckpointBytesIndependentOfGOMAXPROCS: it trains
// coresNet and writes its checkpoints to the directory the variable holds.
const coresChildDir = "GMREG_TRAIN_CORES_CHILD"

const coresEpochs = 2

// TestCheckpointBytesIndependentOfGOMAXPROCS trains the same small conv
// network at GOMAXPROCS 1, 2 and 4 and asserts that the final checkpoints
// are byte-equal. Each run is a separate process, this test binary run
// again with -test.run, because a setting a process derives from its core
// count at start-up does not follow a later runtime.GOMAXPROCS call; an
// in-process sweep would miss it.
//
// The sizes make both per-chunk reductions split into several chunks. The
// 16×16 conv map makes the conv weight gradient's k-reduction 256 long
// (four chunks). The batch of 128 splits Conv2D's weight gradient over
// samples, and the dense layer's k = 128 reduction, into two.
func TestCheckpointBytesIndependentOfGOMAXPROCS(t *testing.T) {
	if dir := os.Getenv(coresChildDir); dir != "" {
		trainCoresNet(t, dir)
		return
	}
	var want []byte
	for _, procs := range []int{1, 2, 4} {
		dir := t.TempDir()
		cmd := exec.Command(os.Args[0], "-test.run=^TestCheckpointBytesIndependentOfGOMAXPROCS$", "-test.count=1")
		cmd.Env = append(os.Environ(), coresChildDir+"="+dir, "GOMAXPROCS="+strconv.Itoa(procs))
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("GOMAXPROCS=%d run: %v\n%s", procs, err, out)
		}
		got := finalCkptBytes(t, dir, coresEpochs)
		if want == nil {
			want = got
			continue
		}
		if !bytes.Equal(got, want) {
			t.Errorf("GOMAXPROCS=%d checkpoint (sha256 %x) differs from GOMAXPROCS=1 (sha256 %x)",
				procs, sha256.Sum256(got), sha256.Sum256(want))
		}
	}
}

// trainCoresNet trains a conv/pool/dense network on 128 synthetic 16×16
// images, one batch per epoch, and checkpoints the last epoch into dir.
func trainCoresNet(t *testing.T, dir string) {
	t.Helper()
	spec := data.DefaultCIFAR(128, 16)
	spec.Size = 16
	spec.Classes = 4
	set, _ := data.GenerateCIFAR(spec, 5)
	rng := tensor.NewRNG(6)
	net := nn.NewNetwork(
		nn.NewConv2D("conv1", 3, 4, 3, 1, 1, 0.1, rng),
		nn.NewReLU("relu1"),
		nn.NewMaxPool2D("pool1", 2, 2, 0),
		nn.NewFlatten("flatten"),
		nn.NewDense("fc", 4*8*8, 4, 0.1, rng),
	)
	cfg := train.SGDConfig{
		LearningRate: 0.05,
		Momentum:     0.9,
		Epochs:       coresEpochs,
		BatchSize:    128,
		Seed:         7,
		Ckpt:         &train.CheckpointPolicy{Every: coresEpochs, Dir: dir},
	}
	if _, err := train.Network(net, set, cfg, gmreg.New()); err != nil {
		t.Fatal(err)
	}
}
