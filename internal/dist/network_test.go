package dist

import (
	"testing"

	"gmreg/internal/data"
	"gmreg/internal/nn"
	"gmreg/internal/tensor"
	"gmreg/internal/train"
)

// The data-parallel trainer's whole value proposition is exact numerics:
// these tests compare weights with ==, not tolerances. A wide replica pool
// is substituted so replicas really run concurrently even on one CPU.

func netTestSetup(t *testing.T) *data.ImageSet {
	t.Helper()
	oldPool := replicaPool
	replicaPool = &tensor.WorkerPool{Size: 4}
	t.Cleanup(func() { replicaPool = oldPool })
	spec := data.DefaultCIFAR(48, 16)
	spec.Size = 8
	spec.Classes = 4
	trainSet, _ := data.GenerateCIFAR(spec, 7)
	return trainSet
}

// tinyConv is a small Alex-shaped network: conv/pool/relu/dense, no batch
// norm, no dropout — the architecture class with the exact-equality
// guarantee.
func tinyConv(seed uint64) *nn.Network {
	rng := tensor.NewRNG(seed)
	return nn.NewNetwork(
		nn.NewConv2D("conv1", 3, 4, 3, 1, 1, 0.1, rng),
		nn.NewMaxPool2D("pool1", 2, 2, 0),
		nn.NewReLU("relu1"),
		nn.NewFlatten("flatten"),
		nn.NewDense("fc", 4*4*4, 4, 0.1, rng),
	)
}

// tinyBNConv adds batch norm for the ghost-batch semantics tests.
func tinyBNConv(seed uint64) *nn.Network {
	rng := tensor.NewRNG(seed)
	return nn.NewNetwork(
		nn.NewConv2D("conv1", 3, 4, 3, 1, 1, 0.1, rng),
		nn.NewBatchNorm("bn1", 4),
		nn.NewReLU("relu1"),
		nn.NewMaxPool2D("pool1", 2, 2, 0),
		nn.NewFlatten("flatten"),
		nn.NewDense("fc", 4*4*4, 4, 0.1, rng),
	)
}

func netCfg(replicas int, prefetch bool) NetConfig {
	return NetConfig{
		Replicas: replicas,
		SGD: train.SGDConfig{
			LearningRate: 0.05,
			Momentum:     0.9,
			Epochs:       3,
			BatchSize:    16,
			Seed:         9,
			ShardSize:    4, // pinned: R-independent canonical partition
			Prefetch:     prefetch,
		},
	}
}

func weightsOf(net *nn.Network) [][]float64 {
	var ws [][]float64
	for _, p := range net.Params() {
		ws = append(ws, append([]float64(nil), p.W...))
	}
	return ws
}

func requireSameWeights(t *testing.T, label string, a, b [][]float64) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d vs %d parameter groups", label, len(a), len(b))
	}
	for g := range a {
		for j := range a[g] {
			if a[g][j] != b[g][j] {
				t.Fatalf("%s: group %d element %d: %v != %v", label, g, j, a[g][j], b[g][j])
			}
		}
	}
}

// TestNetworkBitIdenticalToSequential is the tentpole guarantee: at a
// pinned ShardSize, dist.Network at R ∈ {1, 2, 4} (prefetch on and off)
// produces exactly the weights and loss history of the sequential
// train.Network.
func TestNetworkBitIdenticalToSequential(t *testing.T) {
	set := netTestSetup(t)
	cfg := netCfg(1, false)

	seqNet := tinyConv(21)
	seqRes, err := train.Network(seqNet, set, cfg.SGD, gmFactory)
	if err != nil {
		t.Fatal(err)
	}
	want := weightsOf(seqNet)

	for _, replicas := range []int{1, 2, 4} {
		for _, prefetch := range []bool{false, true} {
			c := netCfg(replicas, prefetch)
			net := tinyConv(21)
			res, err := Network(net, set, c, gmFactory)
			if err != nil {
				t.Fatal(err)
			}
			label := "R=" + string(rune('0'+replicas))
			requireSameWeights(t, label, weightsOf(net), want)
			if len(res.History.EpochLoss) != len(seqRes.History.EpochLoss) {
				t.Fatalf("%s: history length %d vs %d", label, len(res.History.EpochLoss), len(seqRes.History.EpochLoss))
			}
			for e := range res.History.EpochLoss {
				if res.History.EpochLoss[e] != seqRes.History.EpochLoss[e] {
					t.Fatalf("%s: epoch %d loss %v != %v", label, e, res.History.EpochLoss[e], seqRes.History.EpochLoss[e])
				}
			}
		}
	}
}

// TestNetworkRepeatedRunsBitIdentical is the seeded determinism guard
// against prefetch/reduction reordering: repeated runs — sequential and at
// each replica count — must reproduce the final weights exactly.
func TestNetworkRepeatedRunsBitIdentical(t *testing.T) {
	set := netTestSetup(t)

	seq1, seq2 := tinyConv(4), tinyConv(4)
	if _, err := train.Network(seq1, set, netCfg(1, false).SGD, gmFactory); err != nil {
		t.Fatal(err)
	}
	if _, err := train.Network(seq2, set, netCfg(1, false).SGD, gmFactory); err != nil {
		t.Fatal(err)
	}
	requireSameWeights(t, "sequential rerun", weightsOf(seq1), weightsOf(seq2))

	for _, replicas := range []int{1, 2, 4} {
		c := netCfg(replicas, true)
		n1, n2 := tinyConv(4), tinyConv(4)
		if _, err := Network(n1, set, c, gmFactory); err != nil {
			t.Fatal(err)
		}
		if _, err := Network(n2, set, c, gmFactory); err != nil {
			t.Fatal(err)
		}
		requireSameWeights(t, "replica rerun", weightsOf(n1), weightsOf(n2))
	}
}

// TestNetworkGhostBatchNorm documents the batch-norm semantics: training
// normalizes per micro-shard, so gradients — and therefore weights — still
// match the sequential trainer exactly at equal ShardSize, and repeated
// runs are deterministic; only the running statistics are combined
// differently (replica-averaged vs one sequential EMA).
func TestNetworkGhostBatchNorm(t *testing.T) {
	set := netTestSetup(t)
	cfg := netCfg(2, false)

	seqNet := tinyBNConv(33)
	if _, err := train.Network(seqNet, set, cfg.SGD, gmFactory); err != nil {
		t.Fatal(err)
	}
	d1, d2 := tinyBNConv(33), tinyBNConv(33)
	if _, err := Network(d1, set, cfg, gmFactory); err != nil {
		t.Fatal(err)
	}
	if _, err := Network(d2, set, cfg, gmFactory); err != nil {
		t.Fatal(err)
	}
	requireSameWeights(t, "BN weights vs sequential", weightsOf(d1), weightsOf(seqNet))
	requireSameWeights(t, "BN rerun", weightsOf(d1), weightsOf(d2))

	m1, v1 := d1.BatchNorms()[0].RunningStats()
	m2, v2 := d2.BatchNorms()[0].RunningStats()
	for c := range m1 {
		if m1[c] != m2[c] || v1[c] != v2[c] {
			t.Fatalf("running stats not deterministic at channel %d", c)
		}
	}
}

// TestNetworkDefaultShardSize checks the ceil(batch/R) default and that
// training still runs (and is deterministic) without a pinned ShardSize.
func TestNetworkDefaultShardSize(t *testing.T) {
	set := netTestSetup(t)
	cfg := netCfg(3, false)
	cfg.SGD.ShardSize = 0
	n1, n2 := tinyConv(2), tinyConv(2)
	if _, err := Network(n1, set, cfg, gmFactory); err != nil {
		t.Fatal(err)
	}
	if _, err := Network(n2, set, cfg, gmFactory); err != nil {
		t.Fatal(err)
	}
	requireSameWeights(t, "default shard size", weightsOf(n1), weightsOf(n2))
}

// TestNetworkErrors covers the validation paths.
func TestNetworkErrors(t *testing.T) {
	set := netTestSetup(t)
	if _, err := Network(tinyConv(1), set, NetConfig{Replicas: 0, SGD: netCfg(1, false).SGD}, gmFactory); err == nil {
		t.Error("0 replicas accepted")
	}
	bad := netCfg(2, false)
	bad.SGD.BarzilaiBorwein = true
	if _, err := Network(tinyConv(1), set, bad, gmFactory); err == nil {
		t.Error("BB accepted")
	}
	empty := &data.ImageSet{C: 3, H: 8, W: 8, Classes: 4}
	if _, err := Network(tinyConv(1), empty, netCfg(1, false), gmFactory); err == nil {
		t.Error("empty training set accepted")
	}
}
