package train_test

// Golden oracles for internal restructuring: the default zero-mean-GM path
// must stay bit-identical — byte-equal checkpoint files (including the gob
// framing PR-8-era files used) and an identical deterministic telemetry
// stream. The LogReg entry was recorded from the tree before the Prior
// interface existed; the network entries from the tree before the three
// network trainers shared one epoch loop, so a change that moved every
// network trainer in lockstep still has a fixed point to be compared with.
// Regenerate deliberately with
// GMREG_UPDATE_GOLDEN=1 go test ./internal/train -run Golden; any mismatch
// means a change altered the numerics, the serialization, or the event
// stream of the default family.

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gmreg"
	"gmreg/internal/data"
	"gmreg/internal/models"
	"gmreg/internal/train"
)

// goldenLogReg trains the pinned LogReg+GM configuration and returns the
// final checkpoint bytes and the canonical telemetry stream.
func goldenLogReg(t *testing.T) ([]byte, []string) {
	t.Helper()
	task, err := data.LoadUCI("horse-colic", 7)
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]int, task.NumSamples())
	for i := range rows {
		rows[i] = i
	}
	dir := t.TempDir()
	sink := &canonSink{}
	cfg := train.SGDConfig{
		LearningRate: 0.5,
		Momentum:     0.9,
		Epochs:       6,
		BatchSize:    32,
		Seed:         3,
		Sink:         sink,
		Ckpt:         &train.CheckpointPolicy{Every: 2, Dir: dir},
	}
	if _, err := train.LogReg(task, rows, cfg, gmreg.New(gmreg.WithSink(sink))); err != nil {
		t.Fatal(err)
	}
	return finalCkptBytes(t, dir, 6), sink.events
}

// goldenMLP trains the shared-spec MLP on horse-colic through train.Network
// with GM, periodic checkpoints and a sink, at the given micro-shard size
// (0 = whole batch). Its 368 rows are 13 batches of 28 plus a ragged batch
// of 4, which is a single shard at either size.
func goldenMLP(shard int) func(*testing.T) ([]byte, []string) {
	return func(t *testing.T) ([]byte, []string) {
		t.Helper()
		task, err := data.LoadUCI("horse-colic", 7)
		if err != nil {
			t.Fatal(err)
		}
		set := data.TabularImageSet(task)
		net, err := models.Spec{Family: "mlp", In: set.C, Hidden: 8, Classes: set.Classes}.Build()
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		sink := &canonSink{}
		cfg := train.SGDConfig{
			LearningRate: 0.05,
			Momentum:     0.9,
			Epochs:       4,
			BatchSize:    28,
			ShardSize:    shard,
			Seed:         9,
			Sink:         sink,
			Ckpt:         &train.CheckpointPolicy{Every: 2, Dir: dir},
		}
		if _, err := train.Network(net, set, cfg, gmreg.New(gmreg.WithSink(sink))); err != nil {
			t.Fatal(err)
		}
		return finalCkptBytes(t, dir, 4), sink.events
	}
}

func TestGMGoldenCheckpointBytes(t *testing.T) {
	for _, tc := range []struct {
		name, ckpt, tel string
		run             func(*testing.T) ([]byte, []string)
	}{
		{"logreg", "golden-gm.gmckpt", "golden-gm-telemetry.txt", goldenLogReg},
		{"network-mlp-shard0", "golden-mlp-shard0.gmckpt", "golden-mlp-shard0-telemetry.txt", goldenMLP(0)},
		{"network-mlp-shard4", "golden-mlp-shard4.gmckpt", "golden-mlp-shard4-telemetry.txt", goldenMLP(4)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ckptPath := filepath.Join("testdata", tc.ckpt)
			telPath := filepath.Join("testdata", tc.tel)
			raw, events := tc.run(t)
			stream := strings.Join(events, "\n") + "\n"
			if os.Getenv("GMREG_UPDATE_GOLDEN") != "" {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(ckptPath, raw, 0o644); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(telPath, []byte(stream), 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("golden files updated (%d ckpt bytes, %d events)", len(raw), len(events))
				return
			}
			want, err := os.ReadFile(ckptPath)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(raw, want) {
				t.Fatalf("GM checkpoint bytes diverge from the recorded oracle: got %d bytes, want %d — the default family is no longer bit-identical", len(raw), len(want))
			}
			wantTel, err := os.ReadFile(telPath)
			if err != nil {
				t.Fatal(err)
			}
			if stream != string(wantTel) {
				t.Fatalf("GM telemetry stream diverges from the recorded oracle")
			}
			// The golden file must also still parse as a resumable-format checkpoint.
			if _, err := train.LoadState(ckptPath); err != nil {
				t.Fatalf("golden checkpoint no longer loads: %v", err)
			}
		})
	}
}
