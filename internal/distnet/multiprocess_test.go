package distnet

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"os/exec"
	"strconv"
	"testing"
	"time"

	"gmreg/internal/data"
	"gmreg/internal/models"
	"gmreg/internal/nn"
	"gmreg/internal/obs"
	"gmreg/internal/train"
)

// TestMain doubles the test binary as a trainer executable: when
// GMREG_DISTNET_TRAINER is set, the process runs a trainer against that
// coordinator address instead of the test suite. The multiprocess tests
// below exec os.Args[0] with the variable set, giving genuinely separate
// OS processes speaking the real protocol over loopback — the full
// multi-process topology, exercised inside `go test`.
func TestMain(m *testing.M) {
	if addr := os.Getenv("GMREG_DISTNET_TRAINER"); addr != "" {
		die, _ := strconv.Atoi(os.Getenv("GMREG_DISTNET_DIE"))
		err := RunTrainer(TrainerConfig{Addr: addr, DieAfterSteps: die})
		if err != nil {
			fmt.Fprintln(os.Stderr, "trainer:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// spawnTrainer execs this test binary as a trainer subprocess.
func spawnTrainer(t *testing.T, addr string, dieAfterSteps int) (*exec.Cmd, *bytes.Buffer) {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(),
		"GMREG_DISTNET_TRAINER="+addr,
		fmt.Sprintf("GMREG_DISTNET_DIE=%d", dieAfterSteps))
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	return cmd, &stderr
}

// memberWatch is a sink that surfaces membership events to the test.
type memberWatch struct {
	joins  chan obs.Member
	deaths chan obs.Member
}

func newMemberWatch() *memberWatch {
	return &memberWatch{joins: make(chan obs.Member, 16), deaths: make(chan obs.Member, 16)}
}

func (w *memberWatch) Emit(e obs.Event) {
	m, ok := e.(obs.Member)
	if !ok {
		return
	}
	if m.Action == "join" {
		w.joins <- m
	} else {
		w.deaths <- m
	}
}

func await(t *testing.T, ch chan obs.Member, what string) obs.Member {
	t.Helper()
	select {
	case m := <-ch:
		return m
	case <-time.After(60 * time.Second):
		t.Fatalf("timed out awaiting %s", what)
		return obs.Member{}
	}
}

// multiProcessJob runs a coordinator in-process against subprocess
// trainers. dieAfterSteps configures one per trainer (0 = run to
// completion); killExternally, when true, kill -9s the first trainer from
// the parent once every trainer has joined.
func multiProcessJob(t *testing.T, set *data.ImageSet, spec models.Spec, sgd train.SGDConfig,
	dieAfterSteps []int, killExternally bool) (*nn.Network, *RunStats) {
	t.Helper()
	watch := newMemberWatch()
	sgd.Sink = watch
	stats := &RunStats{}
	addrCh := make(chan net.Addr, 1)
	cfg := Config{
		Addr:             "127.0.0.1:0",
		Spec:             spec,
		MinTrainers:      len(dieAfterSteps),
		SGD:              sgd,
		HeartbeatTimeout: 30 * time.Second,
		JoinWait:         60 * time.Second,
		Stats:            stats,
		OnListen:         func(a net.Addr) { addrCh <- a },
	}
	netw, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	type outcome struct{ err error }
	done := make(chan outcome, 1)
	go func() {
		_, err := Coordinate(netw, set, cfg, gmFactory)
		done <- outcome{err}
	}()
	addr := (<-addrCh).String()

	cmds := make([]*exec.Cmd, len(dieAfterSteps))
	logs := make([]*bytes.Buffer, len(dieAfterSteps))
	for i, die := range dieAfterSteps {
		cmds[i], logs[i] = spawnTrainer(t, addr, die)
	}
	t.Cleanup(func() {
		for _, cmd := range cmds {
			if cmd.Process != nil {
				cmd.Process.Kill()
				cmd.Wait()
			}
		}
	})
	if killExternally {
		for range cmds {
			await(t, watch.joins, "trainer join")
		}
		// kill -9 from outside, mid-run: SIGKILL, no cleanup, no goodbye.
		if err := cmds[0].Process.Kill(); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case o := <-done:
		if o.err != nil {
			for i, l := range logs {
				if l.Len() > 0 {
					t.Logf("trainer %d stderr: %s", i, l)
				}
			}
			t.Fatal(o.err)
		}
	case <-time.After(120 * time.Second):
		t.Fatal("coordinator did not finish")
	}
	return netw, stats
}

// TestMultiProcessBitIdentical runs coordinator + 2 genuine trainer
// processes to completion: final weights byte-equal to the sequential
// trainer, both subprocesses exit 0.
func TestMultiProcessBitIdentical(t *testing.T) {
	set, spec := tabularJob(t)
	sgd := testSGD(3)

	seqNet, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := train.Network(seqNet, set, sgd, gmFactory); err != nil {
		t.Fatal(err)
	}

	netw, stats := multiProcessJob(t, set, spec, sgd, []int{0, 0}, false)
	requireSameWeights(t, "2 trainer processes", weightsOf(netw), weightsOf(seqNet))
	if stats.Joins != 2 || stats.Deaths != 0 {
		t.Fatalf("unexpected membership churn: %+v", stats)
	}
}

// TestMultiProcessKillMidEpoch is the flagship elastic guarantee: one of
// two trainer processes SIGKILLs itself upon receiving its 5th Step —
// mid-epoch, with shards assigned and the coordinator blocked on its reply.
// The job must detect the death, snapshot, re-partition onto the survivor,
// finish every epoch, and produce final weights byte-equal to the
// undisturbed sequential run.
func TestMultiProcessKillMidEpoch(t *testing.T) {
	set, spec := tabularJob(t)
	sgd := testSGD(3) // 4 batches/epoch: step 5 is mid-epoch 2

	seqNet, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := train.Network(seqNet, set, sgd, gmFactory); err != nil {
		t.Fatal(err)
	}

	netw, stats := multiProcessJob(t, set, spec, sgd, []int{0, 5}, false)
	requireSameWeights(t, "after kill -9 mid-epoch", weightsOf(netw), weightsOf(seqNet))
	if stats.Deaths != 1 || stats.StepRedos < 1 || stats.Snapshots != 1 {
		t.Fatalf("death not handled: %+v", stats)
	}
}

// TestMultiProcessExternalKill does the kill from the parent process at an
// arbitrary moment after both trainers joined — whenever the SIGKILL lands,
// the surviving process must carry the job to the same final bytes.
func TestMultiProcessExternalKill(t *testing.T) {
	set, spec := tabularJob(t)
	sgd := testSGD(4)

	seqNet, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := train.Network(seqNet, set, sgd, gmFactory); err != nil {
		t.Fatal(err)
	}

	netw, _ := multiProcessJob(t, set, spec, sgd, []int{0, 0}, true)
	requireSameWeights(t, "after external kill -9", weightsOf(netw), weightsOf(seqNet))
}
