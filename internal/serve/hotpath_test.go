package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"gmreg/internal/obs"
	"gmreg/internal/store"
)

// newCoreServer builds a server over two checkpoint versions of "mlp"
// without the HTTP stack, so tests can drive the servePredict core directly.
func newCoreServer(t *testing.T, cfg ServerConfig) (*Server, *Registry) {
	t.Helper()
	st := store.New()
	for _, salt := range []float64{1, 2} {
		if _, err := PutCheckpoint(st, "mlp", makeCheckpoint(t, salt)); err != nil {
			t.Fatal(err)
		}
	}
	reg := NewRegistry(st)
	cfg.Metrics = obs.NewRegistry()
	srv := NewServer(reg, cfg)
	reg.Refresh()
	t.Cleanup(srv.Close)
	return srv, reg
}

func predictBody(t *testing.T) []byte {
	t.Helper()
	x := testInputs(1)[0]
	b, err := json.Marshal(predictRequest{Model: "mlp", Features: x})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// runPredictCore drives one request through the pooled core the way
// handlePredict does, returning the response bytes (valid until the next
// call recycles the buffer).
func runPredictCore(t *testing.T, srv *Server, body []byte) []byte {
	t.Helper()
	wb := getWireBuf()
	status, msg, abandoned := srv.servePredict(context.Background(), wb, bytes.NewReader(body))
	if status != http.StatusOK {
		t.Fatalf("predict status %d: %s", status, msg)
	}
	out := append([]byte(nil), wb.out...)
	if !abandoned {
		putWireBuf(wb)
	}
	return out
}

// TestPredictResponseMatchesEncodingJSON proves the hot path's response
// bytes are exactly what the old json.NewEncoder-based handler emitted: the
// response must round-trip through encoding/json unchanged.
func TestPredictResponseMatchesEncodingJSON(t *testing.T) {
	srv, _ := newCoreServer(t, ServerConfig{Predictor: Config{Replicas: 1, MaxBatch: 4}})
	out := runPredictCore(t, srv, predictBody(t))
	var pr predictResponse
	if err := json.Unmarshal(out, &pr); err != nil {
		t.Fatalf("response is not valid JSON: %v\n%q", err, out)
	}
	if pr.Model != "mlp" || pr.Version.Seq != 2 || len(pr.Probs) == 0 {
		t.Fatalf("unexpected response values: %+v", pr)
	}
	var want bytes.Buffer
	if err := json.NewEncoder(&want).Encode(pr); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, want.Bytes()) {
		t.Fatalf("response differs from encoding/json output:\n got  %q\n want %q", out, want.Bytes())
	}
}

// TestPredictHotPathZeroAlloc is the acceptance gate: the steady-state
// /predict cycle (read → decode → batch-predict → encode) must stay within
// 2 allocs/request, measured by testing.AllocsPerRun across the pooled core
// and the batch executor goroutine together.
func TestPredictHotPathZeroAlloc(t *testing.T) {
	srv, _ := newCoreServer(t, ServerConfig{Predictor: Config{Replicas: 1, MaxBatch: 4}})
	body := predictBody(t)
	ctx := context.Background()
	rd := bytes.NewReader(body)
	oneReq := func() {
		rd.Reset(body)
		wb := getWireBuf()
		status, msg, abandoned := srv.servePredict(ctx, wb, rd)
		if status != http.StatusOK {
			t.Errorf("predict status %d: %s", status, msg)
		}
		if !abandoned {
			putWireBuf(wb)
		}
	}
	for i := 0; i < 64; i++ { // warm the wire pool, request pool, and arena
		oneReq()
	}
	if raceEnabled {
		t.Skip("alloc budget not measurable under -race (instrumented sync.Pool drops puts)")
	}
	allocs := testing.AllocsPerRun(300, oneReq)
	t.Logf("steady-state allocs/request: %.2f", allocs)
	if allocs > 2 {
		t.Fatalf("hot path allocates %.2f times per request, budget is 2", allocs)
	}
}

// TestPredictConcurrentWithSwapRace hammers the pooled core from many
// goroutines while checkpoint versions hot-swap underneath, then re-asserts
// the steady-state allocation budget — run under -race this also proves the
// buffer recycling introduces no data race with the swap path.
func TestPredictConcurrentWithSwapRace(t *testing.T) {
	srv, reg := newCoreServer(t, ServerConfig{
		Predictor: Config{Replicas: 2, MaxBatch: 8, QueueCap: 512},
	})
	body := predictBody(t)
	stop := make(chan struct{})
	var swapper sync.WaitGroup
	swapper.Add(1)
	go func() {
		defer swapper.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := reg.Pin("mlp", 1+i%2); err != nil {
				t.Errorf("pin: %v", err)
				return
			}
		}
	}()
	var hammers sync.WaitGroup
	for g := 0; g < 8; g++ {
		hammers.Add(1)
		go func() {
			defer hammers.Done()
			ctx := context.Background()
			rd := bytes.NewReader(body)
			for i := 0; i < 200; i++ {
				rd.Reset(body)
				wb := getWireBuf()
				status, msg, abandoned := srv.servePredict(ctx, wb, rd)
				// 503 is legitimate under this load (bounded admission).
				if status != http.StatusOK && status != http.StatusServiceUnavailable {
					t.Errorf("predict status %d: %s", status, msg)
				}
				if !abandoned {
					putWireBuf(wb)
				}
			}
		}()
	}
	hammers.Wait()
	close(stop)
	swapper.Wait()

	// The pools must return to the allocation-free steady state after the
	// storm.
	ctx := context.Background()
	rd := bytes.NewReader(body)
	oneReq := func() {
		rd.Reset(body)
		wb := getWireBuf()
		status, msg, abandoned := srv.servePredict(ctx, wb, rd)
		if status != http.StatusOK {
			t.Errorf("predict status %d: %s", status, msg)
		}
		if !abandoned {
			putWireBuf(wb)
		}
	}
	for i := 0; i < 64; i++ {
		oneReq()
	}
	if raceEnabled {
		// The hammer above is the point of the -race run; the alloc budget
		// is re-asserted only in uninstrumented builds.
		return
	}
	allocs := testing.AllocsPerRun(200, oneReq)
	t.Logf("post-hammer steady-state allocs/request: %.2f", allocs)
	if allocs > 2 {
		t.Fatalf("hot path allocates %.2f times per request after swap hammer, budget is 2", allocs)
	}
}

// TestPredictTimeoutAbandonsBuffers exercises the pooled-timer deadline: a
// nanosecond budget must produce the same 504 the context deadline used to,
// and mark the buffers as abandoned so they are never recycled while a
// batch executor may still write into them.
func TestPredictTimeoutAbandonsBuffers(t *testing.T) {
	srv, _ := newCoreServer(t, ServerConfig{
		RequestTimeout: time.Nanosecond,
		Predictor:      Config{Replicas: 1, MaxBatch: 8},
	})
	p, _, err := srv.predictor("mlp")
	if err != nil {
		t.Fatal(err)
	}
	// Holding the replica keeps the request waiting, so the deadline
	// deterministically fires first.
	release := holdReplicas(p)
	defer release()
	wb := getWireBuf()
	status, msg, abandoned := srv.servePredict(context.Background(), wb, bytes.NewReader(predictBody(t)))
	if status != http.StatusGatewayTimeout || msg != "prediction timed out" {
		t.Fatalf("status %d msg %q, want 504 %q", status, msg, "prediction timed out")
	}
	if !abandoned {
		t.Fatal("timed-out request was not marked abandoned")
	}
}

// TestBodyLimits covers the configurable caps end to end over HTTP: a
// /predict body beyond MaxPredictBody and a /swap body beyond MaxSwapBody
// both answer a counted 413, and normal requests still succeed.
func TestBodyLimits(t *testing.T) {
	srv, _ := newCoreServer(t, ServerConfig{
		Predictor:      Config{Replicas: 1, MaxBatch: 4},
		MaxPredictBody: 256,
		MaxSwapBody:    32,
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	post := func(path, body string) int {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	big := `{"model":"mlp","features":[` + strings.Repeat("1,", 200) + `1]}`
	if code := post("/predict", big); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized /predict: status %d, want 413", code)
	}
	if code := post("/swap", `{"model":"mlp","seq":1,"pad":"`+strings.Repeat("x", 64)+`"}`); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized /swap: status %d, want 413", code)
	}
	if n := srv.tooLarge.Load(); n != 2 {
		t.Fatalf("tooLarge counter = %d, want 2", n)
	}
	if code := post("/swap", `{"model":"mlp","seq":1}`); code != http.StatusOK {
		t.Fatalf("small /swap: status %d, want 200", code)
	}
	small := string(predictBody(t))
	if len(small) > 256 {
		t.Fatalf("test body unexpectedly large (%d bytes)", len(small))
	}
	if code := post("/predict", small); code != http.StatusOK {
		t.Fatalf("small /predict: status %d, want 200", code)
	}
}
