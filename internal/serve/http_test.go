package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"gmreg/internal/models"
	"gmreg/internal/store"
)

// newTestServer stands up the full HTTP stack over a store holding two
// versions of one mlp model.
func newTestServer(t *testing.T) (*httptest.Server, *Checkpoint, *Checkpoint) {
	t.Helper()
	st := store.New()
	c1, c2 := makeCheckpoint(t, 1), makeCheckpoint(t, 2)
	if _, err := PutCheckpoint(st, "mlp", c1); err != nil {
		t.Fatal(err)
	}
	if _, err := PutCheckpoint(st, "mlp", c2); err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry(st)
	srv := NewServer(reg, ServerConfig{Predictor: Config{Replicas: 1, MaxBatch: 4}})
	reg.Refresh()
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })
	return ts, c1, c2
}

func postJSON(t *testing.T, url string, body any) (*http.Response, map[string]any) {
	t.Helper()
	b, _ := json.Marshal(body)
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return resp, out
}

func TestHTTPPredictSwapModels(t *testing.T) {
	ts, c1, c2 := newTestServer(t)
	x := testInputs(1)[0]
	want1, want2 := predictSerial(t, c1, x), predictSerial(t, c2, x)

	// Latest version (v2) serves by default; model name optional with one
	// model loaded.
	resp, out := postJSON(t, ts.URL+"/predict", map[string]any{"features": x})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict status %d: %v", resp.StatusCode, out)
	}
	if int(out["label"].(float64)) != want2.Label {
		t.Fatalf("label %v, want %d", out["label"], want2.Label)
	}
	if seq := out["version"].(map[string]any)["seq"].(float64); seq != 2 {
		t.Fatalf("serving seq %v, want 2", seq)
	}

	// Rollback to v1 via /swap, then predict again.
	resp, out = postJSON(t, ts.URL+"/swap", map[string]any{"model": "mlp", "seq": 1})
	if resp.StatusCode != http.StatusOK || out["pinned"] != true {
		t.Fatalf("swap: status %d %v", resp.StatusCode, out)
	}
	_, out = postJSON(t, ts.URL+"/predict", map[string]any{"model": "mlp", "features": x})
	if seq := out["version"].(map[string]any)["seq"].(float64); seq != 1 {
		t.Fatalf("after rollback serving seq %v, want 1", seq)
	}
	if int(out["label"].(float64)) != want1.Label {
		t.Fatalf("rollback label %v, want %d", out["label"], want1.Label)
	}

	// /models reports the pin, the full history, and request counters.
	mresp, err := http.Get(ts.URL + "/models")
	if err != nil {
		t.Fatal(err)
	}
	var mout struct {
		Models []struct {
			Model    string `json:"model"`
			Family   string `json:"family"`
			Pinned   bool   `json:"pinned"`
			Serving  *struct{ Seq int }
			Versions []struct{ Seq int }
			Requests int64 `json:"requests"`
			Forwards int64 `json:"forwards"`
		} `json:"models"`
	}
	if err := json.NewDecoder(mresp.Body).Decode(&mout); err != nil {
		t.Fatal(err)
	}
	mresp.Body.Close()
	if len(mout.Models) != 1 {
		t.Fatalf("models: %+v", mout.Models)
	}
	m := mout.Models[0]
	if m.Model != "mlp" || m.Family != "mlp" || !m.Pinned || m.Serving == nil ||
		m.Serving.Seq != 1 || len(m.Versions) != 2 || m.Requests != 2 || m.Forwards == 0 {
		t.Fatalf("model status: %+v", m)
	}

	// Unpin resumes the latest.
	_, out = postJSON(t, ts.URL+"/swap", map[string]any{"model": "mlp", "seq": 0})
	if out["serving"].(map[string]any)["seq"].(float64) != 2 {
		t.Fatalf("unpin: %v", out)
	}
}

func TestHTTPErrors(t *testing.T) {
	ts, _, _ := newTestServer(t)
	x := testInputs(1)[0]

	cases := []struct {
		name string
		path string
		body any
		code int
	}{
		{"unknown model", "/predict", map[string]any{"model": "nope", "features": x}, http.StatusNotFound},
		{"wrong feature count", "/predict", map[string]any{"features": []float64{1}}, http.StatusBadRequest},
		{"swap to missing version", "/swap", map[string]any{"model": "mlp", "seq": 99}, http.StatusNotFound},
		{"swap unknown model", "/swap", map[string]any{"model": "nope", "seq": 1}, http.StatusNotFound},
	}
	for _, tc := range cases {
		resp, out := postJSON(t, ts.URL+tc.path, tc.body)
		if resp.StatusCode != tc.code || out["error"] == "" {
			t.Fatalf("%s: status %d body %v, want %d with error", tc.name, resp.StatusCode, out, tc.code)
		}
	}

	// Malformed JSON body.
	resp, err := http.Post(ts.URL+"/predict", "application/json", bytes.NewReader([]byte("{")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body: status %d", resp.StatusCode)
	}

	// GET on a POST route is a 405 from the mux.
	resp, err = http.Get(ts.URL + "/predict")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /predict: status %d", resp.StatusCode)
	}
}

func TestHTTPSwapRejectsArchitectureChange(t *testing.T) {
	st := store.New()
	if _, err := PutCheckpoint(st, "m", makeCheckpoint(t, 1)); err != nil {
		t.Fatal(err)
	}
	otherSpec := models.Spec{Family: "mlp", In: 4, Hidden: 8, Classes: 2}
	otherNet, _ := otherSpec.Build()
	otherCkpt, err := NewCheckpoint(otherSpec, otherNet, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry(st)
	srv := NewServer(reg, ServerConfig{Predictor: Config{Replicas: 1}})
	reg.Refresh()
	ts := httptest.NewServer(srv.Handler())
	defer func() { ts.Close(); srv.Close() }()

	// v2 changes the architecture; the predictor must refuse and /swap must
	// report the conflict rather than claim success.
	if _, err := PutCheckpoint(st, "m", otherCkpt); err != nil {
		t.Fatal(err)
	}
	resp, out := postJSON(t, ts.URL+"/swap", map[string]any{"model": "m", "seq": 2})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("swap to incompatible spec: status %d %v", resp.StatusCode, out)
	}
	// The old version keeps serving.
	x := testInputs(1)[0]
	resp, out = postJSON(t, ts.URL+"/predict", map[string]any{"features": x})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict after failed swap: %d %v", resp.StatusCode, out)
	}
	if seq := out["version"].(map[string]any)["seq"].(float64); seq != 1 {
		t.Fatalf("serving seq %v after failed swap, want 1", seq)
	}
}

func TestHTTPHealthz(t *testing.T) {
	ts, _, _ := newTestServer(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	json.NewDecoder(resp.Body).Decode(&out)
	if resp.StatusCode != http.StatusOK || out["status"] != "ok" || out["models"].(float64) != 1 {
		t.Fatalf("healthz: %d %v", resp.StatusCode, out)
	}
}

// TestHTTPPredictFallbackBodies sends bodies outside the canonical shape
// through the full stack: encoding/json decides each one, a valid one
// answers with exactly the canonical body's bytes, and every one of them
// counts in gmreg_serve_wire_fallback_total.
func TestHTTPPredictFallbackBodies(t *testing.T) {
	ts, _, _ := newTestServer(t)
	feats, err := json.Marshal(testInputs(1)[0])
	if err != nil {
		t.Fatal(err)
	}
	post := func(body string) (int, []byte) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/predict", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, out
	}
	const counter = "gmreg_serve_wire_fallback_total "
	before, ok := scrapeValue(t, ts.URL, counter)
	if !ok {
		t.Fatalf("/metrics has no %s", counter)
	}
	code, want := post(`{"model":"mlp","features":` + string(feats) + `}`)
	if code != http.StatusOK {
		t.Fatalf("canonical body: status %d: %s", code, want)
	}
	for _, body := range []string{
		`{"MODEL":"mlp","features":` + string(feats) + `}`,
		`{"\u006dodel":"mlp","features":` + string(feats) + `}`,
		`{"model":"mlp","features":` + string(feats) + `,"extra":{"a":[1,null]}}`,
	} {
		if code, got := post(body); code != http.StatusOK || !bytes.Equal(got, want) {
			t.Fatalf("%.24s…: status %d\n got  %q\n want %q", body, code, got, want)
		}
	}
	if code, got := post(`{"features":[1e999]}`); code != http.StatusBadRequest {
		t.Fatalf("out-of-range feature: status %d: %s, want 400", code, got)
	}
	after, _ := scrapeValue(t, ts.URL, counter)
	if after-before != 4 {
		t.Fatalf("fallback counter rose by %v, want 4", after-before)
	}
}
