package bench

import (
	"bytes"
	"strings"
	"testing"
)

func TestExperimentIDsComplete(t *testing.T) {
	ids := ExperimentIDs()
	want := []string{
		"ablation-gamma", "ablation-grid", "ablation-hpo", "ablation-k", "ablation-merge", "ablation-priors",
		"dataparallel", "distnet", "fig3", "fig4", "fig5", "fig6", "fig7", "hotpath",
		"serveload", "table4", "table5", "table6", "table7", "table8",
	}
	if len(ids) != len(want) {
		t.Fatalf("ids = %v", ids)
	}
	for i, id := range want {
		if ids[i] != id {
			t.Fatalf("ids = %v, want %v", ids, want)
		}
	}
}

func TestAllIDsAreRegistered(t *testing.T) {
	for _, id := range AllIDs() {
		if _, ok := registry[id]; !ok {
			t.Errorf("AllIDs contains unregistered %q", id)
		}
	}
	for _, id := range AblationIDs() {
		if !strings.HasPrefix(id, "ablation-") {
			t.Errorf("ablation id %q lacks prefix", id)
		}
	}
}

func TestRunByIDUnknown(t *testing.T) {
	var buf bytes.Buffer
	if err := RunByID("nope", &buf, microScale(), Options{}); err == nil {
		t.Fatal("unknown id accepted")
	}
}

func TestRunByIDDispatches(t *testing.T) {
	var buf bytes.Buffer
	// A cheap experiment end-to-end through the registry.
	err := RunByID("fig6", &buf, microScale(), Options{Model: ModelAlex})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Fig. 6") {
		t.Fatalf("dispatch produced %q", buf.String())
	}
	// Dataset filter reaches Table VII.
	buf.Reset()
	if err := RunByID("table7", &buf, microScale(), Options{Datasets: []string{"climate-model"}}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "climate-model") || strings.Contains(out, "horse-colic") {
		t.Fatal("dataset filter not honoured through the registry")
	}
}
