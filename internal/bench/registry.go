package bench

import (
	"fmt"
	"io"
	"sort"
	"time"
)

// Options carries the per-experiment knobs RunByID dispatches on.
type Options struct {
	// Model selects the CNN for the model-specific experiments
	// (fig4/fig5/fig6/fig7/table8).
	Model DeepModel
	// Datasets optionally filters Table VII's rows.
	Datasets []string
	// SLO is the serveload experiment's p99 latency objective; ≤ 0 selects
	// DefaultServeSLO.
	SLO time.Duration
}

// runner executes one experiment, discarding its structured result.
type runner func(w io.Writer, s Scale, opt Options) error

// registry maps experiment ids to their runners. Ids follow the paper's
// exhibit numbering plus the DESIGN.md §5 ablations.
var registry = map[string]runner{
	"table4": func(w io.Writer, s Scale, _ Options) error {
		_, err := RunTable4(w, s)
		return err
	},
	"table5": func(w io.Writer, s Scale, _ Options) error {
		_, err := RunTable5(w, s)
		return err
	},
	"table6": func(w io.Writer, s Scale, _ Options) error {
		_, err := RunTable6(w, s)
		return err
	},
	"table7": func(w io.Writer, s Scale, opt Options) error {
		_, err := RunTable7(w, s, opt.Datasets...)
		return err
	},
	"table8": func(w io.Writer, s Scale, opt Options) error {
		_, err := RunInitStudy(w, s, opt.Model)
		return err
	},
	"fig3": func(w io.Writer, s Scale, _ Options) error {
		_, err := RunFigure3(w, s)
		return err
	},
	"fig4": func(w io.Writer, s Scale, opt Options) error {
		_, err := RunInitStudy(w, s, opt.Model)
		return err
	},
	"fig5": func(w io.Writer, s Scale, opt Options) error {
		_, err := RunFigure5(w, s, opt.Model)
		return err
	},
	"fig6": func(w io.Writer, s Scale, opt Options) error {
		_, err := RunFigure6(w, s, opt.Model)
		return err
	},
	"fig7": func(w io.Writer, s Scale, opt Options) error {
		_, err := RunFigure7(w, s, opt.Model)
		return err
	},
	"ablation-k": func(w io.Writer, s Scale, _ Options) error {
		_, err := RunAblationK(w, s)
		return err
	},
	"ablation-merge": func(w io.Writer, s Scale, _ Options) error {
		_, err := RunAblationMerge(w, s)
		return err
	},
	"ablation-gamma": func(w io.Writer, s Scale, _ Options) error {
		_, err := RunAblationGammaPrior(w, s)
		return err
	},
	"ablation-grid": func(w io.Writer, s Scale, _ Options) error {
		_, err := RunAblationAdaptiveVsGrid(w, s)
		return err
	},
	"ablation-hpo": func(w io.Writer, s Scale, _ Options) error {
		_, err := RunAblationHPO(w, s)
		return err
	},
	"ablation-priors": func(w io.Writer, s Scale, _ Options) error {
		_, err := RunPriorAblation(w, s)
		return err
	},
	"hotpath": func(w io.Writer, s Scale, _ Options) error {
		rep, err := RunHotpath(w, s)
		if err != nil {
			return err
		}
		if err := WriteHotpathJSON(HotpathJSONPath, rep); err != nil {
			return err
		}
		fmt.Fprintln(w, "wrote", HotpathJSONPath)
		return nil
	},
	"serveload": func(w io.Writer, s Scale, opt Options) error {
		rep, err := RunServeLoad(w, s, opt.SLO)
		if err != nil {
			return err
		}
		if err := WriteServeLoadJSON(ServeLoadJSONPath, rep); err != nil {
			return err
		}
		fmt.Fprintln(w, "wrote", ServeLoadJSONPath)
		return nil
	},
	"distnet": func(w io.Writer, s Scale, _ Options) error {
		rep, err := RunDistnet(w, s)
		if err != nil {
			return err
		}
		if err := WriteDistnetJSON(DistnetJSONPath, rep); err != nil {
			return err
		}
		fmt.Fprintln(w, "wrote", DistnetJSONPath)
		return nil
	},
	"dataparallel": func(w io.Writer, s Scale, _ Options) error {
		rep, err := RunDataParallel(w, s)
		if err != nil {
			return err
		}
		if err := WriteDataParallelJSON(DataParallelJSONPath, rep); err != nil {
			return err
		}
		fmt.Fprintln(w, "wrote", DataParallelJSONPath)
		return nil
	},
}

// ExperimentIDs returns all registered experiment ids, sorted.
func ExperimentIDs() []string {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// AblationIDs returns the DESIGN.md §5 ablation ids in run order.
func AblationIDs() []string {
	return []string{"ablation-k", "ablation-merge", "ablation-gamma", "ablation-grid", "ablation-hpo", "ablation-priors"}
}

// AllIDs returns the default "run everything" order: tables, figures, then
// ablations ("fig4" is skipped because "table8" runs the same study).
func AllIDs() []string {
	ids := []string{"table4", "table5", "table6", "table7", "table8", "fig3", "fig5", "fig6", "fig7"}
	return append(ids, AblationIDs()...)
}

// RunByID executes one experiment by id, writing its report to w.
func RunByID(id string, w io.Writer, s Scale, opt Options) error {
	r, ok := registry[id]
	if !ok {
		return fmt.Errorf("bench: unknown experiment %q (known: %v)", id, ExperimentIDs())
	}
	return r(w, s, opt)
}
