// Command waldo-bench regenerates the paper's tables and figures on the
// simulated metro campaign and prints them as text reports.
//
// Usage:
//
//	waldo-bench [-seed N] [-samples N] [-run name,name,...] [-list]
//
// With no -run filter every experiment runs in paper order; a name that
// -list does not print is an error.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"time"

	"github.com/wsdetect/waldo/internal/experiments"
)

// renderer is any experiment result.
type renderer interface{ Render() string }

type experiment struct {
	name string
	run  func(s *experiments.Suite) (renderer, error)
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "waldo-bench:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("waldo-bench", flag.ContinueOnError)
	seed := fs.Int64("seed", 42, "campaign seed")
	samples := fs.Int("samples", 5282, "readings per channel per sensor")
	filter := fs.String("run", "", "comma-separated experiment names (default: all)")
	list := fs.Bool("list", false, "list experiment names and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}

	exps := registry()
	names := make([]string, len(exps))
	for i, e := range exps {
		names[i] = e.name
	}
	if *list {
		fmt.Fprintln(out, strings.Join(names, "\n"))
		return nil
	}

	wanted := map[string]bool{}
	if *filter != "" {
		for _, name := range strings.Split(*filter, ",") {
			name = strings.TrimSpace(name)
			if !slices.Contains(names, name) {
				return fmt.Errorf("-run: unknown experiment %q (valid: %s)", name, strings.Join(names, ", "))
			}
			wanted[name] = true
		}
	}

	suite := experiments.NewSuite(experiments.Config{Seed: *seed, Samples: *samples})
	for _, e := range exps {
		if len(wanted) > 0 && !wanted[e.name] {
			continue
		}
		start := time.Now()
		res, err := e.run(suite)
		if err != nil {
			return fmt.Errorf("%s: %w", e.name, err)
		}
		fmt.Fprintf(out, "==== %s (%.1fs) ====\n%s\n", e.name, time.Since(start).Seconds(), res.Render())
	}
	return nil
}

func registry() []experiment {
	return []experiment{
		{"fig4", func(s *experiments.Suite) (renderer, error) { return s.Fig4() }},
		{"fig5", func(s *experiments.Suite) (renderer, error) { return s.Fig5SensorSensitivity() }},
		{"fig6", func(s *experiments.Suite) (renderer, error) { return s.Fig6DetectionTraces(0) }},
		{"fig7", func(s *experiments.Suite) (renderer, error) { return s.Fig7LabelCorrelation() }},
		{"sec22", func(s *experiments.Suite) (renderer, error) { return s.Sec22SafetyEfficiency() }},
		{"fig10-11", func(s *experiments.Suite) (renderer, error) { return s.Fig10and11FeatureBoxplots() }},
		{"fig12", func(s *experiments.Suite) (renderer, error) { return s.Fig12FeatureEffect() }},
		{"fig13", func(s *experiments.Suite) (renderer, error) { return s.Fig13LocalModels() }},
		{"fig14", func(s *experiments.Suite) (renderer, error) { return s.Fig14TrainingSize() }},
		{"fig15", func(s *experiments.Suite) (renderer, error) { return s.Fig15AntennaCorrection() }},
		{"table1-fig16", func(s *experiments.Suite) (renderer, error) { return s.Table1VScopeComparison() }},
		{"fig17", func(s *experiments.Suite) (renderer, error) { return s.Fig17Convergence() }},
		{"fig18", func(s *experiments.Suite) (renderer, error) { return s.Fig18CPUOverhead() }},
		{"sec5", func(s *experiments.Suite) (renderer, error) { return s.Sec5ModelSize() }},
		{"table2", func(s *experiments.Suite) (renderer, error) { return s.Table2Qualitative() }},
		{"ablation-classifiers", func(s *experiments.Suite) (renderer, error) { return s.AblationClassifiers() }},
		{"ablation-labeling", func(s *experiments.Suite) (renderer, error) { return s.AblationLabeling() }},
		{"ablation-features", func(s *experiments.Suite) (renderer, error) { return s.AblationFeatureOrder() }},
		{"ablation-interpolation", func(s *experiments.Suite) (renderer, error) { return s.AblationInterpolation() }},
		{"ablation-margin", func(s *experiments.Suite) (renderer, error) { return s.AblationSafetyMargin() }},
		{"ablation-temporal", func(s *experiments.Suite) (renderer, error) { return s.AblationTemporalDrift() }},
	}
}
