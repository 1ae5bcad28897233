package main

import (
	"bytes"
	"slices"
	"strings"
	"testing"
)

func TestListPrintsEveryExperimentInPaperOrder(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-list"}, &out); err != nil {
		t.Fatal(err)
	}
	want := []string{
		"fig4", "fig5", "fig6", "fig7", "sec22", "fig10-11", "fig12", "fig13",
		"fig14", "fig15", "table1-fig16", "fig17", "fig18", "sec5", "table2",
		"ablation-classifiers", "ablation-labeling", "ablation-features",
		"ablation-interpolation", "ablation-margin", "ablation-temporal", "grid",
	}
	if got := strings.Fields(out.String()); !slices.Equal(got, want) {
		t.Errorf("-list = %v\nwant    %v", got, want)
	}
}

func TestRunRejectsUnknownName(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-run", "sec5,nope", "-samples", "300"}, &out)
	if err == nil || !strings.Contains(err.Error(), `"nope"`) || !strings.Contains(err.Error(), "ablation-temporal") {
		t.Errorf("err = %v, want one naming \"nope\" and listing the valid names", err)
	}
	if out.Len() != 0 {
		t.Errorf("ran something before rejecting the filter:\n%s", out.String())
	}
}

func TestRunFilterRunsExactlyTheNamedExperiment(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-run", "sec5", "-samples", "300"}, &out); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(out.String(), "===="); n != 2 || !strings.HasPrefix(out.String(), "==== sec5 (") {
		t.Errorf("want exactly the sec5 report, got:\n%s", out.String())
	}
}
