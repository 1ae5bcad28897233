package experiments

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"github.com/wsdetect/waldo/internal/features"
	"github.com/wsdetect/waldo/internal/ml"
	"github.com/wsdetect/waldo/internal/ml/knn"
	"github.com/wsdetect/waldo/internal/ml/validate"
	"github.com/wsdetect/waldo/internal/rfenv"
	"github.com/wsdetect/waldo/internal/sensor"
)

// goldenHeldOut is TP/TN/FP/FN of the held-out evaluations on the shared
// suite (seed 42, 1 400 readings): Table 1's Waldo rows, the
// interpolation rows and the temporal totals, one channel each of the
// legacy and the generic k-fold loops, and every Fig. 14 step (one line
// per configuration, its nine fractions in order).
const goldenHeldOut = `
table1 waldo-usrp 2513/6631/490/166
table1 waldo-rtl 2272/7015/386/127
interpolation kriging 319/465/195/1
interpolation idw 319/470/190/1
interpolation waldo 2931/6416/317/136
temporal stale 180/678/63/59
temporal updated 203/687/54/36
legacy 47 rtl-sdr 348/642/219/191
knn-5 47 usrp-b200 348/978/39/35
fig14 usrp-b200 nb ch15 55/73/6/6 57/72/7/4 56/74/5/5 55/76/3/6 54/72/7/7 55/73/6/6 56/73/6/5 58/73/6/3 58/73/6/3
fig14 usrp-b200 nb ch17 89/44/5/2 91/44/5/0 90/49/0/1 90/48/1/1 90/46/3/1 90/48/1/1 90/45/4/1 90/47/2/1 89/48/1/2
fig14 usrp-b200 nb ch21 41/88/5/6 40/89/4/7 44/90/3/3 44/89/4/3 43/89/4/4 46/90/3/1 45/90/3/2 46/89/4/1 43/90/3/4
fig14 usrp-b200 nb ch22 10/125/3/2 12/128/0/0 10/128/0/2 11/127/1/1 11/127/1/1 12/127/1/0 12/127/1/0 12/126/2/0 11/127/1/1
fig14 usrp-b200 nb ch30 7/127/2/4 6/127/2/5 6/127/2/5 6/128/1/5 8/127/2/3 8/128/1/3 7/128/1/4 8/128/1/3 10/128/1/1
fig14 usrp-b200 nb ch46 0/140/0/0 0/140/0/0 0/140/0/0 0/140/0/0 0/140/0/0 0/140/0/0 0/140/0/0 0/140/0/0 0/140/0/0
fig14 usrp-b200 nb ch47 25/104/5/6 27/103/6/4 27/104/5/4 29/104/5/2 30/103/6/1 30/101/8/1 30/102/7/1 29/103/6/2 30/102/7/1
fig14 usrp-b200 svm ch15 55/74/5/6 54/71/8/7 56/78/1/5 55/76/3/6 56/74/5/5 55/75/4/6 58/76/3/3 58/74/5/3 59/75/4/2
fig14 usrp-b200 svm ch17 89/44/5/2 90/47/2/1 90/45/4/1 90/46/3/1 88/48/1/3 89/48/1/2 91/47/2/0 91/48/1/0 90/49/0/1
fig14 usrp-b200 svm ch21 44/91/2/3 45/89/4/2 47/72/21/0 40/89/4/7 43/81/12/4 45/87/6/2 43/91/2/4 38/88/5/9 43/83/10/4
fig14 usrp-b200 svm ch22 11/127/1/1 12/128/0/0 11/128/0/1 11/127/1/1 11/127/1/1 12/126/2/0 12/124/4/0 12/125/3/0 12/126/2/0
fig14 usrp-b200 svm ch30 5/128/1/6 8/128/1/3 8/125/4/3 8/128/1/3 8/126/3/3 9/127/2/2 9/127/2/2 11/124/5/0 9/126/3/2
fig14 usrp-b200 svm ch46 0/140/0/0 0/137/3/0 0/136/4/0 0/137/3/0 0/138/2/0 0/136/4/0 0/137/3/0 0/136/4/0 0/136/4/0
fig14 usrp-b200 svm ch47 23/106/3/8 27/102/7/4 29/101/8/2 27/100/9/4 28/99/10/3 26/101/8/5 29/101/8/2 28/99/10/3 29/99/10/2
fig14 rtl-sdr nb ch15 41/87/3/9 44/84/6/6 44/85/5/6 42/85/5/8 45/82/8/5 44/81/9/6 43/81/9/7 44/83/7/6 44/82/8/6
fig14 rtl-sdr nb ch17 53/64/14/9 51/61/17/11 55/65/13/7 53/64/14/9 55/57/21/7 52/66/12/10 57/58/20/5 55/59/19/7 50/66/12/12
fig14 rtl-sdr nb ch21 43/88/4/5 42/90/2/6 42/90/2/6 45/89/3/3 45/88/4/3 47/89/3/1 45/89/3/3 46/90/2/2 45/88/4/3
fig14 rtl-sdr nb ch22 12/126/1/1 12/126/1/1 13/126/1/0 12/123/4/1 12/126/1/1 12/124/3/1 13/125/2/0 13/125/2/0 13/124/3/0
fig14 rtl-sdr nb ch30 1/137/0/2 2/137/0/1 3/137/0/0 3/137/0/0 3/137/0/0 3/137/0/0 3/137/0/0 2/137/0/1 3/137/0/0
fig14 rtl-sdr nb ch46 0/138/0/2 1/138/0/1 0/138/0/2 1/138/0/1 1/138/0/1 1/138/0/1 0/138/0/2 1/138/0/1 0/138/0/2
fig14 rtl-sdr nb ch47 43/88/5/4 44/87/6/3 46/88/5/1 45/90/3/2 46/88/5/1 46/88/5/1 46/88/5/1 46/89/4/1 45/88/5/2
fig14 rtl-sdr svm ch15 42/87/3/8 29/86/4/21 48/87/3/2 46/88/2/4 46/86/4/4 48/87/3/2 48/86/4/2 45/88/2/5 50/81/9/0
fig14 rtl-sdr svm ch17 55/66/12/7 58/73/5/4 60/69/9/2 56/71/7/6 59/72/6/3 60/72/6/2 59/69/9/3 60/72/6/2 58/74/4/4
fig14 rtl-sdr svm ch21 44/81/11/4 44/90/2/4 45/90/2/3 44/88/4/4 45/90/2/3 46/88/4/2 46/84/8/2 46/86/6/2 42/90/2/6
fig14 rtl-sdr svm ch22 12/126/1/1 13/125/2/0 12/125/2/1 12/124/3/1 13/127/0/0 13/126/1/0 13/126/1/0 13/125/2/0 11/127/0/2
fig14 rtl-sdr svm ch30 2/136/1/1 3/137/0/0 2/136/1/1 3/135/2/0 3/137/0/0 2/137/0/1 3/137/0/0 3/137/0/0 3/137/0/0
fig14 rtl-sdr svm ch46 1/138/0/1 1/136/2/1 1/138/0/1 1/137/1/1 1/135/3/1 1/137/1/1 1/135/3/1 1/134/4/1 0/138/0/2
fig14 rtl-sdr svm ch47 44/77/16/3 44/90/3/3 43/89/4/4 43/88/5/4 44/93/0/3 43/92/1/4 43/90/3/4 46/92/1/1 46/88/5/1
`

// TestGoldenHeldOutCounts pins which samples train and which score in
// every held-out evaluation: a change to a split, a seed, a fold's
// training order, the campaign or a trainer moves these counts.
//
// amd64 only, as TestGoldenMetroModelBytes (internal/core): Go may fuse
// x*y+z into one rounding elsewhere, which can move a decision.
func TestGoldenHeldOutCounts(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("held-out counts are pinned on amd64, not %s", runtime.GOARCH)
	}
	s := testSuite(t)
	var b strings.Builder
	counts := func(m validate.Metrics) string { return fmt.Sprintf("%d/%d/%d/%d", m.TP, m.TN, m.FP, m.FN) }
	row := func(name string, m validate.Metrics) { fmt.Fprintf(&b, "%s %s\n", name, counts(m)) }

	t1 := table1Run.get(t, (*Suite).Table1VScopeComparison)
	row("table1 waldo-usrp", t1.WaldoUSRP)
	row("table1 waldo-rtl", t1.WaldoRTL)
	interp, err := s.AblationInterpolation()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range interp.Rows {
		row("interpolation "+r.Name, r.Metrics)
	}
	temporal := temporalRun.get(t, (*Suite).AblationTemporalDrift)
	row("temporal stale", temporal.StaleTotal)
	row("temporal updated", temporal.UpdatedTotal)
	legacy, err := s.legacyChannelCV(47, sensor.KindRTLSDR, features.SetLocationRSSCFT)
	if err != nil {
		t.Fatal(err)
	}
	row("legacy 47 rtl-sdr", legacy)
	x, y, err := s.vectors(47, sensor.KindUSRPB200, features.SetLocationRSSCFT)
	if err != nil {
		t.Fatal(err)
	}
	knn5, err := validate.CrossValidate(func() ml.Classifier { return &knn.KNN{K: 5} }, x, y, cvFolds, s.cfg.Seed+701)
	if err != nil {
		t.Fatal(err)
	}
	row("knn-5 47 usrp-b200", knn5)
	fig14 := fig14Run.get(t, (*Suite).Fig14TrainingSize)
	for i, st := range fig14.Steps {
		if i%len(fig14Fractions()) == 0 {
			fmt.Fprintf(&b, "fig14 %v %v %v", st.Kind, st.Model, st.Channel)
		}
		fmt.Fprintf(&b, " %s", counts(st.Metrics))
		if (i+1)%len(fig14Fractions()) == 0 {
			b.WriteString("\n")
		}
	}
	if want := len(rfenv.EvalChannels) * 2 * 2 * len(fig14Fractions()); len(fig14.Steps) != want {
		t.Fatalf("fig14 steps = %d, want %d", len(fig14.Steps), want)
	}

	got, want := strings.Split(b.String(), "\n"), strings.Split(strings.TrimPrefix(goldenHeldOut, "\n"), "\n")
	for i := range max(len(got), len(want)) {
		var g, w string
		if i < len(got) {
			g = got[i]
		}
		if i < len(want) {
			w = want[i]
		}
		if g != w {
			t.Errorf("line %d:\n got %s\nwant %s", i+1, g, w)
		}
	}
	if t.Failed() {
		t.Logf("counts now:\n%s", b.String())
	}
}
