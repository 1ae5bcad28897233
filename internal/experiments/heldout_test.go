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
// per configuration, its nine fractions in order). Re-captured once for
// the averaged fit, step budget S (svm.Pegasos): the rows an SVM model
// decides moved; the NB, kriging, IDW, legacy and KNN rows did not.
const goldenHeldOut = `
table1 waldo-usrp 2536/6609/512/143
table1 waldo-rtl 2291/6977/424/108
interpolation kriging 319/465/195/1
interpolation idw 319/470/190/1
interpolation waldo 2951/6395/338/116
temporal stale 184/685/56/55
temporal updated 201/688/53/38
legacy 47 rtl-sdr 348/642/219/191
knn-5 47 usrp-b200 348/978/39/35
fig14 usrp-b200 nb ch15 55/73/6/6 57/72/7/4 56/74/5/5 55/76/3/6 54/72/7/7 55/73/6/6 56/73/6/5 58/73/6/3 58/73/6/3
fig14 usrp-b200 nb ch17 89/44/5/2 91/44/5/0 90/49/0/1 90/48/1/1 90/46/3/1 90/48/1/1 90/45/4/1 90/47/2/1 89/48/1/2
fig14 usrp-b200 nb ch21 41/88/5/6 40/89/4/7 44/90/3/3 44/89/4/3 43/89/4/4 46/90/3/1 45/90/3/2 46/89/4/1 43/90/3/4
fig14 usrp-b200 nb ch22 10/125/3/2 12/128/0/0 10/128/0/2 11/127/1/1 11/127/1/1 12/127/1/0 12/127/1/0 12/126/2/0 11/127/1/1
fig14 usrp-b200 nb ch30 7/127/2/4 6/127/2/5 6/127/2/5 6/128/1/5 8/127/2/3 8/128/1/3 7/128/1/4 8/128/1/3 10/128/1/1
fig14 usrp-b200 nb ch46 0/140/0/0 0/140/0/0 0/140/0/0 0/140/0/0 0/140/0/0 0/140/0/0 0/140/0/0 0/140/0/0 0/140/0/0
fig14 usrp-b200 nb ch47 25/104/5/6 27/103/6/4 27/104/5/4 29/104/5/2 30/103/6/1 30/101/8/1 30/102/7/1 29/103/6/2 30/102/7/1
fig14 usrp-b200 svm ch15 54/75/4/7 56/73/6/5 58/76/3/3 55/77/2/6 59/74/5/2 58/75/4/3 59/77/2/2 59/75/4/2 59/77/2/2
fig14 usrp-b200 svm ch17 90/44/5/1 90/48/1/1 90/46/3/1 89/46/3/2 88/48/1/3 91/49/0/0 91/45/4/0 91/44/5/0 90/49/0/1
fig14 usrp-b200 svm ch21 44/90/3/3 45/90/3/2 44/90/3/3 42/90/3/5 44/83/10/3 46/85/8/1 43/88/5/4 47/86/7/0 43/87/6/4
fig14 usrp-b200 svm ch22 12/127/1/0 12/126/2/0 11/127/1/1 11/125/3/1 11/126/2/1 11/125/3/1 12/125/3/0 12/125/3/0 12/124/4/0
fig14 usrp-b200 svm ch30 7/128/1/4 9/128/1/2 8/127/2/3 9/128/1/2 9/127/2/2 9/127/2/2 9/127/2/2 9/126/3/2 9/126/3/2
fig14 usrp-b200 svm ch46 0/140/0/0 0/137/3/0 0/136/4/0 0/138/2/0 0/136/4/0 0/138/2/0 0/138/2/0 0/136/4/0 0/138/2/0
fig14 usrp-b200 svm ch47 23/105/4/8 27/101/8/4 28/103/6/3 27/100/9/4 27/99/10/4 28/98/11/3 29/101/8/2 29/101/8/2 30/100/9/1
fig14 rtl-sdr nb ch15 41/87/3/9 44/84/6/6 44/85/5/6 42/85/5/8 45/82/8/5 44/81/9/6 43/81/9/7 44/83/7/6 44/82/8/6
fig14 rtl-sdr nb ch17 53/64/14/9 51/61/17/11 55/65/13/7 53/64/14/9 55/57/21/7 52/66/12/10 57/58/20/5 55/59/19/7 50/66/12/12
fig14 rtl-sdr nb ch21 43/88/4/5 42/90/2/6 42/90/2/6 45/89/3/3 45/88/4/3 47/89/3/1 45/89/3/3 46/90/2/2 45/88/4/3
fig14 rtl-sdr nb ch22 12/126/1/1 12/126/1/1 13/126/1/0 12/123/4/1 12/126/1/1 12/124/3/1 13/125/2/0 13/125/2/0 13/124/3/0
fig14 rtl-sdr nb ch30 1/137/0/2 2/137/0/1 3/137/0/0 3/137/0/0 3/137/0/0 3/137/0/0 3/137/0/0 2/137/0/1 3/137/0/0
fig14 rtl-sdr nb ch46 0/138/0/2 1/138/0/1 0/138/0/2 1/138/0/1 1/138/0/1 1/138/0/1 0/138/0/2 1/138/0/1 0/138/0/2
fig14 rtl-sdr nb ch47 43/88/5/4 44/87/6/3 46/88/5/1 45/90/3/2 46/88/5/1 46/88/5/1 46/88/5/1 46/89/4/1 45/88/5/2
fig14 rtl-sdr svm ch15 46/86/4/4 49/85/5/1 48/86/4/2 48/88/2/2 47/83/7/3 49/88/2/1 48/85/5/2 48/86/4/2 49/87/3/1
fig14 rtl-sdr svm ch17 52/67/11/10 59/73/5/3 58/74/4/4 57/70/8/5 59/74/4/3 57/73/5/5 59/71/7/3 58/68/10/4 57/75/3/5
fig14 rtl-sdr svm ch21 45/82/10/3 45/90/2/3 45/90/2/3 43/88/4/5 46/87/5/2 47/86/6/1 44/87/5/4 48/85/7/0 48/86/6/0
fig14 rtl-sdr svm ch22 12/125/2/1 12/121/6/1 12/126/1/1 13/123/4/0 13/127/0/0 13/126/1/0 13/127/0/0 13/126/1/0 12/125/2/1
fig14 rtl-sdr svm ch30 3/136/1/0 3/136/1/0 3/136/1/0 3/136/1/0 3/137/0/0 3/136/1/0 3/137/0/0 3/137/0/0 3/137/0/0
fig14 rtl-sdr svm ch46 2/137/1/0 2/134/4/0 1/137/1/1 1/138/0/1 1/136/2/1 1/137/1/1 1/136/2/1 1/136/2/1 1/138/0/1
fig14 rtl-sdr svm ch47 42/80/13/5 44/91/2/3 43/88/5/4 43/86/7/4 43/93/0/4 44/89/4/3 45/90/3/2 46/92/1/1 45/87/6/2
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
