package core

import (
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"sync"
	"testing"

	"github.com/wsdetect/waldo/internal/dataset"
	"github.com/wsdetect/waldo/internal/features"
	"github.com/wsdetect/waldo/internal/rfenv"
	"github.com/wsdetect/waldo/internal/sensor"
	"github.com/wsdetect/waldo/internal/wardrive"
)

// metroSamples is the paper's campaign size per channel, which is also
// what the repository benchmark's train workload rebuilds.
const metroSamples = 5282

// metroChannel is one channel of the canonical RTL-SDR metro campaign,
// labeled with Algorithm 1 defaults.
type metroChannel struct {
	ch       rfenv.Channel
	readings []dataset.Reading
	labels   []dataset.Label
}

var metro struct {
	once     sync.Once
	channels []metroChannel
	err      error
}

// metroCampaign simulates the benchmark's campaign once per test binary:
// rfenv.BuildMetro(42), a 5 282-point route from seed 43, measurement
// noise from seed 44, the nine metro channels in ascending order.
func metroCampaign(t testing.TB) []metroChannel {
	t.Helper()
	metro.once.Do(func() {
		metro.channels, metro.err = buildMetroCampaign()
	})
	if metro.err != nil {
		t.Fatal(metro.err)
	}
	return metro.channels
}

func buildMetroCampaign() ([]metroChannel, error) {
	env, err := rfenv.BuildMetro(42)
	if err != nil {
		return nil, err
	}
	route, err := wardrive.GenerateRoute(wardrive.RouteConfig{Area: env.Area, Samples: metroSamples, Seed: 43})
	if err != nil {
		return nil, err
	}
	camp, err := wardrive.Run(wardrive.CampaignConfig{
		Env: env, Route: route, Sensors: []sensor.Spec{sensor.RTLSDR()},
		Channels: []rfenv.Channel{15, 17, 21, 22, 27, 30, 39, 46, 47}, Seed: 44,
	})
	if err != nil {
		return nil, err
	}
	out := make([]metroChannel, 0, len(camp.Channels))
	for _, ch := range camp.Channels {
		rs := camp.Readings(ch, sensor.KindRTLSDR)
		labels, err := dataset.LabelReadings(rs, dataset.LabelConfig{})
		if err != nil {
			return nil, err
		}
		out = append(out, metroChannel{ch: ch, readings: rs, labels: labels})
	}
	return out, nil
}

// metroConstructor is the shipped server's constructor on one worker.
func metroConstructor(kind ClassifierKind) ConstructorConfig {
	return ConstructorConfig{ClusterK: 3, Classifier: kind, Features: features.SetLocationRSSCFT, Workers: 1}
}

// TestGoldenMetroModelBytes is the gate on the trainer's kernels
// (DESIGN.md §8): passes may be fused and storage flattened, but the
// nine metro models must encode to the bytes pinned here. KindNB's hash
// is the one captured on the five-pass, row-per-allocation trainer
// (commit 05513a6). The two Pegasos-backed hashes were re-captured twice:
// when Pegasos.Fit went to scaled form (weights within 1e-9 relative of
// the five-pass loop, TestMetroDecisionsUnchanged holding every
// decision), and for the averaged fit, step budget S (28 000 steps, the
// suffix average returned; held to the naive average by
// TestPegasosFitMatchesFivePassReference). From there on they bind the
// lazily averaged loop exactly.
//
// amd64 only: Go may fuse x*y+z into one rounding on other
// architectures, which moves the low bits of every dot product.
func TestGoldenMetroModelBytes(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden model bytes are pinned on amd64, not %s", runtime.GOARCH)
	}
	golden := map[ClassifierKind]string{
		KindSVM:       "ae7a85684f932973bdf40c89d0b4e3a94a24d5c49793ac0c4688e3a4f2793e6d",
		KindLinearSVM: "59fa56f87505603ae54d11e641d87c2fcbf342527949fb3554c2ee7d5610b35a",
		KindNB:        "5654b967d7d8fc65b95e6a49e2fdb077de402e296aecf9c46dc8253f04d58eb3",
	}
	channels := metroCampaign(t)
	for _, kind := range []ClassifierKind{KindSVM, KindLinearSVM, KindNB} {
		h := sha256.New()
		for _, mc := range channels {
			m, err := BuildModel(mc.readings, mc.labels, metroConstructor(kind))
			if err != nil {
				t.Fatalf("%v %v: %v", kind, mc.ch, err)
			}
			if err := EncodeModel(h, m); err != nil {
				t.Fatal(err)
			}
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != golden[kind] {
			t.Errorf("%v: nine metro models hash to %s, golden %s", kind, got, golden[kind])
		}
	}
}

// TestMetroDecisionsUnchanged pins what the metro models decide: every
// campaign reading is classified by its channel's model, per
// Pegasos-backed family, and the labels hash to the digest below. It held
// every decision through the scaled-form re-basing (captured at commit
// 70197ca, the last Fit bit-identical to the five-pass trainer) and was
// re-captured once, for the averaged fit, step budget S: an average is a
// different hyperplane, so decisions move (SVM 4 948 → 4 987 Safe, linear
// 5 956 → 6 142), and Fig. 17's oracle scorer holds them to false-safe
// (EXPERIMENTS.md).
func TestMetroDecisionsUnchanged(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("metro decisions are pinned on amd64, not %s", runtime.GOARCH)
	}
	golden := map[ClassifierKind]struct {
		digest string
		safe   int
	}{
		KindSVM:       {"3931d0836ef1114cdfd6edae04c11d1a0fb89b8cce7c644c31035ebbff74360d", 4987},
		KindLinearSVM: {"3d9b4f633016312398aa2464b9875702e59526e87db69a5c78f3ddb6040b2586", 6142},
	}
	channels := metroCampaign(t)
	for _, kind := range []ClassifierKind{KindSVM, KindLinearSVM} {
		h := sha256.New()
		var safe int
		for _, mc := range channels {
			m, err := BuildModel(mc.readings, mc.labels, metroConstructor(kind))
			if err != nil {
				t.Fatalf("%v %v: %v", kind, mc.ch, err)
			}
			decisions := make([]byte, len(mc.readings))
			for i, r := range mc.readings {
				label, err := m.ClassifyReading(r)
				if err != nil {
					t.Fatalf("%v %v reading %d: %v", kind, mc.ch, i, err)
				}
				decisions[i] = byte(label)
				if label == dataset.LabelSafe {
					safe++
				}
			}
			h.Write(decisions)
		}
		want := golden[kind]
		if got := hex.EncodeToString(h.Sum(nil)); got != want.digest || safe != want.safe {
			t.Errorf("%v: %d×%d decisions hash to %s with %d safe, golden %s with %d safe",
				kind, len(channels), metroSamples, got, safe, want.digest, want.safe)
		}
	}
}

// TestBuildModelAllocBudget holds the constructor to the allocations
// flat matrices need: a few per matrix and per locality, none per
// reading. Channel 47 (three trained localities of ~1 760 rows) cost
// 21 401 objects when every row of every stage was its own slice and
// costs 98 now; the budget sits far under a tenth of the old count so
// that one per-row stage in one locality already breaks it. The bytes
// bound is for what an object count cannot see: a build is 1.3 MB with
// the three 676 KB design matrices recycled (svm's pool), 3.5 MB without,
// and one of them coming back is over the line. That is a localities
// miss; a hit skips k-means and its inputs (62 objects, 0.88 MB), so a
// hit that misses is over its own line too.
func TestBuildModelAllocBudget(t *testing.T) {
	channels := metroCampaign(t)
	mc := channels[len(channels)-1]
	if mc.ch != 47 {
		t.Fatalf("last metro channel is %v, want 47", mc.ch)
	}
	cfg := metroConstructor(KindSVM)
	for _, tc := range []struct {
		name       string
		miss       bool
		budget     float64
		byteBudget uint64
	}{
		{"miss", true, 280, 1500 << 10},
		{"hit", false, 250, 1100 << 10},
	} {
		build := func() {
			if tc.miss {
				lastLocalities.Store(nil)
			}
			if _, err := BuildModel(mc.readings, mc.labels, cfg); err != nil {
				t.Fatal(err)
			}
		}
		if avg := testing.AllocsPerRun(5, build); avg > tc.budget {
			t.Errorf("%s: BuildModel on %d readings of %v allocates %.0f objects/op, budget %.0f",
				tc.name, len(mc.readings), mc.ch, avg, tc.budget)
		}
		if raceEnabled {
			continue // the pooled design matrices are not kept; see raceEnabled
		}
		// On one P, as AllocsPerRun counts: a sync.Pool is per P, and
		// changing GOMAXPROCS empties it, so one build refills it first.
		procs := runtime.GOMAXPROCS(1)
		build()
		const runs = 5
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			build()
		}
		runtime.ReadMemStats(&after)
		runtime.GOMAXPROCS(procs)
		avg := (after.TotalAlloc - before.TotalAlloc) / runs
		t.Logf("%s: %d bytes per build", tc.name, avg)
		if avg > tc.byteBudget {
			t.Errorf("%s: BuildModel on %d readings of %v allocates %d bytes/op, budget %d",
				tc.name, len(mc.readings), mc.ch, avg, tc.byteBudget)
		}
	}
}

// TestClassifyZeroAlloc: a device's decision and a shard's geo-grid cell
// both end in Model.Classify, whose feature, z-score and kernel vectors
// are stack arrays. Channel 47's localities are all trained, so every
// call below runs a classifier.
func TestClassifyZeroAlloc(t *testing.T) {
	channels := metroCampaign(t)
	mc := channels[len(channels)-1]
	for _, kind := range []ClassifierKind{KindSVM, KindLinearSVM, KindNB} {
		m, err := BuildModel(mc.readings, mc.labels, metroConstructor(kind))
		if err != nil {
			t.Fatal(err)
		}
		var i int
		if avg := testing.AllocsPerRun(200, func() {
			r := &mc.readings[i%len(mc.readings)]
			i++
			if _, err := m.Classify(r.Loc, r.Signal); err != nil {
				t.Fatal(err)
			}
		}); avg != 0 {
			t.Errorf("%v: Classify allocates %v objects/op, want 0", kind, avg)
		}
	}
}
