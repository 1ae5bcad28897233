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
// nine metro models must encode to the bytes the five-pass, row-per-
// allocation trainer produced. The hashes were captured on that trainer
// (commit 05513a6) before any kernel changed.
//
// amd64 only: Go may fuse x*y+z into one rounding on other
// architectures, which moves the low bits of every dot product.
func TestGoldenMetroModelBytes(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden model bytes are pinned on amd64, not %s", runtime.GOARCH)
	}
	golden := map[ClassifierKind]string{
		KindSVM:       "68b497c1cf8c6e76f142c4e5ee8df7081b6bce0320f98e3446f4d4093e16fb7a",
		KindLinearSVM: "2533d6f13dc90e80120b3e14ad681274f8d587cccb83a6f92cf59f8f60f4f229",
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

// TestBuildModelAllocBudget holds the constructor to the allocations
// flat matrices need: a few per matrix and per locality, none per
// reading. Channel 47 (three trained localities of ~1 760 rows) cost
// 21 401 objects when every row of every stage was its own slice and
// costs about 100 now; the budget sits far under a tenth of the old
// count so that one per-row stage in one locality already breaks it.
func TestBuildModelAllocBudget(t *testing.T) {
	channels := metroCampaign(t)
	mc := channels[len(channels)-1]
	if mc.ch != 47 {
		t.Fatalf("last metro channel is %v, want 47", mc.ch)
	}
	cfg := metroConstructor(KindSVM)
	const budget = 300
	if avg := testing.AllocsPerRun(5, func() {
		if _, err := BuildModel(mc.readings, mc.labels, cfg); err != nil {
			t.Fatal(err)
		}
	}); avg > budget {
		t.Errorf("BuildModel on %d readings of %v allocates %.0f objects/op, budget %d", len(mc.readings), mc.ch, avg, budget)
	}
}
