package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math"
	"runtime"
	"sync"
	"testing"

	"github.com/wsdetect/waldo/internal/dataset"
)

// TestLocalitiesMemo: the localities memo shows in no model byte. The 27
// metro models encode the same built cold (the memo cleared before every
// build) and hot (every build a hit); every change to the key misses and
// builds what a cold build does; and two goroutines alternating two
// location sets each get their serial bytes, which under -race is the
// proof that an entry is published whole and never written after.
func TestLocalitiesMemo(t *testing.T) {
	build := func(t *testing.T, rs []dataset.Reading, ls []dataset.Label, cfg ConstructorConfig) []byte {
		t.Helper()
		m, err := BuildModel(rs, ls, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return encodeForCompare(t, m)
	}
	// A hit leaves the entry it was served from in place; a miss
	// replaces it.
	hit := func(fn func()) bool {
		before := lastLocalities.Load()
		fn()
		return before != nil && lastLocalities.Load() == before
	}

	t.Run("metro cold and hot", func(t *testing.T) {
		// TestGoldenMetroModelBytes' hashes.
		golden := map[ClassifierKind]string{
			KindSVM:       "2a7dc9d5ed3bfd7dd5f9940eabfd9bf3125dbbe495de96c6c6f4da6f8e8a846e",
			KindLinearSVM: "fca70cecd93134511ed1a0de66798997dd4abcb2c8cb6af5b7c63895b0151d9d",
			KindNB:        "5654b967d7d8fc65b95e6a49e2fdb077de402e296aecf9c46dc8253f04d58eb3",
		}
		channels := metroCampaign(t)
		for _, kind := range []ClassifierKind{KindSVM, KindLinearSVM, KindNB} {
			cfg := metroConstructor(kind)
			cold, hot := sha256.New(), sha256.New()
			want := make([][]byte, len(channels))
			for i, mc := range channels {
				lastLocalities.Store(nil)
				want[i] = build(t, mc.readings, mc.labels, cfg)
				cold.Write(want[i])
			}
			// The last cold build left its entry; the campaign measured
			// every channel at the same points, so every build hits it.
			for i, mc := range channels {
				var got []byte
				if !hit(func() { got = build(t, mc.readings, mc.labels, cfg) }) {
					t.Fatalf("%v %v: missed the entry of an identical location set", kind, mc.ch)
				}
				if !bytes.Equal(got, want[i]) {
					t.Errorf("%v %v: hot build differs from cold (%d vs %d bytes)", kind, mc.ch, len(got), len(want[i]))
				}
				hot.Write(got)
			}
			if runtime.GOARCH != "amd64" {
				continue
			}
			for side, h := range map[string][]byte{"cold": cold.Sum(nil), "hot": hot.Sum(nil)} {
				if got := hex.EncodeToString(h); got != golden[kind] {
					t.Errorf("%v %s: nine metro models hash to %s, golden %s", kind, side, got, golden[kind])
				}
			}
		}
	})

	t.Run("key changes miss", func(t *testing.T) {
		readings, labels := synthReadings(600, 51)
		readings[7].Loc.Lon = 0 // +0, for the −0 below
		cfg := ConstructorConfig{ClusterK: 3, Classifier: KindNB, Seed: 5, Workers: 1}
		variant := func(edit func(rs []dataset.Reading, ls []dataset.Label)) ([]dataset.Reading, []dataset.Label) {
			rs := append([]dataset.Reading(nil), readings...)
			ls := append([]dataset.Label(nil), labels...)
			edit(rs, ls)
			return rs, ls
		}
		nudgedR, nudgedL := variant(func(rs []dataset.Reading, _ []dataset.Label) {
			rs[9].Loc.Lat = math.Nextafter(rs[9].Loc.Lat, math.Inf(1))
		})
		negZeroR, negZeroL := variant(func(rs []dataset.Reading, _ []dataset.Label) {
			rs[7].Loc.Lon = math.Copysign(0, -1)
		})
		swappedR, swappedL := variant(func(rs []dataset.Reading, ls []dataset.Label) {
			rs[3], rs[4] = rs[4], rs[3]
			ls[3], ls[4] = ls[4], ls[3]
		})
		k4, seed6 := cfg, cfg
		k4.ClusterK = 4
		seed6.Seed = 6
		for _, tc := range []struct {
			name string
			rs   []dataset.Reading
			ls   []dataset.Label
			cfg  ConstructorConfig
		}{
			{"Lat one ulp up", nudgedR, nudgedL, cfg},
			{"Lon −0 for +0", negZeroR, negZeroL, cfg},
			{"two readings swapped", swappedR, swappedL, cfg},
			{"one reading fewer", readings[:len(readings)-1], labels[:len(labels)-1], cfg},
			{"ClusterK 4", readings, labels, k4},
			{"another Seed", readings, labels, seed6},
		} {
			lastLocalities.Store(nil)
			want := build(t, tc.rs, tc.ls, tc.cfg)
			build(t, readings, labels, cfg)
			var got []byte
			if hit(func() { got = build(t, tc.rs, tc.ls, tc.cfg) }) {
				t.Errorf("%s: served from the unchanged set's entry", tc.name)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s: build after a miss differs from a cold build", tc.name)
			}
		}
	})

	t.Run("two goroutines alternate", func(t *testing.T) {
		cfg := ConstructorConfig{ClusterK: 3, Classifier: KindNB, Workers: 1}
		type set struct {
			rs   []dataset.Reading
			ls   []dataset.Label
			want []byte
		}
		var sets [2]set
		for i := range sets {
			rs, ls := synthReadings(400, int64(60+i))
			lastLocalities.Store(nil)
			sets[i] = set{rs, ls, build(t, rs, ls, cfg)}
		}
		var wg sync.WaitGroup
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for round := 0; round < 50; round++ {
					s := &sets[(g+round)%2]
					m, err := BuildModel(s.rs, s.ls, cfg)
					var got bytes.Buffer
					if err == nil {
						err = EncodeModel(&got, m)
					}
					if err != nil {
						t.Error(err)
						return
					}
					if !bytes.Equal(got.Bytes(), s.want) {
						t.Errorf("goroutine %d round %d: model differs from its serial build", g, round)
						return
					}
				}
			}(g)
		}
		wg.Wait()
	})
}
