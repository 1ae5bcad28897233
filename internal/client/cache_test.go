package client

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"github.com/wsdetect/waldo/internal/core"
	"github.com/wsdetect/waldo/internal/dataset"
	"github.com/wsdetect/waldo/internal/rfenv"
	"github.com/wsdetect/waldo/internal/sensor"
)

func TestDecisionCacheTTLAndRadius(t *testing.T) {
	now := time.Unix(1000, 0)
	cache := &DecisionCache{
		TTL:     time.Minute,
		RadiusM: 500,
		Now:     func() time.Time { return now },
	}
	loc := rfenv.MetroCenter
	dec := core.Decision{Label: dataset.LabelSafe, Converged: true}
	cache.Put(47, loc, dec)

	if got, ok := cache.Get(47, loc); !ok || got.Label != dataset.LabelSafe {
		t.Fatal("fresh same-place decision should hit")
	}
	if _, ok := cache.Get(47, loc.Offset(0, 400)); !ok {
		t.Error("within-radius lookup should hit")
	}
	if _, ok := cache.Get(47, loc.Offset(0, 800)); ok {
		t.Error("beyond-radius lookup must miss")
	}
	if _, ok := cache.Get(30, loc); ok {
		t.Error("other channel must miss")
	}

	now = now.Add(2 * time.Minute)
	if _, ok := cache.Get(47, loc); ok {
		t.Error("expired entry must miss")
	}
	if cache.Len() != 0 {
		t.Error("expired entry should be evicted on lookup")
	}
}

func TestDecisionCacheIgnoresNonConverged(t *testing.T) {
	cache := &DecisionCache{}
	cache.Put(47, rfenv.MetroCenter, core.Decision{Label: dataset.LabelNotSafe, Converged: false})
	if cache.Len() != 0 {
		t.Error("non-converged decisions must not be cached")
	}
	cache.Put(47, rfenv.MetroCenter, core.Decision{Label: dataset.LabelNotSafe, Converged: true})
	if cache.Len() != 1 {
		t.Error("converged decision should be cached")
	}
	cache.Invalidate(47)
	if cache.Len() != 0 {
		t.Error("invalidate failed")
	}
}

// TestScanCachedSkipsAirTime is the §5 claim: the second duty cycle at the
// same spot costs no air time for cached channels.
func TestScanCachedSkipsAirTime(t *testing.T) {
	w := newTestWorld(t, []rfenv.Channel{27, 47})
	rng := rand.New(rand.NewSource(31))
	radio := &SimRadio{Env: w.env, Device: calibratedDevice(t, sensor.RTLSDR(), rng), Rng: rng}
	loc := rfenv.MetroCenter.Offset(45, 4000)
	radio.SetPosition(loc)

	models := make(map[rfenv.Channel]*core.Model)
	for _, ch := range []rfenv.Channel{27, 47} {
		m, _, err := w.client.Model(context.Background(), ch, sensor.KindRTLSDR)
		if err != nil {
			t.Fatal(err)
		}
		models[ch] = m
	}
	wsd := &WSD{Radio: radio, Models: models, Detector: core.DetectorConfig{AlphaDB: 0.5}}
	cache := &DecisionCache{}

	first, err := wsd.ScanCached(loc, cache)
	if err != nil {
		t.Fatal(err)
	}
	if first.AirTime == 0 {
		t.Fatal("first scan must sense")
	}
	second, err := wsd.ScanCached(loc, cache)
	if err != nil {
		t.Fatal(err)
	}
	if second.AirTime != 0 {
		t.Errorf("second scan air time = %v, want 0 (all cached)", second.AirTime)
	}
	if len(second.Channels) != 2 {
		t.Errorf("cached scan must still report all channels")
	}
	for i := range second.Channels {
		if second.Channels[i].Decision.Label != first.Channels[i].Decision.Label {
			t.Error("cached decision diverged")
		}
	}

	// Moving far invalidates spatially.
	far := loc.Offset(90, 5000)
	radio.SetPosition(far)
	third, err := wsd.ScanCached(far, cache)
	if err != nil {
		t.Fatal(err)
	}
	if third.AirTime == 0 {
		t.Error("scan at a distant location must re-sense")
	}

	if _, err := wsd.ScanCached(loc, nil); err == nil {
		t.Error("nil cache must be rejected")
	}
}
