package wardrive

import (
	"testing"

	"github.com/wsdetect/waldo/internal/rfenv"
)

// BenchmarkCampaignGeneration measures the substrate itself: one full
// multi-sensor reading (field evaluation, I/Q synthesis, FFT, features).
func BenchmarkCampaignGeneration(b *testing.B) {
	env, err := rfenv.BuildMetro(42)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		route, err := GenerateRoute(RouteConfig{Area: env.Area, Samples: 300, Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := Run(CampaignConfig{Env: env, Route: route, Channels: []rfenv.Channel{47}, Seed: int64(i) + 1}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(300*3, "readings/op")
}
