// Mobile-wsd: the paper's §5 Android prototype as a simulation — a phone
// with an RTL-SDR dongle downloads per-channel models, then runs the
// streaming White Space Detector at several spots around the metro,
// reporting convergence time, processing cost, and decisions; finally it
// uploads its readings to the Global Model Updater.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"net/http/httptest"
	"time"

	waldo "github.com/wsdetect/waldo"
	"github.com/wsdetect/waldo/internal/sensor"
)

func main() {
	env, err := waldo.BuildMetroEnvironment(42)
	if err != nil {
		log.Fatal(err)
	}

	// Offline phase: a trusted campaign bootstraps the database.
	campaign, err := waldo.RunCampaign(waldo.CampaignSpec{
		Env:      env,
		Samples:  1200,
		Channels: []waldo.Channel{21, 27, 47},
		Seed:     3,
	})
	if err != nil {
		log.Fatal(err)
	}
	srv := waldo.NewDatabaseServer(waldo.DatabaseConfig{})
	var all []waldo.Reading
	for _, ch := range []waldo.Channel{21, 27, 47} {
		all = append(all, campaign.Readings(ch, waldo.SensorRTLSDR)...)
	}
	if err := srv.Bootstrap(all); err != nil {
		log.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// The phone: RTL-SDR over USB-OTG, calibrated once at the factory.
	rng := rand.New(rand.NewSource(9))
	dev, err := waldo.NewSensor(waldo.SensorRTLSDR)
	if err != nil {
		log.Fatal(err)
	}
	if err := sensor.CalibrateAndInstall(dev, rng, sensor.CalibrationConfig{}); err != nil {
		log.Fatal(err)
	}
	radio := &waldo.SimRadio{Env: env, Device: dev, Rng: rng}

	// Local Model Parameters Updater: download the area's models.
	client, err := waldo.NewClient(ts.URL, ts.Client())
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()
	models := make(map[waldo.Channel]*waldo.Model)
	for _, ch := range []waldo.Channel{21, 27, 47} {
		m, n, err := client.Model(ctx, ch, waldo.SensorRTLSDR)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("downloaded %v model: %d bytes\n", ch, n)
		models[ch] = m
	}

	wsd := &waldo.WSD{
		Radio:    radio,
		Models:   models,
		Detector: waldo.DetectorConfig{AlphaDB: 0.5},
	}

	// Scan at three spots: near the strong in-town tower, inside channel
	// 47's coverage, and on the quiet far side.
	spots := map[string]waldo.Point{
		"downtown":      env.Area.Center(),
		"northeast":     env.Area.Center().Offset(45, 7000),
		"far southwest": env.Area.Center().Offset(225, 11000),
	}
	for name, loc := range spots {
		radio.SetPosition(loc)
		scan, err := wsd.Scan(loc)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\n%s:\n", name)
		for _, cs := range scan.Channels {
			fmt.Printf("  %v: %-8v converged=%-5v air=%v cpu=%v readings=%d\n",
				cs.Channel, cs.Decision.Label, cs.Decision.Converged,
				cs.AirTime.Round(time.Millisecond), cs.CPUTime.Round(10*time.Microsecond),
				cs.Decision.ReadingsUsed)
		}
		fmt.Printf("  duty-cycle CPU: %.3f%% of 60 s\n", scan.CPUUtilizationPct(60*time.Second))
	}

	// Global Model Updater: upload the readings behind the last decision.
	batch := waldo.UploadBatch{
		Readings: campaign.Readings(47, waldo.SensorRTLSDR)[:20],
		CISpanDB: 0.4,
	}
	if err := client.Upload(ctx, batch); err != nil {
		log.Fatal(err)
	}
	if err := client.RequestRetrain(ctx, 47, waldo.SensorRTLSDR); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nuploaded 20 readings and retrained the channel-47 model")
}
