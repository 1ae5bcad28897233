// Wardrive-campaign: the offline phase of Waldo at metro scale — run the
// full three-sensor campaign, compare the low-cost sensors' Algorithm 1
// labels against the spectrum analyzer (the paper's §2.2 feasibility
// study), then stand up the central database and serve models to a
// simulated WSD over HTTP.
package main

import (
	"context"
	"fmt"
	"log"
	"net/http/httptest"

	waldo "github.com/wsdetect/waldo"
)

func main() {
	env, err := waldo.BuildMetroEnvironment(42)
	if err != nil {
		log.Fatal(err)
	}
	campaign, err := waldo.RunCampaign(waldo.CampaignSpec{
		Env:     env,
		Samples: 1500,
		Seed:    7,
	})
	if err != nil {
		log.Fatal(err)
	}

	// §2.2: per-channel agreement of the low-cost sensors with the
	// analyzer ground truth.
	fmt.Println("channel  sensor      misdetect%  false-alarm%")
	for _, ch := range waldo.EvalChannels {
		truth, err := waldo.LabelReadings(campaign.Readings(ch, waldo.SensorSpectrumAnalyzer), waldo.LabelConfig{})
		if err != nil {
			log.Fatal(err)
		}
		for _, kind := range []waldo.SensorKind{waldo.SensorRTLSDR, waldo.SensorUSRPB200} {
			pred, err := waldo.LabelReadings(campaign.Readings(ch, kind), waldo.LabelConfig{})
			if err != nil {
				log.Fatal(err)
			}
			var fn, safe, fp, notSafe int
			for i := range truth {
				switch truth[i] {
				case waldo.LabelSafe:
					safe++
					if pred[i] == waldo.LabelNotSafe {
						fn++
					}
				case waldo.LabelNotSafe:
					notSafe++
					if pred[i] == waldo.LabelSafe {
						fp++
					}
				}
			}
			fmt.Printf("%-8v %-11v %9.1f%% %12.1f%%\n",
				ch, kind, pct(fn, safe), pct(fp, notSafe))
		}
	}

	// Offline phase complete: bootstrap the central spectrum database
	// with the RTL-SDR data and serve it.
	var all []waldo.Reading
	for _, ch := range waldo.EvalChannels {
		all = append(all, campaign.Readings(ch, waldo.SensorRTLSDR)...)
	}
	srv := waldo.NewDatabaseServer(waldo.DatabaseConfig{})
	if err := srv.Bootstrap(all); err != nil {
		log.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Online phase: a WSD downloads one compact descriptor per channel.
	client, err := waldo.NewClient(ts.URL, ts.Client())
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()
	var total int
	for _, ch := range waldo.EvalChannels {
		_, n, err := client.Model(ctx, ch, waldo.SensorRTLSDR)
		if err != nil {
			log.Fatal(err)
		}
		total += n
	}
	fmt.Printf("\nWSD bootstrap: downloaded %d channel models, %d bytes total\n",
		len(waldo.EvalChannels), total)
}

func pct(num, den int) float64 {
	if den == 0 {
		return 0
	}
	return 100 * float64(num) / float64(den)
}
