// Command waldo-wardrive generates a synthetic war-driving campaign over
// the metro environment — the stand-in for the paper's 800 km Atlanta
// collection drives — and writes the readings as CSV for waldo-server.
//
// Usage:
//
//	waldo-wardrive -out campaign.csv [-samples 5282] [-seed 42]
//
// Every point is measured by the paper's three sensors: RTL-SDR, USRP
// B200 and the spectrum analyzer.
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/wsdetect/waldo/internal/dataset"
	"github.com/wsdetect/waldo/internal/rfenv"
	"github.com/wsdetect/waldo/internal/wardrive"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "waldo-wardrive:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("waldo-wardrive", flag.ContinueOnError)
	out := fs.String("out", "campaign.csv", "output CSV path")
	samples := fs.Int("samples", 5282, "readings per channel per sensor")
	seed := fs.Int64("seed", 42, "environment and noise seed")
	if err := fs.Parse(args); err != nil {
		return err
	}

	env, err := rfenv.BuildMetro(uint64(*seed))
	if err != nil {
		return err
	}
	route, err := wardrive.GenerateRoute(wardrive.RouteConfig{
		Area:    env.Area,
		Samples: *samples,
		Seed:    *seed + 1,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "route: %d samples over %.0f km of road\n",
		len(route.Points), route.LengthM/1000)

	camp, err := wardrive.Run(wardrive.CampaignConfig{
		Env:   env,
		Route: route,
		Seed:  *seed + 2,
	})
	if err != nil {
		return err
	}

	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()

	var all []dataset.Reading
	for _, ch := range camp.Channels {
		for _, k := range camp.Sensors {
			all = append(all, camp.Readings(ch, k)...)
		}
	}
	if err := dataset.WriteCSV(f, all); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %d readings (%d channels × %d sensors × %d points) to %s\n",
		len(all), len(camp.Channels), len(camp.Sensors), camp.Size(), *out)
	return f.Close()
}
