// Command waldo-wardrive generates a synthetic war-driving campaign over
// the metro environment — the stand-in for the paper's 800 km Atlanta
// collection drives — and writes the readings as CSV for waldo-server.
//
// Usage:
//
//	waldo-wardrive -out campaign.csv [-samples 5282] [-seed 42] [-sensors rtl,usrp,analyzer]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"github.com/wsdetect/waldo/internal/dataset"
	"github.com/wsdetect/waldo/internal/rfenv"
	"github.com/wsdetect/waldo/internal/sensor"
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
	sensors := fs.String("sensors", "rtl,usrp,analyzer", "comma list: rtl,usrp,analyzer")
	if err := fs.Parse(args); err != nil {
		return err
	}

	specs, err := parseSensors(*sensors)
	if err != nil {
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
		Env:     env,
		Route:   route,
		Sensors: specs,
		Seed:    *seed + 2,
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

func parseSensors(list string) ([]sensor.Spec, error) {
	var specs []sensor.Spec
	for _, name := range strings.Split(list, ",") {
		switch strings.TrimSpace(name) {
		case "rtl":
			specs = append(specs, sensor.RTLSDR())
		case "usrp":
			specs = append(specs, sensor.USRPB200())
		case "analyzer":
			specs = append(specs, sensor.SpectrumAnalyzer())
		case "":
		default:
			return nil, fmt.Errorf("unknown sensor %q (want rtl, usrp, analyzer)", name)
		}
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("no sensors selected")
	}
	return specs, nil
}
