// Command waldo-locate runs the §6 spectrum-monitoring extension over a
// readings file: it localizes the dominant transmitter of each requested
// channel from crowd-sourced measurements and prints the estimates next to
// the fitted propagation parameters.
//
// Usage:
//
//	waldo-wardrive -out campaign.csv
//	waldo-locate -data campaign.csv [-channels 15,30,47] [-sensor 3]
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"github.com/wsdetect/waldo/internal/dataset"
	"github.com/wsdetect/waldo/internal/monitor"
	"github.com/wsdetect/waldo/internal/rfenv"
	"github.com/wsdetect/waldo/internal/sensor"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "waldo-locate:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("waldo-locate", flag.ContinueOnError)
	data := fs.String("data", "", "readings CSV from waldo-wardrive (required)")
	channels := fs.String("channels", "", "comma list of channels (default: every channel present)")
	sensorID := fs.Int("sensor", int(sensor.KindSpectrumAnalyzer), "sensor kind to use (1=rtl, 2=usrp, 3=analyzer)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *data == "" {
		return fmt.Errorf("-data is required")
	}
	kind := sensor.Kind(*sensorID)
	if _, err := sensor.SpecFor(kind); err != nil {
		return err
	}

	f, err := os.Open(*data)
	if err != nil {
		return err
	}
	defer f.Close()
	readings, err := dataset.ReadCSV(f)
	if err != nil {
		return fmt.Errorf("load %s: %w", *data, err)
	}

	byChannel := make(map[rfenv.Channel][]dataset.Reading)
	for i := range readings {
		if readings[i].Sensor == kind {
			byChannel[readings[i].Channel] = append(byChannel[readings[i].Channel], readings[i])
		}
	}
	if len(byChannel) == 0 {
		return fmt.Errorf("no readings for sensor %v in %s", kind, *data)
	}

	wanted, err := parseChannels(*channels, byChannel)
	if err != nil {
		return err
	}

	fmt.Printf("%-8s %12s %12s %8s %10s %10s\n", "channel", "lat", "lon", "n-exp", "A@1km", "resid dB")
	for _, ch := range wanted {
		est, err := monitor.LocalizeTransmitter(byChannel[ch], monitor.LocalizeConfig{})
		if err != nil {
			fmt.Printf("%-8v localization failed: %v\n", ch, err)
			continue
		}
		fmt.Printf("%-8v %12.5f %12.5f %8.1f %10.1f %10.2f\n",
			ch, est.Loc.Lat, est.Loc.Lon, est.ExponentN, est.InterceptA, est.ResidualDB)
	}
	return nil
}

func parseChannels(list string, available map[rfenv.Channel][]dataset.Reading) ([]rfenv.Channel, error) {
	if list == "" {
		out := make([]rfenv.Channel, 0, len(available))
		for ch := range available {
			out = append(out, ch)
		}
		for i := 1; i < len(out); i++ {
			for j := i; j > 0 && out[j] < out[j-1]; j-- {
				out[j], out[j-1] = out[j-1], out[j]
			}
		}
		return out, nil
	}
	var out []rfenv.Channel
	for _, tok := range strings.Split(list, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(tok))
		if err != nil {
			return nil, fmt.Errorf("bad channel %q", tok)
		}
		ch := rfenv.Channel(n)
		if !ch.Valid() {
			return nil, fmt.Errorf("channel %d outside the TV band", n)
		}
		if len(available[ch]) == 0 {
			return nil, fmt.Errorf("no readings for %v in the data", ch)
		}
		out = append(out, ch)
	}
	return out, nil
}
