package dataset

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"github.com/wsdetect/waldo/internal/features"
	"github.com/wsdetect/waldo/internal/geo"
	"github.com/wsdetect/waldo/internal/rfenv"
	"github.com/wsdetect/waldo/internal/sensor"
)

// csvHeader is the on-disk column layout for reading exports.
var csvHeader = []string{"seq", "lat", "lon", "channel", "sensor", "rss_dbm", "cft_db", "aft_db", "alt_m", "true_dbm"}

// WriteCSV streams readings to w in a stable CSV layout.
func WriteCSV(w io.Writer, readings []Reading) error {
	return WriteCSVChunks(w, [][]Reading{readings})
}

// WriteCSVChunks is WriteCSV over readings held as consecutive runs (a
// chunked store's view): one header, then every run's rows in order, with
// no run ever joined to the next in memory.
func WriteCSVChunks(w io.Writer, chunks [][]Reading) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return fmt.Errorf("dataset: write header: %w", err)
	}
	rec := make([]string, len(csvHeader))
	row := 0
	for _, readings := range chunks {
		for i := range readings {
			r := &readings[i]
			rec[0] = strconv.Itoa(r.Seq)
			rec[1] = strconv.FormatFloat(r.Loc.Lat, 'f', 6, 64)
			rec[2] = strconv.FormatFloat(r.Loc.Lon, 'f', 6, 64)
			rec[3] = strconv.Itoa(int(r.Channel))
			rec[4] = strconv.Itoa(int(r.Sensor))
			rec[5] = strconv.FormatFloat(r.Signal.RSSdBm, 'f', 3, 64)
			rec[6] = strconv.FormatFloat(r.Signal.CFTdB, 'f', 3, 64)
			rec[7] = strconv.FormatFloat(r.Signal.AFTdB, 'f', 3, 64)
			rec[8] = strconv.FormatFloat(r.AltM, 'f', 2, 64)
			rec[9] = strconv.FormatFloat(r.TrueDBm, 'f', 3, 64)
			if err := cw.Write(rec); err != nil {
				return fmt.Errorf("dataset: write row %d: %w", row, err)
			}
			row++
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV parses readings previously written by WriteCSV.
func ReadCSV(r io.Reader) ([]Reading, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = len(csvHeader)
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("dataset: read header: %w", err)
	}
	for i, col := range csvHeader {
		if header[i] != col {
			return nil, fmt.Errorf("dataset: unexpected column %d: got %q, want %q", i, header[i], col)
		}
	}

	var readings []Reading
	for line := 2; ; line++ {
		rec, err := cr.Read()
		if err == io.EOF {
			return readings, nil
		}
		if err != nil {
			return nil, fmt.Errorf("dataset: line %d: %w", line, err)
		}
		rd, err := parseRecord(rec)
		if err != nil {
			return nil, fmt.Errorf("dataset: line %d: %w", line, err)
		}
		readings = append(readings, rd)
	}
}

func parseRecord(rec []string) (Reading, error) {
	var rd Reading
	seq, err := strconv.Atoi(rec[0])
	if err != nil {
		return rd, fmt.Errorf("seq: %w", err)
	}
	fields := make([]float64, 0, 8)
	for _, idx := range []int{1, 2, 5, 6, 7, 8, 9} {
		v, err := strconv.ParseFloat(rec[idx], 64)
		if err != nil {
			return rd, fmt.Errorf("column %s: %w", csvHeader[idx], err)
		}
		fields = append(fields, v)
	}
	ch, err := strconv.Atoi(rec[3])
	if err != nil {
		return rd, fmt.Errorf("channel: %w", err)
	}
	sk, err := strconv.Atoi(rec[4])
	if err != nil {
		return rd, fmt.Errorf("sensor: %w", err)
	}
	if !rfenv.Channel(ch).Valid() {
		return rd, fmt.Errorf("invalid channel %d", ch)
	}
	if _, err := sensor.SpecFor(sensor.Kind(sk)); err != nil {
		return rd, err
	}
	rd = Reading{
		Seq:     seq,
		Loc:     geo.Point{Lat: fields[0], Lon: fields[1]},
		Channel: rfenv.Channel(ch),
		Sensor:  sensor.Kind(sk),
		Signal:  features.Signal{RSSdBm: fields[2], CFTdB: fields[3], AFTdB: fields[4]},
		AltM:    fields[5],
		TrueDBm: fields[6],
	}
	if !rd.Loc.Valid() {
		return rd, fmt.Errorf("invalid location %v", rd.Loc)
	}
	return rd, nil
}
