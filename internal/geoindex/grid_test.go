package geoindex

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"testing"

	"github.com/wsdetect/waldo/internal/sensor"
)

// sampleGrid is a small grid with every kind of verdict: two cells,
// three verdicts, two sensor families.
func sampleGrid() *Snapshot {
	return &Snapshot{
		CellDeg: DefaultCellDeg, Generation: 7, Stores: 3,
		cells: map[Cell][]ChannelAvailability{
			{X: 1, Y: 2}: {
				{Channel: 46, Sensor: sensor.KindRTLSDR, Status: StatusFree, Confidence: 0.95, Readings: 80, ModelVersion: 3},
				{Channel: 47, Sensor: sensor.KindRTLSDR, Status: StatusOccupied, Confidence: 0.8, Readings: 20, ModelVersion: 2},
			},
			{X: 1, Y: 3}: {
				{Channel: 47, Sensor: sensor.KindUSRPB200, Status: StatusUncertain, Confidence: 0.4, Readings: 5, ModelVersion: 1},
			},
		},
		entries: 3,
	}
}

// TestGridRoundTrip: a built grid, the sample and the empty generation-0
// grid decode to the snapshot they came from and re-encode to the same
// bytes.
func TestGridRoundTrip(t *testing.T) {
	stores := []StoreSnapshot{trainedStore(t, 46, 2), trainedStore(t, 47, 1)}
	built := New(Config{Source: func() []StoreSnapshot { return stores }}).Rebuild(context.Background())
	if built.Cells() == 0 {
		t.Fatal("the build produced no cell")
	}
	for name, snap := range map[string]*Snapshot{"built": built, "sample": sampleGrid(), "empty": New(Config{}).Snapshot()} {
		b := EncodeGrid(snap)
		got, err := DecodeGrid(b, DefaultCellDeg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(got, snap) {
			t.Errorf("%s: decoded %+v, want %+v", name, got, snap)
		}
		if re := EncodeGrid(got); !bytes.Equal(re, b) {
			t.Errorf("%s: re-encoded to different bytes", name)
		}
	}
}

// TestDecodeGridRefuses: what no build writes does not decode — another
// quantum, verdicts that are not verdicts, repeats, disorder, empty
// cells, any other spelling, any truncation.
func TestDecodeGridRefuses(t *testing.T) {
	sample := string(EncodeGrid(sampleGrid()))
	const second = `"Channel":47,"Sensor":1,"Status":2,"Confidence":0.8`
	if !strings.Contains(sample, second) || !strings.Contains(sample, `{"X":1,"Y":3,`) {
		t.Fatalf("the table assumes another encoding: %s", sample)
	}
	for name, tt := range map[string]struct{ old, new, want string }{
		"foreign quantum":       {`"CellDeg":0.05`, `"CellDeg":0.1`, "quantized at 0.1°"},
		"NaN confidence":        {second, `"Channel":47,"Sensor":1,"Status":2,"Confidence":NaN`, "invalid character"},
		"infinite confidence":   {second, `"Channel":47,"Sensor":1,"Status":2,"Confidence":1e999`, "1e999"},
		"confidence over 1":     {second, `"Channel":47,"Sensor":1,"Status":2,"Confidence":1.5`, "confidence 1.5 outside [0, 1]"},
		"negative confidence":   {second, `"Channel":47,"Sensor":1,"Status":2,"Confidence":-0.1`, "outside [0, 1]"},
		"status 0":              {second, `"Channel":47,"Sensor":1,"Status":0,"Confidence":0.8`, "unknown status 0"},
		"status 4":              {second, `"Channel":47,"Sensor":1,"Status":4,"Confidence":0.8`, "unknown status 4"},
		"unknown sensor":        {second, `"Channel":47,"Sensor":9,"Status":2,"Confidence":0.8`, "sensor"},
		"channel off the band":  {second, `"Channel":99,"Sensor":1,"Status":2,"Confidence":0.8`, "channel 99 outside the TV band"},
		"repeated verdict":      {second, `"Channel":46,"Sensor":1,"Status":2,"Confidence":0.8`, "channel 46 sensor 1 repeated"},
		"verdicts out of order": {second, `"Channel":45,"Sensor":1,"Status":2,"Confidence":0.8`, "channel 45 sensor 1 repeated or out of order"},
		"empty cell":            {sample[strings.Index(sample, `{"X":1,"Y":3,`):], `{"X":1,"Y":3,"Verdicts":[]}]}`, "(1,3) has no verdict"},
		"repeated cell":         {`{"X":1,"Y":3,`, `{"X":1,"Y":2,`, "not canonical"},
		"cells out of order":    {`{"X":1,"Y":3,`, `{"X":1,"Y":1,`, "not canonical"},
		"another spelling":      {`"CellDeg":0.05`, `"CellDeg":5e-2`, "not canonical"},
		"a space":               {`{"CellDeg"`, `{ "CellDeg"`, "not canonical"},
		"case-folded key":       {`"Stores"`, `"stores"`, "not canonical"},
		"unknown field":         {`"Stores":3`, `"Stores":3,"Shard":"s0"`, "not canonical"},
		"trailing bytes":        {sample, sample + " {}", "invalid character"},
	} {
		if _, err := DecodeGrid([]byte(strings.Replace(sample, tt.old, tt.new, 1)), DefaultCellDeg); err == nil || !strings.Contains(err.Error(), tt.want) {
			t.Errorf("%s: err = %v, want one naming %q", name, err, tt.want)
		}
	}
	for n := range len(sample) {
		if _, err := DecodeGrid([]byte(sample[:n]), DefaultCellDeg); err == nil {
			t.Errorf("a grid cut to %d of %d bytes decoded", n, len(sample))
		}
	}
}

// FuzzDecodeGrid: a gateway decodes grids off the network, so hostile
// bytes must never panic the decoder, and whatever it accepts is
// canonical: it re-encodes to the same bytes — and so to the same
// validator, which hashes them.
func FuzzDecodeGrid(f *testing.F) {
	f.Add(EncodeGrid(sampleGrid()))
	f.Add(EncodeGrid(New(Config{}).Snapshot()))
	f.Fuzz(func(t *testing.T, b []byte) {
		s, err := DecodeGrid(b, DefaultCellDeg)
		if err != nil {
			return
		}
		if re := EncodeGrid(s); !bytes.Equal(re, b) {
			t.Fatalf("decoded grid re-encodes to %x, not %x", re, b)
		}
	})
}
