package geoindex

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"sort"

	"github.com/wsdetect/waldo/internal/sensor"
)

// gridWire is one snapshot as a gateway replicates it (GET /v1/grid,
// DESIGN.md §15): JSON, canonical — cells in ascending (X, Y), each
// with its verdicts in ascending (channel, sensor), bytes exactly as
// encoding/json writes them — so what decodes re-encodes to itself, and
// a validator hashing the bytes names the grid.
type gridWire struct {
	CellDeg    float64
	Generation uint64
	Stores     int
	Cells      []cellWire
}

type cellWire struct {
	Cell
	Verdicts []ChannelAvailability
}

func cellLess(a, b Cell) bool { return a.X < b.X || a.X == b.X && a.Y < b.Y }

func verdictLess(a, b ChannelAvailability) bool {
	return a.Channel < b.Channel || a.Channel == b.Channel && a.Sensor < b.Sensor
}

// EncodeGrid renders a snapshot in the grid wire format.
func EncodeGrid(s *Snapshot) []byte {
	w := gridWire{CellDeg: s.CellDeg, Generation: s.Generation, Stores: s.Stores, Cells: make([]cellWire, 0, len(s.cells))}
	for c, vs := range s.cells {
		w.Cells = append(w.Cells, cellWire{c, vs})
	}
	sort.Slice(w.Cells, func(i, j int) bool { return cellLess(w.Cells[i].Cell, w.Cells[j].Cell) })
	b, err := json.Marshal(w)
	if err != nil {
		panic(err) // every field of a built or decoded snapshot is a finite number
	}
	return b
}

// DecodeGrid parses the grid wire format into a snapshot, refusing
// anything EncodeGrid would not have written: a quantum other than
// DefaultCellDeg, a channel outside the TV band, an unknown
// sensor or status, a confidence outside [0, 1], an empty cell, a cell
// or (channel, sensor) repeated or out of order, any other spelling.
func DecodeGrid(b []byte) (*Snapshot, error) {
	var w gridWire
	if err := json.Unmarshal(b, &w); err != nil {
		return nil, fmt.Errorf("geoindex: grid: %w", err)
	}
	if w.CellDeg != DefaultCellDeg {
		return nil, fmt.Errorf("geoindex: grid quantized at %v°, want %v°", w.CellDeg, DefaultCellDeg)
	}
	s := &Snapshot{CellDeg: w.CellDeg, Generation: w.Generation, Stores: w.Stores,
		cells: make(map[Cell][]ChannelAvailability, len(w.Cells))}
	for _, c := range w.Cells {
		if len(c.Verdicts) == 0 {
			return nil, fmt.Errorf("geoindex: grid cell (%d,%d) has no verdict", c.X, c.Y)
		}
		for j, v := range c.Verdicts {
			if err := v.check(); err != nil {
				return nil, fmt.Errorf("geoindex: grid cell (%d,%d): %w", c.X, c.Y, err)
			}
			if j > 0 && !verdictLess(c.Verdicts[j-1], v) {
				return nil, fmt.Errorf("geoindex: grid cell (%d,%d): channel %d sensor %d repeated or out of order",
					c.X, c.Y, v.Channel, v.Sensor)
			}
		}
		s.cells[c.Cell] = c.Verdicts
		s.entries += len(c.Verdicts)
	}
	if !bytes.Equal(EncodeGrid(s), b) {
		return nil, errors.New("geoindex: grid not canonical: cells repeated or out of order, or bytes encoding/json would not write")
	}
	return s, nil
}

// check refuses a verdict no build produces.
func (v ChannelAvailability) check() error {
	if !v.Channel.Valid() {
		return fmt.Errorf("channel %d outside the TV band", v.Channel)
	}
	if _, err := sensor.SpecFor(v.Sensor); err != nil {
		return err
	}
	if v.Status < StatusFree || v.Status > StatusUncertain {
		return fmt.Errorf("unknown status %d", v.Status)
	}
	if !(v.Confidence >= 0 && v.Confidence <= 1) {
		return fmt.Errorf("confidence %v outside [0, 1]", v.Confidence)
	}
	return nil
}
