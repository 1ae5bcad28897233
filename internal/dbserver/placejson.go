package dbserver

import (
	"math"
	"net/http"
	"strconv"
	"sync"

	"github.com/wsdetect/waldo/internal/geo"
	"github.com/wsdetect/waldo/internal/geoindex"
)

// The place answers are appended by hand, byte-identical to what
// json.Encoder writes for the AvailabilityJSON and RouteJSON they stand
// for, trailing newline included: encoding/json is the reference
// (FuzzPlaceAnswerJSON, FuzzJSONNumbers).

// jsonBuf is a place answer under construction.
type jsonBuf struct{ B []byte }

// Raw appends literal JSON text: punctuation, keys, and strings that
// need no escaping.
func (j *jsonBuf) Raw(s string) { j.B = append(j.B, s...) }

// Int appends n as encoding/json writes any signed integer.
func (j *jsonBuf) Int(n int64) { j.B = strconv.AppendInt(j.B, n, 10) }

// Uint appends n as encoding/json writes any unsigned integer.
func (j *jsonBuf) Uint(n uint64) { j.B = strconv.AppendUint(j.B, n, 10) }

// Float appends f as encoding/json writes a float64: the shortest
// decimal that round-trips, in exponent form below 1e-6 and from 1e21
// on, with the exponent's leading zero dropped (1e-07 → 1e-7). A NaN or
// ±Inf, which JSON cannot hold, panics: every number of a place answer
// is finite (DESIGN.md §15).
func (j *jsonBuf) Float(f float64) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		panic("dbserver: non-finite number in a place answer")
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b := strconv.AppendFloat(j.B, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	j.B = b
}

// appendEntries appends a cell's verdicts through f as a channels array,
// each confidence scaled by decay, and reports how many it kept.
func appendEntries(j *jsonBuf, entries []geoindex.ChannelAvailability, f geoFilter, decay float64) int {
	j.Raw("[")
	kept := 0
	for _, e := range entries {
		if !f.keep(e) {
			continue
		}
		if kept > 0 {
			j.Raw(",")
		}
		kept++
		j.Raw(`{"channel":`)
		j.Int(int64(e.Channel))
		j.Raw(`,"sensor":`)
		j.Int(int64(e.Sensor))
		j.Raw(`,"status":"`)
		j.Raw(e.Status.String()) // a lowercase word: nothing to escape
		j.Raw(`","confidence":`)
		j.Float(e.Confidence * decay)
		j.Raw(`,"readings":`)
		j.Int(int64(e.Readings))
		j.Raw(`,"model_version":`)
		j.Int(int64(e.ModelVersion))
		j.Raw("}")
	}
	j.Raw("]")
	return kept
}

// appendAvailability appends an AvailabilityJSON: the queried point, its
// cell, the snapshot's quantum and generation, and the cell's verdicts
// through f. It reports how many verdicts it kept.
func appendAvailability(j *jsonBuf, pt geo.Point, cell geoindex.Cell, snap *geoindex.Snapshot, entries []geoindex.ChannelAvailability, f geoFilter) int {
	j.Raw(`{"lat":`)
	j.Float(pt.Lat)
	j.Raw(`,"lon":`)
	j.Float(pt.Lon)
	j.Raw(`,"cell_x":`)
	j.Int(int64(cell.X))
	j.Raw(`,"cell_y":`)
	j.Int(int64(cell.Y))
	j.Raw(`,"cell_deg":`)
	j.Float(snap.CellDeg)
	j.Raw(`,"generation":`)
	j.Uint(snap.Generation)
	j.Raw(`,"channels":`)
	kept := appendEntries(j, entries, f, 1)
	j.Raw("}\n")
	return kept
}

// appendRouteHead opens a RouteJSON up to its segments array.
func appendRouteHead(j *jsonBuf, generation uint64, totalM, horizonS, decay float64) {
	j.Raw(`{"cell_deg":`)
	j.Float(geoindex.DefaultCellDeg)
	j.Raw(`,"generation":`)
	j.Uint(generation)
	j.Raw(`,"total_m":`)
	j.Float(totalM)
	j.Raw(`,"horizon_s":`)
	j.Float(horizonS)
	j.Raw(`,"confidence_decay":`)
	j.Float(decay)
	j.Raw(`,"segments":[`)
}

// appendSegment appends the i-th RouteSegmentJSON — seg and its cell's
// verdicts through f, discounted by decay — and reports how many
// verdicts it kept.
func appendSegment(j *jsonBuf, i int, seg geoindex.RouteSegment, entries []geoindex.ChannelAvailability, f geoFilter, decay float64) int {
	if i > 0 {
		j.Raw(",")
	}
	j.Raw(`{"cell_x":`)
	j.Int(int64(seg.Cell.X))
	j.Raw(`,"cell_y":`)
	j.Int(int64(seg.Cell.Y))
	j.Raw(`,"from_lat":`)
	j.Float(seg.From.Lat)
	j.Raw(`,"from_lon":`)
	j.Float(seg.From.Lon)
	j.Raw(`,"to_lat":`)
	j.Float(seg.To.Lat)
	j.Raw(`,"to_lon":`)
	j.Float(seg.To.Lon)
	j.Raw(`,"enter_m":`)
	j.Float(seg.EnterM)
	j.Raw(`,"exit_m":`)
	j.Float(seg.ExitM)
	j.Raw(`,"channels":`)
	kept := appendEntries(j, entries, f, decay)
	j.Raw("}")
	return kept
}

// appendRouteTail closes a RouteJSON.
func appendRouteTail(j *jsonBuf) { j.Raw("]}\n") }

// placeBufs pools the place answers' bytes: Write copies them out.
var placeBufs = sync.Pool{New: func() any { return new(jsonBuf) }}

// maxPooledAnswer bounds the answer buffers placeBufs keeps.
const maxPooledAnswer = 64 << 10

func getPlaceBuf() *jsonBuf {
	j := placeBufs.Get().(*jsonBuf)
	j.B = j.B[:0]
	return j
}

// writePlace answers j's JSON with its Content-Length and returns j to
// the pool.
func writePlace(w http.ResponseWriter, j *jsonBuf) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(j.B)))
	w.Write(j.B) //nolint:errcheck // client went away
	if cap(j.B) <= maxPooledAnswer {
		placeBufs.Put(j)
	}
}
