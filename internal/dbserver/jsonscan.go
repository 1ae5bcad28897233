package dbserver

import (
	"encoding/json"
	"strconv"

	"github.com/wsdetect/waldo/internal/core"
)

// The JSON decoders' fast path, for upload bodies (UploadJSON) and route
// requests (RouteRequestJSON). encoding/json is the reference for both;
// jsonScan reads only the shape encoding/json itself writes for them —
// every key byte-equal to a field name, each value a plain number of the
// field's type and range, nothing after the object but whitespace — and
// reports false on anything else: null, unknown or case-folded keys,
// escapes, non-ASCII bytes, a fraction or exponent in an integer field,
// out-of-range numbers, a repeated array key ("readings", "points",
// "channels": encoding/json decodes a repeat into the elements already
// there), trailing bytes. The decoder then hands the whole body to
// encoding/json, which decides it, error text included. What the fast
// path accepts it decodes to the bits json.Unmarshal would
// (FuzzDecodeUploadJSON, FuzzDecodeRouteJSON). One refusal is the fast
// path's own: an upload's reading past core.MaxBatchReadings, refused
// there with errTooManyReadings rather than decoded to the end first.

// jsonScan is a cursor over one body. Its methods skip leading
// whitespace and report false, leaving the cursor anywhere, on input
// outside the fast path's shape.
type jsonScan struct {
	b []byte
	i int
	// tooMany is set when upload stopped at a reading past
	// core.MaxBatchReadings.
	tooMany bool
}

// upload reads an UploadJSON body, appending its readings to
// batch.Readings. It stops at reading core.MaxBatchReadings+1, setting
// tooMany.
func (s *jsonScan) upload(batch *core.UploadBatch) bool {
	readings := false
	return s.object(func(k []byte) bool {
		switch string(k) {
		case "ci_span_db":
			return s.float(&batch.CISpanDB)
		case "readings":
			if readings {
				return false
			}
			readings = true
			n := 0
			return s.array(func() bool {
				if n++; n > core.MaxBatchReadings {
					s.tooMany = true
					return false
				}
				var rj ReadingJSON
				ok := s.reading(&rj)
				batch.Readings = append(batch.Readings, rj.ToReading())
				return ok
			})
		}
		return false
	})
}

// route reads a RouteRequestJSON body into req, which starts zero.
func (s *jsonScan) route(req *RouteRequestJSON) bool {
	points, channels := false, false
	return s.object(func(k []byte) bool {
		switch string(k) {
		case "points":
			if points {
				return false
			}
			points = true
			req.Points = make([]RoutePointJSON, 0, 4) // "[]" decodes to empty, not nil
			return s.array(func() bool {
				var p RoutePointJSON
				ok := s.object(func(k []byte) bool {
					switch string(k) {
					case "lat":
						return s.float(&p.Lat)
					case "lon":
						return s.float(&p.Lon)
					}
					return false
				})
				req.Points = append(req.Points, p)
				return ok
			})
		case "horizon_s":
			return s.float(&req.HorizonS)
		case "step_m":
			return s.float(&req.StepM)
		case "channels":
			if channels {
				return false
			}
			channels = true
			req.Channels = []int{}
			return s.array(func() bool {
				var ch int
				ok := s.integer(&ch)
				req.Channels = append(req.Channels, ch)
				return ok
			})
		case "sensor":
			return s.integer(&req.Sensor)
		}
		return false
	})
}

// reading reads one ReadingJSON object.
func (s *jsonScan) reading(rj *ReadingJSON) bool {
	return s.object(func(k []byte) bool {
		switch string(k) {
		case "seq":
			return s.integer(&rj.Seq)
		case "lat":
			return s.float(&rj.Lat)
		case "lon":
			return s.float(&rj.Lon)
		case "channel":
			return s.integer(&rj.Channel)
		case "sensor":
			return s.integer(&rj.Sensor)
		case "rss_dbm":
			return s.float(&rj.RSSdBm)
		case "cft_db":
			return s.float(&rj.CFTdB)
		case "aft_db":
			return s.float(&rj.AFTdB)
		case "alt_m":
			return s.float(&rj.AltM)
		}
		return false
	})
}

// ws skips whitespace.
func (s *jsonScan) ws() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// lit consumes c if it is the next byte after whitespace.
func (s *jsonScan) lit(c byte) bool {
	s.ws()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// end reports whether only whitespace is left.
func (s *jsonScan) end() bool {
	s.ws()
	return s.i == len(s.b)
}

// object reads one object, handing each key — printable ASCII, no
// escapes — to field, which reads the value and refuses a key it does
// not know.
func (s *jsonScan) object(field func(key []byte) bool) bool {
	if !s.lit('{') {
		return false
	}
	if s.lit('}') {
		return true
	}
	for {
		if !s.lit('"') {
			return false
		}
		start := s.i
		for s.i < len(s.b) && s.b[s.i] != '"' {
			if c := s.b[s.i]; c < ' ' || c > '~' || c == '\\' {
				return false
			}
			s.i++
		}
		if s.i == len(s.b) {
			return false
		}
		key := s.b[start:s.i]
		s.i++
		if !s.lit(':') || !field(key) {
			return false
		}
		if s.lit('}') {
			return true
		}
		if !s.lit(',') {
			return false
		}
	}
}

// array reads one array, calling elem to read each element.
func (s *jsonScan) array(elem func() bool) bool {
	if !s.lit('[') {
		return false
	}
	if s.lit(']') {
		return true
	}
	for {
		if !elem() {
			return false
		}
		if s.lit(']') {
			return true
		}
		if !s.lit(',') {
			return false
		}
	}
}

// float and integer parse a number as encoding/json does — strconv on the
// literal, for the field's type — and refuse where that reports an
// error.
func (s *jsonScan) float(dst *float64) bool {
	lit, ok := s.number()
	if !ok {
		return false
	}
	f, err := strconv.ParseFloat(string(lit), 64)
	*dst = f
	return err == nil
}

func (s *jsonScan) integer(dst *int) bool {
	lit, ok := s.number()
	if !ok {
		return false
	}
	v, err := strconv.ParseInt(string(lit), 10, strconv.IntSize)
	*dst = int(v)
	return err == nil
}

// number reads one literal of JSON's number grammar.
func (s *jsonScan) number() ([]byte, bool) {
	s.ws()
	b, i, ok := s.b, s.i, true
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i, _ = digits(b, i)
	default:
		return nil, false
	}
	if i < len(b) && b[i] == '.' {
		if i, ok = digits(b, i+1); !ok {
			return nil, false
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		if i++; i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if i, ok = digits(b, i); !ok {
			return nil, false
		}
	}
	lit := b[s.i:i]
	s.i = i
	return lit, true
}

// digits skips the decimal digits from i, reporting whether there was one.
func digits(b []byte, i int) (int, bool) {
	j := i
	for j < len(b) && '0' <= b[j] && b[j] <= '9' {
		j++
	}
	return j, j > i
}

// decodeRouteJSON decodes a POST /v1/route body into req, which starts
// zero: the fast path, or encoding/json for a body it refuses.
func decodeRouteJSON(req *RouteRequestJSON, body []byte) error {
	s := jsonScan{b: body}
	if s.route(req) && s.end() {
		return nil
	}
	*req = RouteRequestJSON{}
	return json.Unmarshal(body, req)
}
