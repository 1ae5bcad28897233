package dbserver

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"github.com/wsdetect/waldo/internal/geo"
	"github.com/wsdetect/waldo/internal/geoindex"
	"github.com/wsdetect/waldo/internal/rfenv"
	"github.com/wsdetect/waldo/internal/sensor"
)

// referenceEntries is the place answers' reference: a cell's verdicts
// as the AvailabilityEntryJSON list json.Encoder was handed before the
// answers were appended by hand — kept through a channel set (nil: all)
// and a sensor family (0: all), each confidence scaled by decay.
func referenceEntries(entries []geoindex.ChannelAvailability, channels map[rfenv.Channel]bool, kind sensor.Kind, decay float64) []AvailabilityEntryJSON {
	out := make([]AvailabilityEntryJSON, 0, len(entries))
	for _, e := range entries {
		if channels != nil && !channels[e.Channel] || kind != 0 && e.Sensor != kind {
			continue
		}
		out = append(out, AvailabilityEntryJSON{
			Channel: int(e.Channel), Sensor: int(e.Sensor), Status: e.Status.String(),
			Confidence: e.Confidence * decay, Readings: e.Readings, ModelVersion: e.ModelVersion,
		})
	}
	return out
}

// encoderBytes is what json.Encoder writes for v.
func encoderBytes(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzPlaceAnswerJSON holds the availability and route appenders to
// json.Encoder, byte for byte, trailing newline included: any point,
// cell, generation, verdict and discount — −0, 1e-7 and 1e21 among the
// seeds — through a channel filter given as a bit set over the band and
// a sensor filter, over a nil, an empty and a full verdict list.
func FuzzPlaceAnswerJSON(f *testing.F) {
	f.Add(33.64, -84.52, 1.0, 0.5, 600.0, 1234.5, uint64(7), int32(3364), int32(-8453), 80, 3, uint8(1), uint64(0), 0)
	f.Add(math.Copysign(0, -1), 1e-7, 1e21, 1e-7, 0.0, math.Copysign(0, -1), uint64(0), int32(0), int32(-1), 0, 0, uint8(2), uint64(1)<<33, 1)
	f.Add(-89.9999999, 179.99999999, 0.123456789, 0.9999999999, 1e300, 1e21, uint64(math.MaxUint64), int32(math.MinInt32), int32(math.MaxInt32), -1, math.MaxInt, uint8(3), uint64(math.MaxUint64), 2)
	f.Fuzz(func(t *testing.T, lat, lon, conf, decay, horizonS, alongM float64, gen uint64, x, y int32, readings, version int, status uint8, band uint64, kind int) {
		for _, v := range []float64{lat, lon, decay, horizonS, alongM, conf * decay} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Skip("every number of a place answer is finite")
			}
		}
		full := []geoindex.ChannelAvailability{
			{Channel: 14, Sensor: sensor.KindRTLSDR, Status: geoindex.Status(status), Confidence: conf, Readings: readings, ModelVersion: version},
			{Channel: 47, Sensor: sensor.KindRTLSDR, Status: geoindex.StatusFree, Confidence: 1, Readings: readings / 2, ModelVersion: version},
			{Channel: 47, Sensor: sensor.KindUSRPB200, Status: geoindex.StatusUncertain, Confidence: conf / 3, Readings: 1, ModelVersion: -version},
			{Channel: 51, Sensor: sensor.Kind(kind), Status: geoindex.StatusOccupied, Confidence: -conf, Readings: 0, ModelVersion: 0},
		}
		// band's bits from 14 name the channels kept, as a "channels="
		// list would; no bit keeps every channel.
		var list []string
		var set map[rfenv.Channel]bool
		for ch := rfenv.Channel(14); ch <= 51; ch++ {
			if band&(1<<(ch-14)) != 0 {
				if set == nil {
					set = map[rfenv.Channel]bool{}
				}
				set[ch] = true
				list = append(list, strconv.Itoa(int(ch)))
			}
		}
		channels, err := parseChannelFilter(joinComma(list))
		if err != nil {
			t.Fatal(err)
		}
		filter := geoFilter{channels: channels, kind: sensor.Kind(kind)}
		pt := geo.Point{Lat: lat, Lon: lon}
		cell := geoindex.Cell{X: x, Y: y}
		snap := &geoindex.Snapshot{CellDeg: geoindex.DefaultCellDeg, Generation: gen}
		for _, entries := range [][]geoindex.ChannelAvailability{nil, {}, full} {
			var j jsonBuf
			kept := appendAvailability(&j, pt, cell, snap, entries, filter)
			ref := referenceEntries(entries, set, filter.kind, 1)
			want := encoderBytes(t, AvailabilityJSON{Lat: lat, Lon: lon, CellX: x, CellY: y,
				CellDeg: snap.CellDeg, Generation: gen, Channels: ref})
			if !bytes.Equal(j.B, want) || kept != len(ref) {
				t.Fatalf("availability appended (%d kept)\n%s\njson.Encoder writes (%d kept)\n%s", kept, j.B, len(ref), want)
			}

			segs := []geoindex.RouteSegment{
				{Cell: cell, From: pt, To: geo.Point{Lat: lon, Lon: lat}, EnterM: 0, ExitM: alongM},
				{Cell: geoindex.Cell{X: y, Y: x}, From: geo.Point{Lat: lon, Lon: lat}, To: pt, EnterM: alongM, ExitM: horizonS},
			}
			j = jsonBuf{}
			appendRouteHead(&j, gen, horizonS, horizonS, decay)
			resp := RouteJSON{CellDeg: geoindex.DefaultCellDeg, Generation: gen, TotalM: horizonS, HorizonS: horizonS, ConfidenceDecay: decay}
			resp.Segments = make([]RouteSegmentJSON, 0, len(segs))
			for i, seg := range segs {
				kept := appendSegment(&j, i, seg, entries, filter, decay)
				ref := referenceEntries(entries, set, filter.kind, decay)
				if kept != len(ref) {
					t.Fatalf("segment %d kept %d verdicts, the reference %d", i, kept, len(ref))
				}
				resp.Segments = append(resp.Segments, RouteSegmentJSON{
					CellX: seg.Cell.X, CellY: seg.Cell.Y,
					FromLat: seg.From.Lat, FromLon: seg.From.Lon, ToLat: seg.To.Lat, ToLon: seg.To.Lon,
					EnterM: seg.EnterM, ExitM: seg.ExitM, Channels: ref,
				})
			}
			appendRouteTail(&j)
			if want := encoderBytes(t, resp); !bytes.Equal(j.B, want) {
				t.Fatalf("route appended\n%s\njson.Encoder writes\n%s", j.B, want)
			}
		}
	})
}

// joinComma is strings.Join(list, ",") spelled out, so the filter under
// test and the list it parses share no code.
func joinComma(list []string) string {
	var b []byte
	for i, s := range list {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, s...)
	}
	return string(b)
}

// TestChannelFilterRefusals: the channels= list is refused in the words
// the map-and-Split parser used — the raw part quoted, or the channel
// named — and every list spelling of a valid set parses to its bits.
func TestChannelFilterRefusals(t *testing.T) {
	for arg, want := range map[string]string{
		"x": `bad channel "x"`, "46,": `bad channel ""`, ",46": `bad channel ""`, "46, x ": `bad channel " x "`,
		"46,,47": `bad channel ""`, "13": "channel 13 outside TV band", "46,52": "channel 52 outside TV band",
		"4.7e1": `bad channel "4.7e1"`, "99999999999999999999": `bad channel "99999999999999999999"`,
	} {
		if _, err := parseChannelFilter(arg); err == nil || err.Error() != want {
			t.Errorf("channels=%s: err %v, want %s", arg, err, want)
		}
	}
	for arg, want := range map[string]uint64{"": 0, "47": 1 << 47, " 46 ,47,46": 1<<46 | 1<<47, "14,51": 1<<14 | 1<<51} {
		if got, err := parseChannelFilter(arg); err != nil || got != want {
			t.Errorf("channels=%q: %b, %v, want %b", arg, got, err, want)
		}
	}
}

// TestPlaceAnswersAreEncoderBytes: every availability and route answer a
// server serves is what json.Encoder writes for the values it carries —
// decoded and encoded again, the bytes come back unchanged — and states
// its length in Content-Length.
func TestPlaceAnswersAreEncoderBytes(t *testing.T) {
	s, _ := splitServer(t)
	h := s.Handler()
	west := rfenv.MetroCenter.Offset(270, 15000)
	east := rfenv.MetroCenter.Offset(90, 7000)
	avail := fmt.Sprintf("/v1/availability?lat=%v&lon=%v", west.Lat, west.Lon)
	route := func(horizonS float64, channels ...int) []byte {
		body, _ := json.Marshal(RouteRequestJSON{
			Points: []RoutePointJSON{{Lat: west.Lat, Lon: west.Lon}, {Lat: east.Lat, Lon: east.Lon}},
			StepM:  500, HorizonS: horizonS, Channels: channels,
		})
		return body
	}
	check := func(name string, rec *httptest.ResponseRecorder, v any) {
		t.Helper()
		body := rec.Body.Bytes()
		if rec.Code != http.StatusOK {
			t.Fatalf("%s = %d %s", name, rec.Code, body)
		}
		if err := json.Unmarshal(body, v); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if want := encoderBytes(t, v); !bytes.Equal(body, want) {
			t.Errorf("%s served\n%s\njson.Encoder writes\n%s", name, body, want)
		}
		if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(len(body)) {
			t.Errorf("%s: Content-Length %q for a %d-byte answer", name, cl, len(body))
		}
	}
	for _, target := range []string{avail, avail + "&channels=47", avail + "&channels=46", avail + "&sensor=2", "/v1/availability?lat=80&lon=120"} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
		check(target, rec, &AvailabilityJSON{})
	}
	for name, body := range map[string][]byte{"route": route(0), "route with a horizon": route(1800), "filtered route": route(0, 46)} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/route", bytes.NewReader(body)))
		check(name, rec, &RouteJSON{})
	}
}

// FuzzJSONNumbers: every float64, int64 and uint64 appends as
// json.Marshal writes it, and a non-finite float, which json.Marshal
// refuses, panics. The seeds are the format's edges: −0, both sides of
// 1e-6 and of 1e21, the exponent clean-up (1e-7), the extremes.
func FuzzJSONNumbers(f *testing.F) {
	for _, x := range []float64{0, math.Copysign(0, -1), 1, -1.5, 1e-6, 9.999999e-7, 1e-7, 1.5e-7, 1e-10,
		1e20, 1e21, -1e21, 123456789e13, math.MaxFloat64, math.SmallestNonzeroFloat64, 0.1 + 0.2,
		math.NaN(), math.Inf(1), math.Inf(-1)} {
		f.Add(x, int64(-7), uint64(7))
	}
	f.Add(33.64, int64(math.MinInt64), uint64(math.MaxUint64))
	f.Fuzz(func(t *testing.T, x float64, i int64, u uint64) {
		for _, c := range []struct {
			append func(*jsonBuf)
			v      any
		}{{func(j *jsonBuf) { j.Float(x) }, x}, {func(j *jsonBuf) { j.Int(i) }, i}, {func(j *jsonBuf) { j.Uint(u) }, u}} {
			want, err := json.Marshal(c.v)
			var j jsonBuf
			panicked := func() (p bool) {
				defer func() { p = recover() != nil }()
				c.append(&j)
				return false
			}()
			if panicked != (err != nil) || err == nil && string(j.B) != string(want) {
				t.Fatalf("%v appended %q (panicked %v), json.Marshal = %q, %v", c.v, j.B, panicked, want, err)
			}
		}
	})
}
