package dbserver

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"github.com/wsdetect/waldo/internal/core"
	"github.com/wsdetect/waldo/internal/dataset"
)

// encodedUpload renders a 16-reading upload the way bench/ and the
// device client do: json.Marshal of an UploadJSON, every signal field
// carrying full float64 precision.
func encodedUpload(tb testing.TB) []byte {
	tb.Helper()
	rng := rand.New(rand.NewSource(5))
	up := UploadJSON{CISpanDB: 0.4}
	for _, r := range synthReadings(16, 47, 5) {
		noise := rng.NormFloat64() * 0.3
		r.Signal.RSSdBm += noise
		r.Signal.CFTdB += noise
		r.Signal.AFTdB += noise
		up.Readings = append(up.Readings, FromReading(r))
	}
	body, err := json.Marshal(up)
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// bitDiff names the first place a and b differ — floats by their bits,
// so −0 is not 0 — or returns "".
func bitDiff(path string, a, b reflect.Value) string {
	switch a.Kind() {
	case reflect.Float64:
		if math.Float64bits(a.Float()) != math.Float64bits(b.Float()) {
			return fmt.Sprintf("%s: %v vs %v", path, a, b)
		}
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if d := bitDiff(path+"."+a.Type().Field(i).Name, a.Field(i), b.Field(i)); d != "" {
				return d
			}
		}
	case reflect.Slice:
		if a.Len() != b.Len() {
			return fmt.Sprintf("%s: len %d vs %d", path, a.Len(), b.Len())
		}
		for i := 0; i < a.Len(); i++ {
			if d := bitDiff(fmt.Sprintf("%s[%d]", path, i), a.Index(i), b.Index(i)); d != "" {
				return d
			}
		}
	default:
		if !a.Equal(b) {
			return fmt.Sprintf("%s: %v vs %v", path, a, b)
		}
	}
	return ""
}

// checkUploadParity holds DecodeUploadJSON to encoding/json on body:
// the same error text, or the same batch bit for bit; and the fast path
// accepts nothing encoding/json refuses. It reports whether the fast
// path took the body.
func checkUploadParity(t *testing.T, body []byte) (fast bool) {
	t.Helper()
	var up UploadJSON
	refErr := json.Unmarshal(body, &up)
	want := core.UploadBatch{CISpanDB: up.CISpanDB}
	for _, rj := range up.Readings {
		want.Readings = append(want.Readings, rj.ToReading())
	}
	s := jsonScan{b: body}
	fast = s.upload(&core.UploadBatch{}) && s.end()
	if fast && refErr != nil {
		t.Fatalf("fast path accepted %q, which encoding/json refuses: %v", body, refErr)
	}
	if s.tooMany {
		if _, err := DecodeUploadJSON(nil, body, nil); err != errTooManyReadings {
			t.Fatalf("an upload past the reading limit decoded to %v, want %v", err, errTooManyReadings)
		}
		return false
	}
	// A pooled dst arrives holding a prefix and spare capacity; the
	// prefix must survive, whatever the body.
	prefix := synthReadings(2, 46, 3)
	got, err := DecodeUploadJSON(append(make([]dataset.Reading, 0, 64), prefix...), body, nil)
	if d := bitDiff("prefix", reflect.ValueOf(prefix), reflect.ValueOf(got.Readings[:len(prefix)])); d != "" {
		t.Fatalf("decoding %q changed dst's prefix: %s", body, d)
	}
	got.Readings = got.Readings[len(prefix):]
	switch {
	case refErr != nil:
		if err == nil || err.Error() != "bad upload: "+refErr.Error() {
			t.Fatalf("%q: got error %v, want bad upload: %v", body, err, refErr)
		}
	case err != nil:
		t.Fatalf("%q: got error %v, encoding/json decodes it", body, err)
	default:
		if d := bitDiff("batch", reflect.ValueOf(want), reflect.ValueOf(got)); d != "" {
			t.Fatalf("%q (fast path %v): %s", body, fast, d)
		}
	}
	return fast
}

// FuzzDecodeUploadJSON is the parity fuzzer. Its committed corpus under
// testdata/fuzz holds the encoded body and every shape the fast path
// refuses: null, unknown and case-folded keys, escapes, non-ASCII bytes,
// fractions and exponents in integer fields, out-of-range numbers, a
// repeated "readings" key, trailing bytes.
func FuzzDecodeUploadJSON(f *testing.F) {
	f.Add(encodedUpload(f))
	f.Fuzz(func(t *testing.T, body []byte) { checkUploadParity(t, body) })
}

// TestEncodedUploadTakesTheFastPath: what encoding/json writes for an
// upload is the fast path's, and decoding it into pooled capacity
// allocates nothing.
func TestEncodedUploadTakesTheFastPath(t *testing.T) {
	upload := encodedUpload(t)
	if !checkUploadParity(t, upload) {
		t.Fatal("encoded upload refused by the fast path")
	}
	dst := make([]dataset.Reading, 0, 16)
	if n := testing.AllocsPerRun(100, func() {
		batch, err := DecodeUploadJSON(dst[:0], upload, nil)
		if err != nil || len(batch.Readings) != 16 {
			t.Fatalf("decode = %d readings, %v", len(batch.Readings), err)
		}
	}); n != 0 {
		t.Errorf("fast-path upload decode allocates %v objects, want 0", n)
	}
}

// TestRefusedUploadIsNotSizedByItsBody: a body the fast path refuses
// costs encoding/json's parse, not an allocation proportional to its
// length — 4 MiB of whitespace used to reserve 3.1 MB of readings.
func TestRefusedUploadIsNotSizedByItsBody(t *testing.T) {
	body := bytes.Repeat([]byte(" "), 4<<20)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := DecodeUploadJSON(nil, body, nil)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("whitespace decoded as an upload")
	}
	if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
		t.Errorf("refusing 4 MiB of whitespace allocated %d bytes, want < 1 MB", d)
	}
}

// BenchmarkDecodeUploadJSON times the fast path against encoding/json on
// the 16-reading body the repository benchmark sends:
// `go test -run '^$' -bench DecodeUploadJSON -benchmem ./internal/dbserver`.
func BenchmarkDecodeUploadJSON(b *testing.B) {
	body := encodedUpload(b)
	dst := make([]dataset.Reading, 0, 16)
	for name, decode := range map[string]func() (core.UploadBatch, error){
		"fast":      func() (core.UploadBatch, error) { return DecodeUploadJSON(dst[:0], body, nil) },
		"reference": func() (core.UploadBatch, error) { return decodeUploadReference(dst[:0], body) },
	} {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := decode(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestOversizedUploadStopsAtTheLimit: a JSON upload of more readings
// than core.MaxBatchReadings is refused at the first reading past the
// limit, not decoded to its end first — here the body is cut short
// after it, which encoding/json would refuse as a syntax error only
// after decoding every reading.
func TestOversizedUploadStopsAtTheLimit(t *testing.T) {
	one := encodedUpload(t)
	start := bytes.Index(one, []byte(`{"seq"`))
	end := bytes.IndexByte(one[start:], '}') + start + 1
	var body bytes.Buffer
	body.WriteString(`{"ci_span_db":0.4,"readings":[`)
	for i := 0; i < core.MaxBatchReadings+1; i++ {
		body.Write(one[start:end])
		body.WriteByte(',')
	}
	body.WriteString(`{"seq":1,"lat":`) // cut: no reading past the limit is whole
	batch, err := DecodeUploadJSON(make([]dataset.Reading, 0, 8), body.Bytes(), nil)
	if err != errTooManyReadings {
		t.Fatalf("oversized upload: err = %v, want %v", err, errTooManyReadings)
	}
	if len(batch.Readings) != 0 {
		t.Errorf("the refused upload handed back %d readings, want dst's 0", len(batch.Readings))
	}
	var s jsonScan
	s.b = body.Bytes()
	decoded := core.UploadBatch{}
	if s.upload(&decoded) || !s.tooMany {
		t.Fatal("the fast path did not stop at the limit")
	}
	if n := len(decoded.Readings); n > core.MaxBatchReadings+1 {
		t.Errorf("the fast path decoded %d readings before refusing, want at most %d", n, core.MaxBatchReadings+1)
	}
}

// encodedRoute renders a route request the way bench/ does: json.Marshal
// of a RouteRequestJSON, three waypoints at full precision.
func encodedRoute(tb testing.TB) []byte {
	tb.Helper()
	body, err := json.Marshal(RouteRequestJSON{
		Points: []RoutePointJSON{{Lat: 33.6411234567, Lon: -84.5212345678},
			{Lat: 33.6523456789, Lon: -84.5098765432}, {Lat: 33.6612345678, Lon: -84.4987654321}},
		HorizonS: 600, StepM: 250,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// checkRouteParity holds decodeRouteJSON to encoding/json on body: the
// same error text, or the same request bit for bit, nil slices included;
// and the fast path accepts nothing encoding/json refuses. It reports
// whether the fast path took the body.
func checkRouteParity(t *testing.T, body []byte) (fast bool) {
	t.Helper()
	var want RouteRequestJSON
	refErr := json.Unmarshal(body, &want)
	s := jsonScan{b: body}
	fast = s.route(&RouteRequestJSON{}) && s.end()
	if fast && refErr != nil {
		t.Fatalf("fast path accepted %q, which encoding/json refuses: %v", body, refErr)
	}
	var got RouteRequestJSON
	err := decodeRouteJSON(&got, body)
	switch {
	case refErr != nil:
		if err == nil || err.Error() != refErr.Error() {
			t.Fatalf("%q: got error %v, want %v", body, err, refErr)
		}
	case err != nil:
		t.Fatalf("%q: got error %v, encoding/json decodes it", body, err)
	default:
		if d := bitDiff("route", reflect.ValueOf(want), reflect.ValueOf(got)); d != "" {
			t.Fatalf("%q (fast path %v): %s", body, fast, d)
		}
		if (want.Points == nil) != (got.Points == nil) || (want.Channels == nil) != (got.Channels == nil) {
			t.Fatalf("%q (fast path %v): nil slices differ: %#v vs %#v", body, fast, want, got)
		}
	}
	return fast
}

// FuzzDecodeRouteJSON is the route body's parity fuzzer. Its committed
// corpus under testdata/fuzz holds the encoded body, the shapes the fast
// path takes (empty arrays, −0, exponents, whitespace, channel and
// sensor filters) and those it refuses: null, unknown and case-folded
// keys, escapes, non-ASCII bytes, fractions and exponents in integer
// fields, out-of-range numbers, repeated array keys, trailing bytes.
func FuzzDecodeRouteJSON(f *testing.F) {
	f.Add(encodedRoute(f))
	f.Fuzz(func(t *testing.T, body []byte) { checkRouteParity(t, body) })
}

// TestEncodedRouteTakesTheFastPath: what encoding/json writes for a route
// request is the fast path's.
func TestEncodedRouteTakesTheFastPath(t *testing.T) {
	for _, body := range [][]byte{encodedRoute(t), []byte(`{"points":[{"lat":1,"lon":2}],"channels":[46,47],"sensor":1}`)} {
		if !checkRouteParity(t, body) {
			t.Fatalf("%s refused by the fast path", body)
		}
	}
}

// BenchmarkDecodeRouteJSON times the fast path against encoding/json on
// a three-waypoint route request:
// `go test -run '^$' -bench DecodeRouteJSON -benchmem ./internal/dbserver`.
func BenchmarkDecodeRouteJSON(b *testing.B) {
	body := encodedRoute(b)
	for name, decode := range map[string]func(*RouteRequestJSON) error{
		"fast":      func(req *RouteRequestJSON) error { return decodeRouteJSON(req, body) },
		"reference": func(req *RouteRequestJSON) error { return json.Unmarshal(body, req) },
	} {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var req RouteRequestJSON
				if err := decode(&req); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
