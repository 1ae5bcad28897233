package cluster

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"github.com/wsdetect/waldo/internal/core"
	"github.com/wsdetect/waldo/internal/dataset"
	"github.com/wsdetect/waldo/internal/dbserver"
	"github.com/wsdetect/waldo/internal/geo"
	"github.com/wsdetect/waldo/internal/rfenv"
	"github.com/wsdetect/waldo/internal/sensor"
)

// Edge parity: an upload is the same upload whichever edge format
// carried it and whichever tier it entered at. These tests send one set
// of readings as JSON and as a batch frame, straight at a node and
// through a 3-shard gateway, and require the same answer and — where
// accepted — the same bytes in every store and every WAL.

// parityBodyCap is the body cap of every tier in a parityStack: above a
// MaxBatchReadings+1 upload in either format, so the count limit is what
// rejects it, not the cap.
const parityBodyCap = 16 << 20

// parityStack is one standalone node ("direct") plus a 3-shard cluster
// behind a gateway, every node WAL-backed under its own directory.
type parityStack struct {
	*testCluster
	direct   *Node
	directTS *httptest.Server
	dirs     map[string]string // node ID → data dir
}

func newParityStack(t testing.TB) *parityStack {
	t.Helper()
	ps := &parityStack{
		testCluster: &testCluster{
			nodes:   map[string]*Node{},
			nodeTS:  map[string]*httptest.Server{},
			cellDeg: DefaultCellDeg,
		},
		dirs: map[string]string{},
	}
	root := t.TempDir()
	var specs []ShardSpec
	for _, id := range []string{"direct", "s0", "s1", "s2"} {
		ps.dirs[id] = filepath.Join(root, id)
		n, err := OpenNode(NodeConfig{ID: id, DB: dbserver.Config{
			Constructor:  core.ConstructorConfig{Classifier: core.KindNB},
			DataDir:      ps.dirs[id],
			MaxBodyBytes: parityBodyCap,
		}})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(n.Handler())
		t.Cleanup(func() {
			ts.Close()
			n.Close()
		})
		if id == "direct" {
			ps.direct, ps.directTS = n, ts
			continue
		}
		ps.nodes[id], ps.nodeTS[id] = n, ts
		specs = append(specs, ShardSpec{ID: id, URLs: []string{ts.URL}})
	}
	gw, err := NewGateway(GatewayConfig{Shards: specs, Ring: RingConfig{Seed: 11}, MaxBodyBytes: parityBodyCap})
	if err != nil {
		t.Fatal(err)
	}
	ps.gw, ps.gwTS = gw, httptest.NewServer(gw.Handler())
	t.Cleanup(func() {
		ps.gwTS.Close()
		gw.Close()
	})
	return ps
}

// sites returns one location per shard, in shard-ID order.
func (ps *parityStack) sites(t testing.TB) []geo.Point {
	t.Helper()
	locs := ps.locations(t, 47)
	return []geo.Point{locs["s0"], locs["s1"], locs["s2"]}
}

// entries are the two places a client can hand an upload to.
func (ps *parityStack) entries() map[string]string {
	return map[string]string{"direct": ps.directTS.URL, "gateway": ps.gwTS.URL}
}

// state flushes every WAL and returns everything an upload can change:
// per node its /v1/stats body, the /v1/export of every store it lists,
// and every file under its data dir.
func (ps *parityStack) state(t testing.TB) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	for id := range ps.dirs {
		n, url := ps.direct, ps.directTS.URL
		if id != "direct" {
			n, url = ps.nodes[id], ps.nodeTS[id].URL
		}
		if err := n.DB.FlushWAL(); err != nil {
			t.Fatal(err)
		}
		out[id+" /v1/stats"] = mustGetBody(t, url+"/v1/stats", http.StatusOK)
		for ch := rfenv.Channel(14); ch <= 51; ch++ {
			for kind := sensor.KindRTLSDR; kind <= sensor.KindSpectrumAnalyzer; kind++ {
				if n.DB.StoreSize(ch, kind) > 0 {
					path := fmt.Sprintf("/v1/export?channel=%d&sensor=%d", ch, kind)
					out[id+" "+path] = mustGetBody(t, url+path, http.StatusOK)
				}
			}
		}
		err := filepath.WalkDir(ps.dirs[id], func(p string, d os.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return err
			}
			rel, _ := filepath.Rel(ps.dirs[id], p)
			out[id+" file "+rel], err = os.ReadFile(p)
			return err
		})
		if err != nil && !os.IsNotExist(err) {
			t.Fatal(err)
		}
	}
	return out
}

// diffState names the keys on which two states differ.
func diffState(a, b map[string][]byte) []string {
	var diff []string
	for k, v := range a {
		if w, ok := b[k]; !ok || !bytes.Equal(v, w) {
			diff = append(diff, k)
		}
	}
	for k := range b {
		if _, ok := a[k]; !ok {
			diff = append(diff, k)
		}
	}
	return diff
}

// rawJSONUpload renders an upload body field by field, so values
// encoding/json refuses to marshal (NaN, ±Inf) still reach the wire —
// as the tokens a careless client would print, which no JSON parser
// accepts.
func rawJSONUpload(rs []dataset.Reading, ciSpan float64) []byte {
	f := func(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }
	var b bytes.Buffer
	fmt.Fprintf(&b, `{"ci_span_db":%s,"readings":[`, f(ciSpan))
	for i, r := range rs {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"seq":%d,"lat":%s,"lon":%s,"channel":%d,"sensor":%d,"rss_dbm":%s,"cft_db":%s,"aft_db":%s,"alt_m":%s}`,
			r.Seq, f(r.Loc.Lat), f(r.Loc.Lon), int(r.Channel), int(r.Sensor),
			f(r.Signal.RSSdBm), f(r.Signal.CFTdB), f(r.Signal.AFTdB), f(r.AltM))
	}
	b.WriteString("]}")
	return b.Bytes()
}

// rawFrame frames readings without core.EncodeBatchFrame's count checks,
// so empty and over-limit frames can be built too.
func rawFrame(rs []dataset.Reading) []byte {
	b := binary.LittleEndian.AppendUint32(make([]byte, 0, core.BatchFrameLen(len(rs))), uint32(len(rs)))
	for i := range rs {
		b = core.AppendReadingWire(b, &rs[i])
	}
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
}

// sendJSON and sendFrame post one upload and return the status.
func sendJSON(t testing.TB, url string, rs []dataset.Reading, ciSpan float64) int {
	t.Helper()
	return sendUpload(t, url+"/v1/readings", rawJSONUpload(rs, ciSpan), "")
}

func sendFrame(t testing.TB, url string, rs []dataset.Reading, ciSpan float64) int {
	t.Helper()
	return sendUpload(t, url+"/v1/upload/batch", rawFrame(rs), strconv.FormatFloat(ciSpan, 'g', -1, 64))
}

func sendUpload(t testing.TB, url string, body []byte, spanHeader string) int {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if spanHeader != "" {
		req.Header.Set(dbserver.CISpanHeader, spanHeader)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck // status is what the tests read
	resp.Body.Close()
	return resp.StatusCode
}

// TestHostileUploadParity: every malformed or unacceptable upload gets
// the same status as JSON and as a frame, at a node and through the
// gateway, and leaves /v1/stats as it was.
func TestHostileUploadParity(t *testing.T) {
	ps := newParityStack(t)
	sites := ps.sites(t)
	for name, url := range ps.entries() {
		for i, loc := range sites { // every shard gets a channel-47 store
			if code := sendFrame(t, url, synthAt(20, 47, int64(i), loc), 0.4); code != http.StatusNoContent {
				t.Fatalf("%s: seeding upload = %d", name, code)
			}
		}
	}
	good := func() []dataset.Reading { return synthAt(4, 47, 9, sites[0]) }
	with := func(mutate func(r *dataset.Reading)) []dataset.Reading {
		rs := good()
		mutate(&rs[2])
		return rs
	}
	tooMany := make([]dataset.Reading, core.MaxBatchReadings+1)
	for i := range tooMany {
		tooMany[i] = good()[0]
	}
	const badRequest, unprocessable = http.StatusBadRequest, http.StatusUnprocessableEntity
	cases := []struct {
		name     string
		readings []dataset.Reading
		ciSpan   float64
		direct   int
		gateway  int
	}{
		{"NaN RSS", with(func(r *dataset.Reading) { r.Signal.RSSdBm = math.NaN() }), 0.4, badRequest, badRequest},
		{"+Inf CFT", with(func(r *dataset.Reading) { r.Signal.CFTdB = math.Inf(1) }), 0.4, badRequest, badRequest},
		{"-Inf AFT", with(func(r *dataset.Reading) { r.Signal.AFTdB = math.Inf(-1) }), 0.4, badRequest, badRequest},
		{"negative altitude", with(func(r *dataset.Reading) { r.AltM = -30 }), 0.4, badRequest, badRequest},
		{"NaN altitude", with(func(r *dataset.Reading) { r.AltM = math.NaN() }), 0.4, badRequest, badRequest},
		{"channel outside the band", with(func(r *dataset.Reading) { r.Channel = 99 }), 0.4, badRequest, badRequest},
		{"unknown sensor", with(func(r *dataset.Reading) { r.Sensor = 9 }), 0.4, badRequest, badRequest},
		{"zero sensor", with(func(r *dataset.Reading) { r.Sensor = 0 }), 0.4, badRequest, badRequest},
		{"latitude 91", with(func(r *dataset.Reading) { r.Loc.Lat = 91 }), 0.4, badRequest, badRequest},
		{"NaN longitude", with(func(r *dataset.Reading) { r.Loc.Lon = math.NaN() }), 0.4, badRequest, badRequest},
		{"zero readings", nil, 0.4, badRequest, badRequest},
		{"more than MaxBatchReadings", tooMany, 0.4, badRequest, badRequest},
		{"NaN CI span", good(), math.NaN(), badRequest, badRequest},
		{"negative CI span", good(), -5, badRequest, badRequest},
		{"+Inf CI span", good(), math.Inf(1), badRequest, badRequest},
		{"CI span over α′", good(), 99, unprocessable, unprocessable},
		// A node stores one (channel, sensor) per upload; the gateway splits
		// a mixed upload into such legs, so there it is not hostile at all.
		{"mixed channels", with(func(r *dataset.Reading) { r.Channel = 46 }), 0.4, unprocessable, http.StatusNoContent},
		{"mixed sensors", with(func(r *dataset.Reading) { r.Sensor = sensor.KindUSRPB200 }), 0.4, unprocessable, http.StatusNoContent},
	}
	for _, tc := range cases {
		for entry, url := range ps.entries() {
			want := tc.direct
			if entry == "gateway" {
				want = tc.gateway
			}
			for format, send := range map[string]func(testing.TB, string, []dataset.Reading, float64) int{"JSON": sendJSON, "frame": sendFrame} {
				before := mustGetBody(t, url+"/v1/stats", http.StatusOK)
				got := send(t, url, tc.readings, tc.ciSpan)
				if got != want {
					t.Errorf("%s, %s as %s = %d, want %d", tc.name, entry, format, got, want)
				}
				if after := mustGetBody(t, url+"/v1/stats", http.StatusOK); got >= 400 && !bytes.Equal(before, after) {
					t.Errorf("%s, %s as %s: rejected with %d but /v1/stats changed:\n%s\n%s", tc.name, entry, format, got, before, after)
				}
			}
		}
	}

	// What only one format can say. JSON integers are wider than the
	// frame's channel field: 65583 must not be narrowed to 47 on the way
	// to a shard. A CI-span header can be text.
	wraps := with(func(r *dataset.Reading) { r.Channel = 1<<16 + 47 })
	for entry, url := range ps.entries() {
		if got := sendJSON(t, url, wraps, 0.4); got != badRequest {
			t.Errorf("JSON channel 65583 via %s = %d, want 400", entry, got)
		}
		if got := sendUpload(t, url+"/v1/upload/batch", rawFrame(good()), "wide"); got != badRequest {
			t.Errorf("frame with CI-span header %q via %s = %d, want 400", "wide", entry, got)
		}
	}
}

// checkEdgeParity sends rs to two fresh stacks — as JSON to one, as a
// frame to the other, at the node and through the gateway — and requires
// equal statuses and byte-identical state (stats, exports, WAL files) on
// every node. It returns the two statuses (direct, gateway).
func checkEdgeParity(t *testing.T, rs func(sites []geo.Point) []dataset.Reading, ciSpan float64) (direct, gateway int) {
	t.Helper()
	viaJSON, viaFrame := newParityStack(t), newParityStack(t)
	readings := rs(viaJSON.sites(t))
	status := map[string]int{}
	for entry, url := range viaJSON.entries() {
		j := sendJSON(t, url, readings, ciSpan)
		f := sendFrame(t, viaFrame.entries()[entry], readings, ciSpan)
		if j != f {
			t.Errorf("%s: JSON = %d, frame = %d", entry, j, f)
		}
		status[entry] = j
	}
	if diff := diffState(viaJSON.state(t), viaFrame.state(t)); len(diff) > 0 {
		t.Errorf("JSON and frame ingest left different bytes in: %q", diff)
	}
	if splitsJ, splitsF := viaJSON.gw.uploadSplits.Value(), viaFrame.gw.uploadSplits.Value(); splitsJ != splitsF {
		t.Errorf("gateway split %d JSON uploads but %d frame uploads", splitsJ, splitsF)
	}
	return status["direct"], status["gateway"]
}

// TestUploadEdgeParity is the differential oracle on the two shapes that
// matter: an upload one shard owns whole, and one that straddles all
// three shards and two channels.
func TestUploadEdgeParity(t *testing.T) {
	t.Run("single owner", func(t *testing.T) {
		direct, gateway := checkEdgeParity(t, func(sites []geo.Point) []dataset.Reading {
			return synthAt(40, 47, 3, sites[1])
		}, 0.4)
		if direct != http.StatusNoContent || gateway != http.StatusNoContent {
			t.Fatalf("accepted nowhere: direct %d, gateway %d", direct, gateway)
		}
	})
	t.Run("straddling", func(t *testing.T) {
		direct, gateway := checkEdgeParity(t, func(sites []geo.Point) []dataset.Reading {
			var rs []dataset.Reading
			for i, loc := range sites {
				rs = append(rs, synthAt(10+5*i, 47, 7, loc)...)
				rs = append(rs, synthAt(3, 46, 8, loc)...)
			}
			return rs
		}, 0.4)
		// Two channels: a node refuses it, the gateway splits it.
		if direct != http.StatusUnprocessableEntity || gateway != http.StatusNoContent {
			t.Fatalf("direct %d, gateway %d; want 422, 204", direct, gateway)
		}
	})
}

// fuzzReadings derives n readings from data (cycled). Each starts as a
// plausible reading at one of the per-shard sites — so batches both stay
// inside a cell and straddle shards — and every few readings data
// overrides one field with raw bits, so NaN, ±Inf, out-of-band channels
// and wild coordinates are a byte flip away from the seeds.
func fuzzReadings(data []byte, n int, sites []geo.Point) []dataset.Reading {
	pos := 0
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[pos%len(data)]
		pos++
		return b
	}
	raw := func() float64 {
		var b [8]byte
		for i := range b {
			b[i] = next()
		}
		return math.Float64frombits(binary.LittleEndian.Uint64(b[:]))
	}
	rs := make([]dataset.Reading, n)
	for i := range rs {
		r := &rs[i]
		rss := -110 + float64(next())/4
		*r = dataset.Reading{
			Seq:     i,
			Loc:     sites[int(next())%len(sites)].Offset(float64(next())*1.4, float64(next())),
			Channel: 47,
			Sensor:  sensor.KindRTLSDR,
		}
		r.Signal.RSSdBm, r.Signal.CFTdB, r.Signal.AFTdB = rss, rss-11.3, rss-13
		switch next() % 24 {
		case 0:
			r.Signal.RSSdBm = raw()
		case 1:
			r.Signal.CFTdB = raw()
		case 2:
			r.Signal.AFTdB = raw()
		case 3:
			r.AltM = raw()
		case 4:
			r.Loc.Lat = raw()
		case 5:
			r.Loc.Lon = raw()
		case 6:
			r.Channel = rfenv.Channel(uint16(next())<<8 | uint16(next())) // what a frame can carry
		case 7:
			r.Sensor = sensor.Kind(next())
		case 8:
			r.Channel = 46
		}
	}
	return rs
}

// FuzzUploadEdgeParity: whatever the readings and the CI span, JSON and
// frame ingest agree on the status at both tiers and on every stored
// byte. The committed corpus under testdata/fuzz runs with go test.
func FuzzUploadEdgeParity(f *testing.F) {
	f.Add([]byte{40, 0, 10, 20, 9}, uint8(12), uint16(40))                 // one site, accepted
	f.Add([]byte{40, 0, 10, 20, 9, 80, 1, 7, 3, 9}, uint8(30), uint16(40)) // straddles shards
	f.Add([]byte{40, 2, 10, 20, 8}, uint8(6), uint16(40))                  // second channel
	f.Add([]byte{40, 1, 10, 20, 9}, uint8(5), uint16(250))                 // over α′
	f.Fuzz(func(t *testing.T, data []byte, n uint8, spanCenti uint16) {
		ciSpan := float64(spanCenti) / 100
		switch spanCenti { // the spans a header can carry and arithmetic cannot reach
		case 0xFFFF:
			ciSpan = math.NaN()
		case 0xFFFE:
			ciSpan = math.Inf(1)
		case 0xFFFD:
			ciSpan = -5
		}
		checkEdgeParity(t, func(sites []geo.Point) []dataset.Reading {
			return fuzzReadings(data, int(n%64), sites)
		}, ciSpan)
	})
}
