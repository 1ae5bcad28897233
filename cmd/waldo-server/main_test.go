package main

import (
	"bytes"
	"net/http"
	"path/filepath"
	"strings"
	"testing"

	"github.com/wsdetect/waldo/internal/cmdtest"
	"github.com/wsdetect/waldo/internal/core"
	"github.com/wsdetect/waldo/internal/dataset"
	"github.com/wsdetect/waldo/internal/dbserver"
	"github.com/wsdetect/waldo/internal/features"
	"github.com/wsdetect/waldo/internal/geo"
	"github.com/wsdetect/waldo/internal/sensor"
	"github.com/wsdetect/waldo/internal/telemetry"
)

// TestRunRefusesClusterMisuse: run refuses, before it opens the CSV, a
// -data bootstrap on a shard (it would hold readings the ring places
// elsewhere) or on a replica (it could never adopt its primary's
// journal), and -follow without -shard-id. The CSV named does not exist,
// so an error about opening it means the refusal came too late.
func TestRunRefusesClusterMisuse(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "missing.csv")
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-data", missing, "-shard-id", "s0"}, "-data cannot seed a shard"},
		{[]string{"-data", missing, "-shard-id", "s0r", "-follow", "http://127.0.0.1:1"}, "-data cannot seed a replica"},
		{[]string{"-data", missing, "-follow", "http://127.0.0.1:1"}, "-follow requires -shard-id"},
		{[]string{"-data-dir", t.TempDir(), "-follow", "http://127.0.0.1:1"}, "-follow requires -shard-id"},
	} {
		err := run(append(tc.args, "-addr", "127.0.0.1:0"))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run %q = %v, want the refusal %q", tc.args, err, tc.want)
		}
	}
}

// TestRunTracesAnUploadAndStopsOnSIGTERM boots the binary's own run as
// a durable shard: one frame upload is traced from the
// /v1/upload/batch root to its wal/append span in the process's own
// /debug/traces; SIGTERM with a watch parked answers it 503 at once and
// run returns nil; and the data dir, reopened, holds the upload — the
// WAL was closed after the drain, not cut under it.
func TestRunTracesAnUploadAndStopsOnSIGTERM(t *testing.T) {
	dir := t.TempDir()
	p := cmdtest.Boot(t, run, "-shard-id", "s0", "-data-dir", dir)

	readings := make([]dataset.Reading, 4)
	for i := range readings {
		readings[i] = dataset.Reading{
			Seq: i, Loc: geo.Point{Lat: 33.7490 + float64(i)*1e-4, Lon: -84.3880}, Channel: 47, Sensor: sensor.KindRTLSDR,
			Signal: features.Signal{RSSdBm: -70 - float64(i), CFTdB: -81.3 - float64(i), AFTdB: -83 - float64(i)},
		}
	}
	frame, err := core.EncodeBatchFrame(readings)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, p.URL+"/v1/upload/batch", bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(dbserver.CISpanHeader, "0.4")
	resp, body := p.Do(req)
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("upload = %s: %s", resp.Status, body)
	}
	sc, ok := telemetry.ParseTraceHeader(resp.Header.Get(telemetry.TraceHeader))
	if !ok {
		t.Fatalf("response %s = %q", telemetry.TraceHeader, resp.Header.Get(telemetry.TraceHeader))
	}
	names := map[string]bool{}
	for _, sp := range p.Spans(sc.Trace.String()) {
		names[sp.Name] = true
	}
	if !names["/v1/upload/batch"] || !names["wal/append"] {
		t.Errorf("the upload's trace has spans %v, want the /v1/upload/batch root and wal/append", names)
	}

	p.TermParked("/v1/model/watch?channel=47&sensor=1&version=99", func() bool {
		_, metrics := p.Get("/metrics")
		return bytes.Contains(metrics, []byte("\nwaldo_dbserver_watch_active 1\n"))
	})

	reopened, err := dbserver.Open(dbserver.Config{Constructor: dbserver.ShippedConstructor(), DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if got := reopened.StoreSize(47, sensor.KindRTLSDR); got != len(readings) {
		t.Errorf("the reopened data dir holds %d readings, want the %d uploaded", got, len(readings))
	}
}
