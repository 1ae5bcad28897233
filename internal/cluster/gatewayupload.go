package cluster

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"

	"github.com/wsdetect/waldo/internal/core"
	"github.com/wsdetect/waldo/internal/dbserver"
	"github.com/wsdetect/waldo/internal/geo"
)

// Upload routing. Whatever format an upload arrives in, it is a core
// batch frame by the time it is routed, and shards behind a gateway only
// ever see POST /v1/upload/batch: a frame upload is routed as received, a
// JSON upload is decoded with the dbserver's own edge decoder and
// re-encoded as a frame first. routeFrame checks the framing
// (core.CheckBatchFrame), then probe-reads the four routing fields of
// each fixed-size record at known byte offsets to learn which shards own
// the batch. Single-owner frames (the common case: WSDs batch locally)
// forward byte-identical without a reading being decoded — the shard
// validates and applies them atomically. Mixed frames are validated
// whole, then split by copying whole 67-byte records into per-leg
// frames, so the readings a shard receives are bit-for-bit what the edge
// produced.

// Routing-field offsets inside one encoded reading (see
// core.AppendReadingWire's layout).
const (
	recLatOff     = 8
	recLonOff     = 16
	recChannelOff = 24
	recSensorOff  = 26
)

// batchFramePath is the only upload route a shard sees from a gateway.
const batchFramePath = "/v1/upload/batch"

// handleReadings is the JSON upload edge: re-encode as a frame, carry the
// body's ci_span_db in the CISpanHeader, and route like any other frame.
// Nothing is validated here that the frame edge does not validate too;
// the encoder only refuses what a frame cannot represent (no readings,
// too many, a channel or sensor wider than its field).
func (g *Gateway) handleReadings(w http.ResponseWriter, r *http.Request) {
	bp, ok := g.readBody(w, r)
	if !ok {
		return
	}
	defer putBody(bp)
	fp := bodyPool.Get().(*[]byte) // the frame dies with the handler too
	defer putBody(fp)
	batch, err := dbserver.DecodeUploadJSON(nil, *bp, nil)
	if err == nil {
		*fp, err = core.AppendBatchFrame((*fp)[:0], batch.Readings)
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	// Legs read only the method, URL, context and headers: a shallow copy.
	fr, u := *r, *r.URL
	u.Path, u.RawQuery = batchFramePath, ""
	fr.URL, fr.Header = &u, http.Header{"Content-Type": {"application/octet-stream"},
		ciSpanHeaderKey: {strconv.FormatFloat(batch.CISpanDB, 'g', -1, 64)}}
	g.routeFrame(w, &fr, *fp)
}

// handleUploadBatch is the frame upload edge.
func (g *Gateway) handleUploadBatch(w http.ResponseWriter, r *http.Request) {
	if bp, ok := g.readBody(w, r); ok {
		defer putBody(bp)
		g.routeFrame(w, r, *bp)
	}
}

// batchLeg is one shard's share of a split upload: raw reading records,
// appended in client order.
type batchLeg struct {
	shard   *shardState
	records [][]byte
}

// routeFrame routes one upload frame by each reading's (channel,
// geo-cell) key; r supplies the path, headers and trace the shard legs
// carry. Framing violations are rejected here, so a corrupt frame costs
// no shard round-trip. A frame whose readings all land on one (shard,
// channel, sensor) forwards untouched. A frame crossing a cell or
// channel boundary is split per owning shard and the legs sent in
// parallel — routing it whole by its first reading would strand the
// neighbor cell's readings on a shard that lat/lon-hinted /v1/model and
// /v1/export queries for that cell never visit. Legs are applied
// independently, so a split is only sent once the whole upload has
// passed the validation a node would apply: one bad reading rejects the
// upload, it does not land the other legs. What can still fail one leg
// and not another is the environment (a dead shard, screening against
// different stores): the gateway then answers with the uniform leg
// status, or 502 when legs disagree, so a client retry re-submits the
// whole upload; the already-landed legs re-apply as ordinary duplicate
// readings, never as losses.
func (g *Gateway) routeFrame(w http.ResponseWriter, r *http.Request, frame []byte) {
	n, rest, err := core.CheckBatchFrame(frame)
	if err == nil && len(rest) != 0 {
		err = fmt.Errorf("%d trailing bytes", len(rest))
	}
	if err != nil {
		http.Error(w, "bad batch frame: "+err.Error(), http.StatusBadRequest)
		return
	}
	type legKey struct {
		shard   string
		channel uint16
		sensor  byte
	}
	record := func(i int) []byte {
		return frame[4+i*core.ReadingWireSize:][:core.ReadingWireSize]
	}
	// Ring.Owner hashes the cell alone and a WSD batches where it stands,
	// so the owner is looked up once per run of same-cell records.
	var lastCell Cell
	var lastOwner string
	keyOf := func(rec []byte) legKey {
		lat := math.Float64frombits(binary.LittleEndian.Uint64(rec[recLatOff:]))
		lon := math.Float64frombits(binary.LittleEndian.Uint64(rec[recLonOff:]))
		if cell := CellOf(geo.Point{Lat: lat, Lon: lon}, g.cfg.CellDeg); lastOwner == "" || cell != lastCell {
			lastCell, lastOwner = cell, g.ring.Owner(RouteKey{Cell: cell})
		}
		return legKey{shard: lastOwner, channel: binary.LittleEndian.Uint16(rec[recChannelOff:]), sensor: rec[recSensorOff]}
	}
	first := keyOf(record(0))
	mixed := false
	for i := 1; i < n; i++ {
		if keyOf(record(i)) != first {
			mixed = true
			break
		}
	}
	if !mixed {
		g.forward(w, r, g.shards[first.shard], frame) // byte-identical fast path
		return
	}
	batch, err := dbserver.DecodeUploadFrame(nil, frame, r.Header)
	if err == nil {
		err = batch.Validate()
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	// Split path: group whole records per (shard, channel, sensor) in
	// first-appearance order — legs stay single-store from the dbserver's
	// point of view, two cells owned by one shard share a leg, and leg
	// order is deterministic — then re-frame each leg (fresh count + CRC
	// around untouched record bytes).
	byKey := make(map[legKey]*batchLeg)
	var legs []*batchLeg
	for i := 0; i < n; i++ {
		rec := record(i)
		lk := keyOf(rec)
		leg := byKey[lk]
		if leg == nil {
			leg = &batchLeg{shard: g.shards[lk.shard]}
			byKey[lk] = leg
			legs = append(legs, leg)
		}
		leg.records = append(leg.records, rec)
	}
	g.uploadSplits.Inc()
	results := make([]FanoutResult, len(legs))
	var wg sync.WaitGroup
	for i, leg := range legs {
		wg.Add(1)
		go func(i int, sh *shardState, frame []byte) {
			defer wg.Done()
			results[i] = g.tryShard(r, sh, frame)
		}(i, leg.shard, buildBatchFrame(leg.records))
	}
	wg.Wait()
	status := results[0].Status
	for _, res := range results {
		if res.Status != status {
			status = http.StatusBadGateway // mixed outcomes: make the client retry
		}
	}
	w.Header().Set(ClusterVersionHeader, g.version)
	w.Header().Set(ShardHeader, splitShardList(results))
	if status/100 == 2 {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(embeddable(results)) //nolint:errcheck // client went away
}

// splitShardList renders a split upload's leg shard IDs, comma-joined in
// leg order, for the ShardHeader on the merged response.
func splitShardList(results []FanoutResult) string {
	ids := make([]string, len(results))
	for i, res := range results {
		ids[i] = res.Shard
	}
	return strings.Join(ids, ",")
}

// buildBatchFrame frames raw reading records into one batch frame: count
// prefix, the records byte-identical, fresh CRC.
func buildBatchFrame(records [][]byte) []byte {
	frame := make([]byte, 0, core.BatchFrameLen(len(records)))
	frame = binary.LittleEndian.AppendUint32(frame, uint32(len(records)))
	for _, rec := range records {
		frame = append(frame, rec...)
	}
	return binary.LittleEndian.AppendUint32(frame, crc32.ChecksumIEEE(frame))
}
