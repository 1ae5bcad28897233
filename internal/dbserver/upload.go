package dbserver

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"strconv"
	"sync"

	"github.com/wsdetect/waldo/internal/core"
	"github.com/wsdetect/waldo/internal/dataset"
	"github.com/wsdetect/waldo/internal/telemetry"
)

// One ingest pipeline. An upload arrives in one of two edge formats —
// JSON (POST /v1/readings, UploadJSON, CI span in the body) or one core
// batch frame (POST /v1/upload/batch: u32 count | 67-byte readings |
// CRC32, CI span in the CISpanHeader) — and the format is gone after the
// decode step: both routes run the same handler, which reads the body
// under the cap into pooled scratch, decodes it into the pooled
// []dataset.Reading, and hands acceptUpload a core.UploadBatch. From
// there on (validation, optional screening, the α′-gated Submit, one
// group-commit WAL append, the replication tap) nothing can tell which
// format a reading came in. Behind a gateway only frames arrive: the
// gateway re-encodes JSON at its own edge, using the decoders below.

// CISpanHeader carries the uploader's confidence-interval span in dB on
// batch-frame uploads (JSON embeds it in the body instead).
const CISpanHeader = "X-Waldo-CI-Span"

// uploadDecoder turns one edge format's body (and headers) into a batch,
// appending the readings to dst. On error the returned batch still holds
// dst, so pooled capacity survives a rejected upload.
type uploadDecoder func(dst []dataset.Reading, body []byte, h http.Header) (core.UploadBatch, error)

// uploadEdges lists every upload route with the decoder of its body
// format. Handler registers the routes from this list and
// MutationPatterns reports them, so a new edge format cannot be served
// without also being fenced on a cluster node.
var uploadEdges = []struct {
	path   string
	decode uploadDecoder
}{
	{"/v1/readings", DecodeUploadJSON},
	{"/v1/upload/batch", DecodeUploadFrame},
}

// MutationPatterns returns the mux patterns of every route through which
// a client changes a store directly: the upload edges and retrain.
// cluster.Node latches its promotion fence on exactly these.
func MutationPatterns() []string {
	out := []string{"POST /v1/retrain"}
	for _, e := range uploadEdges {
		out = append(out, "POST "+e.path)
	}
	return out
}

// DecodeUploadJSON is the JSON edge's decoder: body is an UploadJSON,
// which carries its own CI span, so h is not consulted. Like
// DecodeUploadFrame it is a codec, not a gate — the batch it returns
// still has to pass core.UploadBatch.Validate, which acceptUpload runs
// on every upload and a gateway runs before splitting one. The fast
// path (jsonscan.go) writes the readings straight into dst; a body it
// refuses is decoded by encoding/json.
func DecodeUploadJSON(dst []dataset.Reading, body []byte, _ http.Header) (core.UploadBatch, error) {
	s := jsonScan{b: body}
	batch := core.UploadBatch{Readings: dst}
	if s.upload(&batch) && s.end() {
		return batch, nil
	}
	return decodeUploadReference(batch.Readings[:len(dst)], body) // keeps what the fast path grew
}

// decodeUploadReference is DecodeUploadJSON through encoding/json. Only
// bodies the fast path refused reach it, so nothing is sized from the
// body's length.
func decodeUploadReference(dst []dataset.Reading, body []byte) (core.UploadBatch, error) {
	var up UploadJSON
	if err := json.Unmarshal(body, &up); err != nil {
		return core.UploadBatch{Readings: dst}, fmt.Errorf("bad upload: %w", err)
	}
	dst = slices.Grow(dst, len(up.Readings))
	for _, rj := range up.Readings {
		dst = append(dst, rj.ToReading())
	}
	return core.UploadBatch{CISpanDB: up.CISpanDB, Readings: dst}, nil
}

// DecodeUploadFrame is the frame edge's decoder: body must be exactly
// one batch frame, and the CI span rides in h's CISpanHeader (absent
// means 0).
func DecodeUploadFrame(dst []dataset.Reading, body []byte, h http.Header) (core.UploadBatch, error) {
	batch := core.UploadBatch{Readings: dst}
	if v := h.Get(CISpanHeader); v != "" {
		span, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return batch, fmt.Errorf("bad %s header: %w", CISpanHeader, err)
		}
		batch.CISpanDB = span
	}
	readings, rest, err := core.DecodeBatchFrame(dst, body)
	if err == nil && len(rest) != 0 {
		err = fmt.Errorf("%d trailing bytes", len(rest))
	}
	if err != nil {
		return batch, fmt.Errorf("bad batch frame: %w", err)
	}
	batch.Readings = readings
	return batch, nil
}

// uploadState carries the ingest pipeline's telemetry and decode pool.
type uploadState struct {
	uploads  *telemetry.Counter
	readings *telemetry.Counter
	rejected *telemetry.Counter
	// scratch pools decode buffers ([]dataset.Reading and the body bytes)
	// across uploads so a steady ingest load allocates nothing per frame.
	scratch sync.Pool
}

// uploadScratch is one pooled decode workspace.
type uploadScratch struct {
	body     bytes.Buffer
	readings []dataset.Reading
}

func newUploadState(m *telemetry.Registry) *uploadState {
	return &uploadState{
		uploads: m.Counter("waldo_dbserver_batch_uploads_total",
			"Uploads accepted, either edge format (one batch each)."),
		readings: m.Counter("waldo_dbserver_batch_readings_total",
			"Readings accepted through uploads, either edge format."),
		rejected: m.Counter("waldo_dbserver_batch_rejected_total",
			"Uploads rejected (body cap, decode, validation, screening, or the α′ gate)."),
		scratch: sync.Pool{New: func() any { return new(uploadScratch) }},
	}
}

// handleUpload serves one upload edge. Undecodable bodies and invalid
// readings are 400s, oversize bodies 413, screening and α′ rejections
// 422, whichever format carried them.
func (s *Server) handleUpload(decode uploadDecoder) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		reject := func(status int, msg string) {
			s.upload.rejected.Inc()
			http.Error(w, msg, status)
		}
		limit := s.cfg.MaxBodyBytes
		if limit <= 0 {
			limit = DefaultMaxBodyBytes
		}
		sc := s.upload.scratch.Get().(*uploadScratch)
		defer s.upload.scratch.Put(sc)
		sc.body.Reset()
		if n := r.ContentLength; n > 0 && n <= limit {
			sc.body.Grow(int(n))
		}
		if _, err := sc.body.ReadFrom(http.MaxBytesReader(w, r.Body, limit)); err != nil {
			status := http.StatusBadRequest
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				status = http.StatusRequestEntityTooLarge
			}
			reject(status, "read body: "+err.Error())
			return
		}
		batch, err := decode(sc.readings[:0], sc.body.Bytes(), r.Header)
		sc.readings = batch.Readings[:0] // keep grown capacity pooled even on the error paths below
		if err != nil {
			reject(http.StatusBadRequest, err.Error())
			return
		}
		if status, err := s.acceptUpload(r.Context(), batch); err != nil {
			reject(status, err.Error())
			return
		}
		s.upload.uploads.Inc()
		s.upload.readings.Add(uint64(len(batch.Readings)))
		w.WriteHeader(http.StatusNoContent)
	}
}

// acceptUpload is the one gate every upload passes, and the only place
// an upload is validated: malformed input (core.UploadBatch.Validate) is
// a 400 before anything else looks at the batch, then optional screening
// against the trusted store, then the α′-gated Submit, which journals the
// whole batch as one WAL append. ctx carries the request trace — the
// screen span and the WAL append join it. On error the returned status
// is the HTTP code to answer with. The batch's readings slice is only
// read — callers may pool it.
func (s *Server) acceptUpload(ctx context.Context, batch core.UploadBatch) (int, error) {
	if err := batch.Validate(); err != nil {
		return http.StatusBadRequest, err
	}
	u, err := s.updaterFor(batch.Readings[0].Channel, batch.Readings[0].Sensor)
	if err != nil {
		return http.StatusInternalServerError, err
	}
	if s.cfg.Screening != nil {
		span := s.metrics.StartSpanCtx(ctx, "screen")
		trusted := u.View().Flatten() // read-only: the validator indexes it
		if len(trusted) == 0 {
			span.Fail("no trusted readings")
			span.End()
			return http.StatusUnprocessableEntity,
				errors.New("store has no trusted readings to corroborate against")
		}
		v, err := core.NewUploadValidator(trusted, *s.cfg.Screening)
		if err != nil {
			span.Fail(err.Error())
			span.End()
			return http.StatusInternalServerError, err
		}
		filtered, err := v.FilterBatch(batch)
		if err != nil {
			span.Fail(err.Error())
			span.End()
			s.lg.Warn(ctx, "upload_screen_reject",
				"channel", int(batch.Readings[0].Channel),
				"sensor", int(batch.Readings[0].Sensor),
				"readings", len(batch.Readings), "err", err)
			return http.StatusUnprocessableEntity,
				fmt.Errorf("upload failed corroboration: %w", err)
		}
		span.End()
		batch = filtered
	}
	if err := u.SubmitCtx(ctx, batch); err != nil {
		return http.StatusUnprocessableEntity, err
	}
	return 0, nil
}
