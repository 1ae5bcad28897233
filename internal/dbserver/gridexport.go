package dbserver

import (
	"fmt"
	"net/http"
	"strconv"
	"time"

	"github.com/wsdetect/waldo/internal/geoindex"
)

// GET /v1/grid hands the availability grid to gateways, which answer
// place queries from replicas of their shards' grids (DESIGN.md §15).
// It is a long-poll modelled on /v1/model/watch: answered at once unless
// If-None-Match names the serving grid, else parked until the next
// publish, 304 at the watch horizon, 503 at shutdown.

// HorizonHeader states on every GET /v1/grid answer, and every GET
// /v1/model/watch answer that parked or could have, the watch horizon in
// milliseconds: how long a conditional request may park before its 304.
// A gateway's follower allows a poll that long plus its own budget
// before it calls the server unreachable, and parks its clients' watches
// for as long.
const HorizonHeader = "X-Waldo-Horizon-Ms"

func (s *Server) handleGrid(w http.ResponseWriter, r *http.Request) {
	inm := r.Header.Get("If-None-Match")
	s.LongPoll(w, r, func() <-chan struct{} {
		// The validator hashes the bytes, not the generation: a restarted
		// server counts generations from 1 again, and a follower keyed by
		// generation could park on a stale grid.
		published := s.geoidx.Published()
		data := geoindex.EncodeGrid(s.geoidx.Snapshot())
		etag := fmt.Sprintf(`"%016x"`, fnv64(data))
		w.Header().Set("ETag", etag)
		if inm != "" && etagMatches(inm, etag) {
			return published
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(data) //nolint:errcheck // client went away
		return nil
	})
}

// LongPoll serves a long-poll like GET /v1/grid: it states the watch
// horizon in HorizonHeader and calls answer until it answers, parking on
// the channel answer hands back instead (taken before it looked); 304 at
// the horizon, 503 at BeginShutdown. The cluster tier's journal uses it.
func (s *Server) LongPoll(w http.ResponseWriter, r *http.Request, answer func() <-chan struct{}) {
	horizon := s.Horizon()
	w.Header().Set(HorizonHeader, strconv.FormatInt(horizon.Milliseconds(), 10))
	timer := time.NewTimer(horizon)
	defer timer.Stop()
	for {
		wake := answer()
		if wake == nil {
			return
		}
		select {
		case <-wake:
		case <-timer.C:
			w.WriteHeader(http.StatusNotModified)
			return
		case <-r.Context().Done():
			return
		case <-s.closed:
			http.Error(w, "server shutting down", http.StatusServiceUnavailable)
			return
		}
	}
}
