// Package adminhttp is how a Waldo binary listens: the serving loop
// that waldo-server and waldo-gateway put their handler on ([Server],
// serveloop.go — net/http's request parser without its per-request
// goroutine), the opt-in operator/admin HTTP surface beside it
// (net/http/pprof profiling endpoints next to the same /metrics and
// /debug/traces views the serving mux exposes), and the
// serve-until-signalled sequence around both listeners ([Serve]).
//
// The admin surface exists so the pprof handlers are linked only into
// binaries that ask for them (library packages never import
// net/http/pprof) and are bound to a separate listener: the admin mux
// is meant for a loopback or otherwise operator-only address, never the
// client-facing one, because profile endpoints can stall a process for
// seconds at a time. Handlers are registered explicitly on a private
// mux — nothing touches http.DefaultServeMux, so a binary that also
// uses the default mux leaks no profiling surface by accident.
package adminhttp

import (
	"context"
	"errors"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/wsdetect/waldo/internal/telemetry"
)

// Handler builds the admin mux for one registry: pprof under
// /debug/pprof/, the Prometheus exposition at /metrics, and the flight
// recorder (when one is attached to the registry) at /debug/traces.
func Handler(reg *telemetry.Registry) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("GET /metrics", reg.Handler())
	mux.Handle("GET /debug/traces", reg.FlightRecorder().Handler())
	return mux
}

// Serve runs a Waldo binary's listeners: handler on addr under the
// serving loop ([Server]) and, when adminAddr is set, the admin surface
// for reg on its own listener, until SIGINT or SIGTERM. Shutdown then
// goes: stop accepting, call wake (nil: nothing) — which must make
// parked long-polls answer, or they pin the drain for its whole budget —
// give requests in flight ten seconds, and only then call onShutdown
// (nil: nothing), where waldo-server flushes and closes its WAL: an
// upload acknowledged during the drain is journaled like any other.
// Serve returns the drain's error or else onShutdown's. A serving
// listener that fails returns its error at once; the admin listener
// failing to bind is only logged, because it must not take down the
// serving process.
func Serve(addr string, handler http.Handler, adminAddr string, reg *telemetry.Registry, wake func(), onShutdown func() error) error {
	if adminAddr != "" {
		// pprof streams for 30 s on a cold path: the one listener that
		// keeps net/http's server.
		admin := &http.Server{Addr: adminAddr, Handler: Handler(reg), ReadHeaderTimeout: 10 * time.Second}
		defer admin.Close()
		go func() {
			if err := admin.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
				log.Printf("admin listener: %v", err)
			}
		}()
		log.Printf("admin surface (pprof) on %s", adminAddr)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	srv, err := Start(addr, handler)
	if err != nil {
		return err
	}
	return srv.serveUntil(ctx, wake, onShutdown)
}

// serveUntil is Serve from the moment the listener is up: it blocks
// until ctx is done (the signal) or accepting fails.
func (s *Server) serveUntil(ctx context.Context, wake func(), onShutdown func() error) error {
	select {
	case err := <-s.accepting:
		return err
	case <-ctx.Done():
	}
	err := s.shutdown(wake)
	if onShutdown != nil {
		if cerr := onShutdown(); err == nil {
			err = cerr
		}
	}
	return err
}
