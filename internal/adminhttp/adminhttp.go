// Package adminhttp is how a Waldo binary listens: the serving loop
// that waldo-server and waldo-gateway put their handler on ([Server],
// serveloop.go — net/http's request parser without its per-request
// goroutine), the opt-in admin HTTP surface beside it (net/http/pprof's
// profiling endpoints; /metrics and /debug/traces are on the serving
// port), and the serve-until-signalled sequence around both listeners
// ([Serve]).
//
// A server stops one way, [Server.Close], whether a signal runs it
// under Serve or an in-process caller does: it runs the wake given to
// [Start], so no parked long-poll holds the drain for its budget.
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
)

// pprofHandler builds the admin mux: pprof under /debug/pprof/.
func pprofHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Serve runs a Waldo binary's listeners: srv, the serving loop from
// [Start], and, when adminAddr is set, the admin surface on its own
// listener, until SIGINT or SIGTERM or until the serving listener
// fails. Either then runs srv.Close — stop accepting, wake parked
// long-polls, give requests in flight ten seconds — and only then
// onShutdown (nil: nothing), where waldo-server flushes and closes its
// WAL: an upload acknowledged during the drain is journaled like any
// other. Serve returns the listener's error, else the drain's, else
// onShutdown's. The admin listener failing to bind is only logged,
// because it must not take down the serving process.
func Serve(srv *Server, adminAddr string, onShutdown func() error) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if adminAddr != "" {
		// pprof streams for 30 s on a cold path: the one listener that
		// keeps net/http's server.
		admin := &http.Server{Addr: adminAddr, Handler: pprofHandler(), ReadHeaderTimeout: 10 * time.Second}
		defer admin.Close()
		go func() {
			if err := admin.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
				log.Printf("admin listener: %v", err)
			}
		}()
		log.Printf("admin surface (pprof) on %s", adminAddr)
	}
	return srv.serveUntil(ctx, onShutdown)
}

// serveUntil is Serve from the moment the listener is up: it blocks
// until ctx is done (the signal) or accepting fails.
func (s *Server) serveUntil(ctx context.Context, onShutdown func() error) error {
	var err error
	select {
	case err = <-s.accepting:
	case <-ctx.Done():
	}
	if cerr := s.Close(); err == nil {
		err = cerr
	}
	if onShutdown != nil {
		if cerr := onShutdown(); err == nil {
			err = cerr
		}
	}
	return err
}
