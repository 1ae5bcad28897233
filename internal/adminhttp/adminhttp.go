// Package adminhttp assembles the opt-in operator/admin HTTP surface:
// net/http/pprof profiling endpoints next to the same /metrics and
// /debug/traces views the serving mux exposes — and, since every binary
// that has one serves the same way, the serve-until-signalled loop
// around both listeners ([Serve]).
//
// It exists so the pprof handlers are linked only into binaries that ask
// for them (library packages never import net/http/pprof) and are bound
// to a separate listener: the admin mux is meant for a loopback or
// otherwise operator-only address, never the client-facing one, because
// profile endpoints can stall a process for seconds at a time. Handlers
// are registered explicitly on a private mux — nothing touches
// http.DefaultServeMux, so a binary that also uses the default mux
// leaks no profiling surface by accident.
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

// Serve is the serving loop of a Waldo binary: handler on addr and, when
// adminAddr is set, the admin surface for reg on its own listener, until
// SIGINT or SIGTERM. It then stops accepting requests, gives in-flight
// ones ten seconds to finish, and returns onShutdown's error (nil
// onShutdown: nil) — where waldo-server flushes and closes its WAL, so no
// acknowledged upload is lost to a clean shutdown. A serving listener
// that fails returns its error at once; the admin listener failing to
// bind is only logged, because it must not take down the serving process.
func Serve(addr string, handler http.Handler, adminAddr string, reg *telemetry.Registry, onShutdown func() error) error {
	if adminAddr != "" {
		admin := &http.Server{Addr: adminAddr, Handler: Handler(reg), ReadHeaderTimeout: 10 * time.Second}
		defer admin.Close()
		go func() {
			if err := admin.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
				log.Printf("admin listener: %v", err)
			}
		}()
		log.Printf("admin surface (pprof) on %s", adminAddr)
	}
	server := &http.Server{Addr: addr, Handler: handler, ReadHeaderTimeout: 10 * time.Second}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1) // the one send must not block if the signal won
	go func() { errc <- server.ListenAndServe() }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := server.Shutdown(shutCtx); err != nil {
		return err
	}
	if onShutdown == nil {
		return nil
	}
	return onShutdown()
}
