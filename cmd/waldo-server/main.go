// Command waldo-server runs the central Waldo spectrum database: it
// bootstraps from a readings CSV (as produced by waldo-wardrive), trains
// the White Space Detection Models, and serves the model-download and
// reading-upload API that mobile WSDs use.
//
// Usage:
//
//	waldo-wardrive -out campaign.csv
//	waldo-server -data campaign.csv -addr :8473
//
// Endpoints (see the dbserver package comment for the full API):
//
//	GET  /v1/health                      → liveness
//	GET  /healthz                        → readiness + per-store counts (JSON)
//	GET  /metrics                        → Prometheus text exposition
//	GET  /v1/model?channel=47&sensor=1   → binary model descriptor
//	POST /v1/readings                    → JSON reading upload (α′ gated)
//	POST /v1/retrain?channel=47&sensor=1 → rebuild one model
//	GET  /v1/export?channel=47&sensor=1  → trusted store as CSV
//	GET  /v1/stats                       → per-store stats (JSON)
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"strings"
	"time"

	"github.com/wsdetect/waldo/internal/adminhttp"
	"github.com/wsdetect/waldo/internal/cluster"
	"github.com/wsdetect/waldo/internal/dataset"
	"github.com/wsdetect/waldo/internal/dbserver"
	"github.com/wsdetect/waldo/internal/telemetry"
	"github.com/wsdetect/waldo/internal/wlog"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "waldo-server:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("waldo-server", flag.ContinueOnError)
	addr := fs.String("addr", ":8473", "listen address")
	data := fs.String("data", "", "bootstrap readings CSV (required unless -data-dir has recovered state)")
	dataDir := fs.String("data-dir", "", "durable store directory (WAL segments + checkpoint records); empty = in-memory only")
	snapshotEvery := fs.Int("snapshot-every", 10000, "checkpoint a store (seal its WAL segment, record its counts) after this many journaled readings (0 = only via /v1/admin/snapshot)")
	shardID := fs.String("shard-id", "", "run as a cluster shard under this ID (enables /v1/repl endpoints; see waldo-gateway)")
	follow := fs.String("follow", "", "run as a replica of the primary at this base URL, pulling its journal (requires -shard-id and an empty -data-dir)")
	logLevel := fs.String("log-level", "info", "lowest structured-log level emitted: info|warn|error")
	adminAddr := fs.String("admin-addr", "", "opt-in admin listener (pprof); empty = disabled. Bind to loopback only.")
	if err := fs.Parse(args); err != nil {
		return err
	}
	lvl, err := wlog.ParseLevel(*logLevel)
	if err != nil {
		return err
	}
	if *data == "" && *dataDir == "" && *shardID == "" {
		return fmt.Errorf("-data is required (generate one with waldo-wardrive) unless -data-dir or -shard-id is set")
	}
	switch {
	case *follow != "" && *shardID == "":
		return fmt.Errorf("-follow requires -shard-id")
	case *data != "" && *follow != "":
		return fmt.Errorf("-data cannot seed a replica: it adopts its primary's journal only while empty")
	case *data != "" && *shardID != "":
		return fmt.Errorf("-data cannot seed a shard: it would hold readings the ring places elsewhere; upload them through waldo-gateway")
	}

	var readings []dataset.Reading
	if *data != "" {
		f, err := os.Open(*data)
		if err != nil {
			return err
		}
		readings, err = dataset.ReadCSV(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("load %s: %w", *data, err)
		}
		log.Printf("loaded %d readings from %s", len(readings), *data)
	}

	metrics := telemetry.New()
	logger := wlog.New(wlog.Options{W: os.Stderr, Min: lvl, Metrics: metrics})
	dbCfg := dbserver.Config{
		Constructor:   dbserver.ShippedConstructor(),
		DataDir:       *dataDir,
		SnapshotEvery: *snapshotEvery,
		Metrics:       metrics,
		Log:           logger,
	}

	// A shard wraps the same embedded DB with the replication surface;
	// standalone mode serves the DB directly. Either way the client API
	// is identical.
	var (
		srv     *dbserver.Server
		handler http.Handler
		closer  func() error
	)
	if *shardID != "" {
		node, err := cluster.OpenNode(cluster.NodeConfig{
			ID:     *shardID,
			DB:     dbCfg,
			Follow: strings.TrimRight(*follow, "/"),
		})
		if err != nil {
			return fmt.Errorf("open shard: %w", err)
		}
		srv, handler, closer = node.DB, node.Handler(), node.Close
		log.Printf("shard %s: -follow %q", *shardID, *follow)
	} else {
		s, err := dbserver.Open(dbCfg)
		if err != nil {
			return fmt.Errorf("open store: %w", err)
		}
		srv, handler, closer = s, s.Handler(), s.Close
	}
	if len(readings) > 0 {
		start := time.Now()
		if err := srv.Bootstrap(readings); err != nil {
			closer()
			return fmt.Errorf("bootstrap: %w", err)
		}
		log.Printf("trained models in %.1fs", time.Since(start).Seconds())
	}
	log.Printf("serving on %s (metrics at /metrics, readiness at /healthz, traces at /debug/traces)", *addr)
	// On SIGINT/SIGTERM: stop accepting, answer parked watchers 503,
	// drain requests in flight, and only then flush and close the WAL, so
	// no acknowledged upload is lost to a clean shutdown.
	front, err := adminhttp.Start(*addr, handler, srv.BeginShutdown)
	if err != nil {
		closer()
		return err
	}
	return adminhttp.Serve(front, *adminAddr, closer)
}
