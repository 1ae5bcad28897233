// Command waldo-gateway runs the cluster routing tier: it terminates the
// WSD client API, answers place queries and followed model requests from
// its replicas of the shards' grids and descriptors, and proxies every
// other request to the shard that owns its geo-cell on the
// consistent-hash ring. A shard fails over to its replica endpoints when
// a leg or the parked poll of a replica follower finds the active one
// dead; no separate health prober runs.
//
// Usage:
//
//	waldo-server -addr :9101 -data-dir /var/waldo/s0 -shard-id s0 &
//	waldo-server -addr :9102 -data-dir /var/waldo/s1 -shard-id s1 &
//	waldo-gateway -addr :9100 -shards 's0=http://localhost:9101;s1=http://localhost:9102'
//
// Each -shards entry is id=url[,url...]: the first URL is the primary,
// later URLs are replicas in failover order. Every gateway for a cluster
// must be started with the same -shards IDs, or they will disagree about
// ownership; the /healthz cluster_version field exists to catch exactly
// that drift. (The ring's seed and virtual nodes are the defaults of
// cluster.RingConfig, and the geo-cell quantum is a build constant,
// geoindex.DefaultCellDeg, shared with every shard's grid.)
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"github.com/wsdetect/waldo/internal/adminhttp"
	"github.com/wsdetect/waldo/internal/cluster"
	"github.com/wsdetect/waldo/internal/telemetry"
	"github.com/wsdetect/waldo/internal/wlog"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "waldo-gateway:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("waldo-gateway", flag.ContinueOnError)
	addr := fs.String("addr", ":9100", "listen address")
	shardsFlag := fs.String("shards", "", "topology: 'id=url[,url...];id2=...' (primary URL first, required)")
	logLevel := fs.String("log-level", "info", "lowest structured-log level emitted: info|warn|error")
	adminAddr := fs.String("admin-addr", "", "opt-in admin listener (pprof); empty = disabled. Bind to loopback only.")
	if err := fs.Parse(args); err != nil {
		return err
	}
	lvl, err := wlog.ParseLevel(*logLevel)
	if err != nil {
		return err
	}
	shards, err := parseShards(*shardsFlag)
	if err != nil {
		return err
	}

	metrics := telemetry.New()
	gw, err := cluster.NewGateway(cluster.GatewayConfig{
		Shards:  shards,
		Metrics: metrics,
		Log:     wlog.New(wlog.Options{W: os.Stderr, Min: lvl, Metrics: metrics}),
	})
	if err != nil {
		return err
	}
	log.Printf("routing %d shards, cluster version %s, serving on %s", len(shards), gw.ConfigVersion(), *addr)
	// On SIGINT/SIGTERM: stop accepting, answer parked watches 503, drain,
	// then close the legs.
	front, err := adminhttp.Start(*addr, gw.Handler(), gw.BeginShutdown)
	if err != nil {
		gw.Close()
		return err
	}
	return adminhttp.Serve(front, *adminAddr, gw.Close)
}

// parseShards decodes 'id=url[,url...];id2=...' into ShardSpecs.
func parseShards(s string) ([]cluster.ShardSpec, error) {
	if strings.TrimSpace(s) == "" {
		return nil, fmt.Errorf("-shards is required, e.g. 's0=http://localhost:9101'")
	}
	var specs []cluster.ShardSpec
	for _, entry := range strings.Split(s, ";") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		id, urls, ok := strings.Cut(entry, "=")
		if !ok || id == "" || urls == "" {
			return nil, fmt.Errorf("bad -shards entry %q, want id=url[,url...]", entry)
		}
		spec := cluster.ShardSpec{ID: strings.TrimSpace(id)}
		for _, u := range strings.Split(urls, ",") {
			u = strings.TrimRight(strings.TrimSpace(u), "/")
			if u == "" {
				continue
			}
			spec.URLs = append(spec.URLs, u)
		}
		if len(spec.URLs) == 0 {
			return nil, fmt.Errorf("shard %q has no URLs", spec.ID)
		}
		specs = append(specs, spec)
	}
	return specs, nil
}
