package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"github.com/wsdetect/waldo/internal/core"
	"github.com/wsdetect/waldo/internal/dbserver"
	"github.com/wsdetect/waldo/internal/rfenv"
	"github.com/wsdetect/waldo/internal/sensor"
	"github.com/wsdetect/waldo/internal/telemetry"
	"github.com/wsdetect/waldo/internal/wlog"
)

// NodeConfig configures one shard process.
type NodeConfig struct {
	// ID names the shard (matches the gateway's ShardSpec.ID). Used in
	// status output only; routing never depends on it at the node.
	ID string

	// DB is the embedded spectrum DB configuration, passed to
	// dbserver.Open unchanged except for the replication tap. Set DataDir
	// there for WAL durability exactly as on a standalone server.
	DB dbserver.Config

	// ReplicaURLs lists this node's replicas (base URLs). Empty means the
	// node is a replica itself, or an unreplicated primary: either way no
	// shipper runs.
	ReplicaURLs []string

	// ShipInterval is the replication shipping tick. 0 means 3ms — small
	// enough that steady-state lag is a handful of batches.
	ShipInterval time.Duration
}

// seedChunkReadings bounds one snapshot-seeded append frame, keeping any
// single replication exchange comfortably under the apply body cap.
const seedChunkReadings = 4096

// Node is one shard: the full dbserver API plus the replication surface
// (/v1/repl/apply for its primary's stream, /v1/repl/status for
// operators) and, when it has replicas, a background log shipper.
type Node struct {
	cfg  NodeConfig
	DB   *dbserver.Server
	repl *Replicator // nil when no replicas

	// applyMu serializes replicated-frame application. applied is the
	// contiguous high-water mark of the primary's sequence numbers;
	// follows is the primary incarnation those sequences belong to (0
	// until the node, while still empty, adopts the first stream it
	// sees). recoveredData notes that the node opened with pre-existing
	// store state — such a node can never adopt a stream, because its
	// position in any primary's journal is unknowable.
	applyMu       sync.Mutex
	applied       uint64
	follows       uint64
	recoveredData bool
	appliedTotal  *telemetry.Counter

	// promoted latches once the node accepts a direct client write
	// (gateway failover made it the de-facto primary). Promotion is
	// one-way: a promoted node refuses /v1/repl/apply, so a not-quite-dead
	// old primary resuming its shipping cannot silently interleave with
	// the direct writes and fork the store history.
	promoted atomic.Bool

	lg        *wlog.Logger
	closeOnce sync.Once
	handler   http.Handler
}

// OpenNode opens the embedded DB (recovering from its data dir like
// dbserver.Open) and starts the replication shipper if replicas are
// configured. A primary that recovered pre-existing state seeds its
// journal with a full store snapshot before shipping, so an empty
// replica adopting the new incarnation is rebuilt from scratch rather
// than silently missing the recovered prefix.
func OpenNode(cfg NodeConfig) (*Node, error) {
	if cfg.ShipInterval <= 0 {
		cfg.ShipInterval = 3 * time.Millisecond
	}
	if cfg.DB.Metrics == nil {
		cfg.DB.Metrics = telemetry.New()
	}
	n := &Node{cfg: cfg, lg: cfg.DB.Log.Named("cluster")}
	n.appliedTotal = cfg.DB.Metrics.Counter("waldo_cluster_replication_applied_total",
		"Replicated journal records applied by this node (replica role).")
	if len(cfg.ReplicaURLs) > 0 {
		n.repl = newReplicator(newIncarnation(), cfg.ReplicaURLs, cfg.ShipInterval, cfg.DB.Metrics, cfg.DB.Log)
		if cfg.DB.Tap != nil {
			return nil, fmt.Errorf("cluster: NodeConfig.DB.Tap is owned by the replicator")
		}
		cfg.DB.Tap = n.repl
	}
	db, err := dbserver.Open(cfg.DB)
	if err != nil {
		return nil, err
	}
	n.DB = db
	n.recoveredData = db.HasData()
	if n.repl != nil {
		if n.recoveredData {
			// Recovered state is not replayed through the tap (it happened
			// before this process's journal existed), so ship it explicitly:
			// full reading corpus plus a retrain marker at the recovered
			// version. Rebuilds are deterministic, so an empty replica
			// applying this seed converges to byte-identical descriptors —
			// this is also the full-resync path after a replica rebuild.
			db.SnapshotStores(func(ch rfenv.Channel, kind sensor.Kind, view core.ReadingView, version, trained int) {
				for _, rs := range view.Chunks() {
					for start := 0; start < len(rs); start += seedChunkReadings {
						n.repl.TapReadings(context.Background(), ch, kind, rs[start:min(start+seedChunkReadings, len(rs))])
					}
				}
				if version > 0 {
					n.repl.TapRetrain(context.Background(), ch, kind, version, trained)
				}
			})
		}
		n.repl.start()
	}

	dbh := db.Handler()
	mux := http.NewServeMux()
	// The apply route runs through the telemetry middleware so each
	// shipped exchange's X-Waldo-Trace joins the primary's repl/ship
	// trace — the replica's apply and WAL-append spans land in its own
	// flight recorder under the same trace ID.
	mux.Handle("POST /v1/repl/apply", cfg.DB.Metrics.WrapRouteFunc("/v1/repl/apply", n.handleApply))
	mux.HandleFunc("GET /v1/repl/status", n.handleStatus)
	// Direct mutations promote the node (see Node.promoted). The dbserver
	// names its own mutation routes, so an upload edge added there is
	// fenced here without anyone remembering to. Reads pass through
	// untouched.
	for _, pattern := range dbserver.MutationPatterns() {
		mux.Handle(pattern, n.promoteOnSuccess(dbh))
	}
	mux.Handle("/", dbh)
	n.handler = mux
	return n, nil
}

// Handler serves the shard's full HTTP surface.
func (n *Node) Handler() http.Handler { return n.handler }

// ReplicationLag returns the worst-case number of journal records not
// yet confirmed by a replica (0 when the node ships nothing).
func (n *Node) ReplicationLag() int {
	if n.repl == nil {
		return 0
	}
	return int(n.repl.Lag())
}

// Drain blocks until all replicas have confirmed the full journal.
func (n *Node) Drain(ctx context.Context) error {
	if n.repl == nil {
		return nil
	}
	return n.repl.Drain(ctx)
}

// Close stops the shipper (unshipped tail stays in the primary's WAL —
// see DESIGN.md §12 on the failover model) and closes the embedded DB.
// Safe to call more than once: crash harnesses kill nodes mid-run and
// their cleanup paths close everything again.
func (n *Node) Close() error {
	var err error
	n.closeOnce.Do(func() {
		if n.repl != nil {
			n.repl.stop()
		}
		err = n.DB.Close()
	})
	return err
}

// promoteOnSuccess wraps a direct mutation route: a 2xx outcome latches
// the promotion fence (writes are now forking from any primary's
// journal, so replication must stop).
func (n *Node) promoteOnSuccess(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := &telemetry.StatusRecorder{ResponseWriter: w}
		next.ServeHTTP(rec, r)
		if rec.Status()/100 == 2 {
			n.promoted.Store(true)
		}
	})
}

// handleApply folds a batch of replication frames from this node's
// primary into the local stores. The exchange must carry the incarnation
// this node follows: a node adopts the first incarnation it sees while
// still empty; any other incarnation — a restarted primary, a node that
// recovered data on its own, a promoted replica — is refused with 409
// and a machine-readable reason, never misread as retry idempotency.
// Within the followed stream, frames at or below the applied mark are
// skipped (retries are idempotent) and a gap above it is refused with
// 409 plus the mark so the primary can re-ship.
func (n *Node) handleApply(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 64<<20))
	if err != nil {
		status := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			status = http.StatusRequestEntityTooLarge
		}
		http.Error(w, "read body: "+err.Error(), status)
		return
	}
	incarnation, body, err := decodeExchangeHeader(body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	n.applyMu.Lock()
	defer n.applyMu.Unlock()
	status := http.StatusOK
	var reason, applyErr string
	switch {
	case n.promoted.Load():
		status, reason = http.StatusConflict, reasonPromoted
		applyErr = "node accepted direct writes (promoted); replication refused"
	case n.follows == 0 && n.recoveredData:
		status, reason = http.StatusConflict, reasonResync
		applyErr = "node recovered existing data without a replication session; rebuild it empty to follow a primary"
	case n.follows != 0 && incarnation != n.follows:
		status, reason = http.StatusConflict, reasonMismatch
		applyErr = fmt.Sprintf("following primary incarnation %016x, got %016x", n.follows, incarnation)
	default:
		if n.follows == 0 {
			n.follows = incarnation // empty node: adopt this stream
		}
		for len(body) > 0 {
			seq, rec, rest, err := decodeFrame(body)
			if err != nil {
				status, applyErr = http.StatusBadRequest, err.Error()
				break
			}
			body = rest
			if seq <= n.applied {
				continue
			}
			if seq != n.applied+1 {
				status, reason = http.StatusConflict, reasonGap
				applyErr = fmt.Sprintf("sequence gap: applied %d, got %d", n.applied, seq)
				break
			}
			switch rec.kind {
			case frameAppend:
				err = n.DB.ApplyReplicatedReadings(r.Context(), rec.ch, rec.sensor, rec.readings)
			case frameRetrain:
				err = n.DB.ApplyReplicatedRetrain(r.Context(), rec.ch, rec.sensor, rec.version, rec.trained)
			}
			if err != nil {
				status, applyErr = http.StatusInternalServerError, err.Error()
				break
			}
			n.applied = seq
			n.appliedTotal.Inc()
		}
	}
	w.Header().Set("Content-Type", "application/json")
	if status != http.StatusOK {
		n.lg.Warn(r.Context(), "repl_apply_refused",
			"reason", reason, "err", applyErr, "applied", n.applied)
		w.Header().Set("X-Waldo-Repl-Error", applyErr)
		w.WriteHeader(status)
	}
	json.NewEncoder(w).Encode(applyStatus{ //nolint:errcheck // client went away
		Applied:     n.applied,
		Incarnation: n.follows,
		Reason:      reason,
	})
}

// nodeStatus is the /v1/repl/status payload.
type nodeStatus struct {
	ID       string `json:"id"`
	Applied  uint64 `json:"applied"`         // frames folded in as a replica
	Follows  uint64 `json:"follows"`         // primary incarnation followed (0: none)
	Ships    uint64 `json:"ships,omitempty"` // own incarnation, when shipping to replicas
	Promoted bool   `json:"promoted"`        // accepted direct writes; refuses replication
	Lag      int    `json:"lag"`             // records unconfirmed by own replicas
}

func (n *Node) handleStatus(w http.ResponseWriter, r *http.Request) {
	n.applyMu.Lock()
	applied, follows := n.applied, n.follows
	n.applyMu.Unlock()
	st := nodeStatus{
		ID:       n.cfg.ID,
		Applied:  applied,
		Follows:  follows,
		Promoted: n.promoted.Load(),
		Lag:      n.ReplicationLag(),
	}
	if n.repl != nil {
		st.Ships = n.repl.incarnation
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(st) //nolint:errcheck // client went away
}
