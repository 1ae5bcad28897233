package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/wsdetect/waldo/internal/dbserver"
	"github.com/wsdetect/waldo/internal/telemetry"
	"github.com/wsdetect/waldo/internal/wlog"
)

// NodeConfig configures one shard process.
type NodeConfig struct {
	// ID names the shard (matches the gateway's ShardSpec.ID) and, on a
	// replica, the follower its primary knows it as. Routing never
	// depends on it at the node.
	ID string

	// DB is the embedded spectrum DB configuration, passed to
	// dbserver.Open unchanged except for the replication tap. Set DataDir
	// there for WAL durability exactly as on a standalone server.
	DB dbserver.Config

	// Follow is the base URL of this node's primary, which makes it a
	// replica: it pulls the primary's journal from the moment it opens
	// empty until its first direct write. Empty means a primary.
	Follow string
}

// Node is one shard: the full dbserver API plus the replication surface
// (/v1/repl/journal, which its followers pull, and /v1/repl/status for
// operators) and, on a replica, a follower of its primary's journal.
type Node struct {
	cfg  NodeConfig
	DB   *dbserver.Server
	repl *Replicator

	// applyMu serializes applies with status reads. applied is the
	// contiguous mark of the followed stream, follows its incarnation (0
	// until the node, while empty, adopts the first it is answered with).
	applyMu      sync.Mutex
	applied      uint64
	follows      uint64
	appliedTotal *telemetry.Counter

	// follower pulls the primary's journal (nil when none was started).
	follower *follower
	errs     *telemetry.Counter
	resync   *telemetry.Gauge

	lg        *wlog.Logger
	closeOnce sync.Once
	handler   http.Handler
}

// OpenNode opens the embedded DB (recovering from its data dir like
// dbserver.Open) and, with NodeConfig.Follow, starts following the
// primary — unless it recovered data, which no stream accounts for.
func OpenNode(cfg NodeConfig) (*Node, error) {
	if cfg.DB.Metrics == nil {
		cfg.DB.Metrics = telemetry.New()
	}
	if cfg.DB.Tap != nil {
		return nil, fmt.Errorf("cluster: NodeConfig.DB.Tap is owned by the node's journal")
	}
	if u, err := url.Parse(cfg.Follow); cfg.Follow != "" && (err != nil || u.Host == "") {
		return nil, fmt.Errorf("cluster: follow %q is not a base URL with a host", cfg.Follow)
	}
	m := cfg.DB.Metrics
	n := &Node{cfg: cfg, lg: cfg.DB.Log.Named("cluster"),
		repl: &Replicator{incarnation: newIncarnation(), now: time.Now, followers: make(map[string]*followerState)}}
	n.appliedTotal = m.Counter("waldo_cluster_replication_applied_total",
		"Replicated journal records applied by this node (replica role).")
	cfg.DB.Tap = n.repl
	db, err := dbserver.Open(cfg.DB)
	if err != nil {
		return nil, err
	}
	n.DB, n.repl.db = db, db

	dbh := db.Handler()
	mux := http.NewServeMux()
	mux.Handle("GET /v1/repl/journal", m.WrapRouteFunc("/v1/repl/journal", n.repl.handleJournal))
	mux.HandleFunc("GET /v1/repl/status", n.handleStatus)
	// A direct mutation promotes the node: its follower stops first, so
	// no frame of the old primary's lands after it. The dbserver names
	// its mutation routes, so a new upload edge promotes here too.
	for _, pattern := range dbserver.MutationPatterns() {
		mux.Handle(pattern, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			n.stopFollowing()
			dbh.ServeHTTP(w, r)
		}))
	}
	mux.Handle("/", dbh)
	n.handler = mux

	if cfg.Follow != "" {
		n.errs = m.Counter("waldo_cluster_replication_errors_total",
			"Failed polls of the primary's journal (retried after a backoff: 50 ms, doubling up to 10 s).")
		n.resync = m.Gauge("waldo_cluster_replication_resync_needed",
			"1 when this replica stopped following its primary (another incarnation, a gap, a truncated backlog, or recovered data) and must be rebuilt empty.")
		if db.HasData() {
			n.fence(context.Background(), reasonResync, "the node recovered data no primary's stream accounts for")
		} else {
			n.follower = n.pull()
		}
	}
	return n, nil
}

// Handler serves the shard's full HTTP surface.
func (n *Node) Handler() http.Handler { return n.handler }

// Drain blocks until every live follower of this node has polled past
// the top of its journal, or until ctx expires.
func (n *Node) Drain(ctx context.Context) error {
	for lag := n.repl.Lag(); lag > 0; lag = n.repl.Lag() {
		if ctx.Err() != nil {
			return fmt.Errorf("cluster: drain: %w (lag %d records)", ctx.Err(), lag)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// Close stops the follower and closes the embedded DB. Safe to call more
// than once: crash harnesses kill nodes mid-run and their cleanup paths
// close everything again.
func (n *Node) Close() error {
	var err error
	n.closeOnce.Do(func() {
		n.stopFollowing()
		err = n.DB.Close()
	})
	return err
}

// stopFollowing ends the follower, if one runs, and waits until it has
// applied its last frame.
func (n *Node) stopFollowing() {
	if n.follower != nil {
		n.follower.close()
	}
}

// following reports whether the follower runs.
func (n *Node) following() bool { return n.follower != nil && n.follower.ctx.Err() == nil }

// fence marks the node out of its primary's stream for good: rebuild it.
func (n *Node) fence(ctx context.Context, reason, detail string) {
	n.resync.Set(1)
	n.lg.Error(ctx, "replica_fenced", "primary", n.cfg.Follow, "reason", reason, "err", detail)
}

// pull starts the follower of the primary's journal; it ends at Close,
// at a promotion, or when the stream is refused.
func (n *Node) pull() *follower {
	var horizon time.Duration
	return startFollower(func(ctx context.Context) syncOutcome {
		err := n.poll(ctx, &horizon)
		var ref refusal
		switch {
		case err == nil:
			return inSync
		case errors.As(err, &ref):
			n.fence(ctx, ref.reason, ref.detail)
			return stopFollowing
		case ctx.Err() != nil:
			return stopFollowing
		}
		n.errs.Inc()
		n.lg.Warn(ctx, "pull_failed", "primary", n.cfg.Follow, "err", err)
		return retryLater
	})
}

// poll long-polls the journal after the applied mark, allowed the
// primary's last stated horizon on top of legTimeout, and applies the
// answer. A 409 is a refusal.
func (n *Node) poll(ctx context.Context, horizon *time.Duration) error {
	n.applyMu.Lock()
	target := fmt.Sprintf("%s/v1/repl/journal?follower=%s&incarnation=%d&after=%d",
		n.cfg.Follow, url.QueryEscape(n.cfg.ID), n.follows, n.applied)
	n.applyMu.Unlock()
	ctx, cancel := context.WithTimeout(ctx, legTimeout+*horizon)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, target, nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if ms, err := strconv.ParseInt(resp.Header.Get(dbserver.HorizonHeader), 10, 64); err == nil && ms >= 0 {
		*horizon = time.Duration(ms) * time.Millisecond
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, applyBodyCap+1))
	switch {
	case err != nil:
		return err
	case resp.StatusCode == http.StatusNotModified:
		return nil
	case resp.StatusCode == http.StatusConflict:
		reason, detail, _ := strings.Cut(strings.TrimSpace(string(body)), ": ")
		return refusal{reason, detail}
	case resp.StatusCode != http.StatusOK:
		return fmt.Errorf("status %d", resp.StatusCode)
	case len(body) > applyBodyCap:
		return fmt.Errorf("answer over the %d-byte cap", applyBodyCap)
	}
	return n.apply(ctx, body)
}

// refusal is a stream the node must not apply: it stops following.
type refusal struct{ reason, detail string }

func (e refusal) Error() string { return e.reason + ": " + e.detail }

// apply folds one answer, an exchange, into the stores, traced as
// repl/pull. An empty node adopts the answer's incarnation; from then on
// any other is refused. Frames at or below the applied mark are skipped
// (a re-sent answer is idempotent), a gap above it is refused. It stops
// between frames once ctx ends.
func (n *Node) apply(ctx context.Context, body []byte) error {
	incarnation, body, err := decodeExchangeHeader(body)
	if err != nil {
		return err
	}
	n.applyMu.Lock()
	defer n.applyMu.Unlock()
	switch {
	case n.follows == 0 && n.DB.HasData():
		return refusal{reasonResync, "the node holds data it did not follow; rebuild it empty to follow a primary"}
	case n.follows == 0:
		n.follows = incarnation
	case incarnation != n.follows:
		return refusal{reasonMismatch, fmt.Sprintf("following primary incarnation %016x, answered by %016x", n.follows, incarnation)}
	}
	sp := n.DB.Metrics().StartTrace("repl/pull", telemetry.SpanContext{})
	defer sp.End()
	tctx := telemetry.ContextWithSpan(context.WithoutCancel(ctx), sp)
	for len(body) > 0 && ctx.Err() == nil {
		f, rest, err := decodeFrame(body)
		if err != nil {
			return err
		}
		body = rest
		if f.seq <= n.applied {
			continue
		}
		if f.seq != n.applied+1 {
			return refusal{reasonGap, fmt.Sprintf("applied %d, answered %d", n.applied, f.seq)}
		}
		if err := n.DB.ApplyRecord(tctx, f.ch, f.kind, f.rec); err != nil {
			return err
		}
		n.applied = f.seq
		n.appliedTotal.Inc()
	}
	return nil
}

// nodeStatus is the /v1/repl/status payload.
type nodeStatus struct {
	ID          string `json:"id"`
	Incarnation uint64 `json:"incarnation"`      // own journal's, which followers adopt
	Follow      string `json:"follow,omitempty"` // the primary polled; empty while no follower runs
	Follows     uint64 `json:"follows"`          // primary incarnation adopted (0: none)
	Applied     uint64 `json:"applied"`          // frames folded in as a replica
	Lag         int    `json:"lag"`              // records own followers have yet to apply
}

func (n *Node) handleStatus(w http.ResponseWriter, r *http.Request) {
	n.applyMu.Lock()
	st := nodeStatus{ID: n.cfg.ID, Incarnation: n.repl.incarnation, Follows: n.follows, Applied: n.applied, Lag: int(n.repl.Lag())}
	n.applyMu.Unlock()
	if n.following() {
		st.Follow = n.cfg.Follow
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(st) //nolint:errcheck // client went away
}
