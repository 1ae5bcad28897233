package e2e

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"github.com/wsdetect/waldo/internal/adminhttp"
	"github.com/wsdetect/waldo/internal/client"
	"github.com/wsdetect/waldo/internal/cluster"
	"github.com/wsdetect/waldo/internal/dataset"
	"github.com/wsdetect/waldo/internal/dbserver"
	"github.com/wsdetect/waldo/internal/faultinject"
	"github.com/wsdetect/waldo/internal/rfenv"
	"github.com/wsdetect/waldo/internal/sensor"
)

// maxWall bounds a whole run: a fault schedule that never clears fails
// the run at this deadline instead of hanging.
const maxWall = 2 * time.Minute

// stack is the processes one run boots, each on the serving loop the
// binaries listen with. stop takes them down in reverse boot order: a
// gateway before its shards, a replica before its primary.
type stack []*proc

// proc is one incarnation of a booted process: a store (db, h and dir
// set; node too for a shard node) or a gateway.
type proc struct {
	ts    *adminhttp.Server
	close func() error // what the binary closes after the drain
	db    *dbserver.Server
	node  *cluster.Node
	h     http.Handler // the store's own handler, under any fault middleware
	dir   string
}

// serve puts h on a loopback listener whose Close runs wake, for p.
func (s *stack) serve(p *proc, h http.Handler, wake func()) (err error) {
	if p.ts, err = adminhttp.Start("127.0.0.1:0", h, wake); err != nil {
		p.close()
		return err
	}
	*s = append(*s, p)
	return nil
}

// store boots a store as waldo-server does: a shard node when cfg.ID is
// set, else a bare server on cfg.DB, with mw (nil: none) in front.
func (s *stack) store(cfg cluster.NodeConfig, mw *faultinject.Middleware) (*proc, error) {
	p := &proc{dir: cfg.DB.DataDir}
	var err error
	if cfg.ID != "" {
		if p.node, err = cluster.OpenNode(cfg); err == nil {
			p.db, p.h, p.close = p.node.DB, p.node.Handler(), p.node.Close
		}
	} else if p.db, err = dbserver.Open(cfg.DB); err == nil {
		p.h, p.close = p.db.Handler(), p.db.Close
	}
	if err != nil {
		return nil, err
	}
	front := p.h
	if mw != nil {
		front = mw.Wrap(p.h)
	}
	return p, s.serve(p, front, p.db.BeginShutdown)
}

// stop takes every process down. A killed one is stopped again, which
// is a no-op: every Close it calls is idempotent.
func (s *stack) stop() {
	for i := len(*s) - 1; i >= 0; i-- {
		(*s)[i].stop()
	}
}

// stop takes p down as SIGTERM takes the binary down — the listener
// closes, parked polls are woken, requests in flight drain — then closes
// what it served, which ends its goroutines.
func (p *proc) stop() {
	p.ts.Close()
	p.close()
}

// kill ends a store as a crash does. The WAL is flushed first: the
// durability point, where everything acknowledged is on disk. Then p
// stops, and kill fails if that changed a byte of its data dir.
func (p *proc) kill() error {
	if err := p.db.FlushWAL(); err != nil {
		return err
	}
	before, err := hashDir(p.dir)
	p.stop()
	after, err2 := hashDir(p.dir)
	if err = errors.Join(err, err2); err == nil && after != before {
		err = fmt.Errorf("e2e: the killed store wrote to %s after its durability point", p.dir)
	}
	return err
}

// hashDir digests the tree under dir: every path and every file's bytes.
func hashDir(dir string) (sum [sha256.Size]byte, err error) {
	h := sha256.New()
	err = filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		fmt.Fprintf(h, "%s\x00", path)
		if err != nil || d.IsDir() {
			return err
		}
		b, err := os.ReadFile(path)
		fmt.Fprintf(h, "%d\x00%s", len(b), b)
		return err
	})
	h.Sum(sum[:0])
	return sum, err
}

// export renders one store's CSV through the store's own handler, off
// any faulted wire: a corrupt fault on an export response would mangle
// the CSV without signaling an error. It is nil when p has no such store.
func (p *proc) export(ch rfenv.Channel) ([]byte, error) {
	rec := httptest.NewRecorder()
	p.h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet,
		fmt.Sprintf("/v1/export?channel=%d&sensor=%d", int(ch), int(sensor.KindRTLSDR)), nil))
	switch rec.Code {
	case http.StatusOK:
		return rec.Body.Bytes(), nil
	case http.StatusNotFound:
		return nil, nil
	}
	return nil, fmt.Errorf("e2e: export ch%d: %d %s", int(ch), rec.Code, rec.Body.String())
}

// seqs returns the sequence numbers of the readings p holds on channels.
func (p *proc) seqs(channels []rfenv.Channel) (map[int]bool, error) {
	have := map[int]bool{}
	for _, ch := range channels {
		csv, err := p.export(ch)
		if err != nil {
			return nil, err
		}
		if csv == nil {
			continue // p never saw the channel
		}
		rs, err := dataset.ReadCSV(bytes.NewReader(csv))
		if err != nil {
			return nil, err
		}
		for _, r := range rs {
			have[r.Seq] = true
		}
	}
	return have, nil
}

// connect makes the WSD client a run drives, with plan's faults (nil:
// none, and a nil tr) on its wire to url. Its resilience parameters are
// fast and chaos-friendly, so fault-heavy runs stay quick: a 250 ms
// attempt timeout, 1–10 ms backoff jittered from seed, and a 25 ms
// breaker cooldown.
func connect(url string, seed int64, plan faultinject.Plan) (cl *client.Client, tr *faultinject.Transport, err error) {
	cfg := client.Config{
		Timeout: 250 * time.Millisecond,
		Retry:   client.RetryPolicy{BaseDelay: time.Millisecond, MaxDelay: 10 * time.Millisecond, Seed: uint64(seed)},
		Breaker: client.BreakerPolicy{Cooldown: 25 * time.Millisecond},
	}
	if plan != nil {
		tr = &faultinject.Transport{Plan: plan}
		cfg.HTTPClient = &http.Client{Transport: tr}
	}
	cl, err = client.NewWithConfig(url, cfg)
	return cl, tr, err
}
