package cluster

import (
	"bufio"
	"context"
	"crypto/tls"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Leg transport limits. legTimeout is the budget of one gateway→shard
// exchange; the idle bounds are the ones the http.Transport this
// replaces was configured with.
const (
	legTimeout         = 10 * time.Second
	legIdlePerEndpoint = 256
	legIdleTimeout     = 90 * time.Second
	legWriteBuffer     = 16 << 10 // headers + a 64-reading frame leave in one write(2)
	legMaxHeaderBytes  = 1 << 20
)

var errLegHeaderTooLarge = errors.New("cluster: shard response header exceeds 1 MiB")

// legEndpoint keys the connection pool: one shard URL's scheme and
// host[:port].
type legEndpoint struct{ scheme, host string }

// legTransport is the http.RoundTripper for gateway→shard legs: one
// plain HTTP/1.1 exchange per RoundTrip, done synchronously on the
// calling goroutine over a pooled keep-alive connection — no per-conn
// read and write goroutines, no hand-off channels. The request context
// is the only leash: its deadline becomes the connection deadline and
// its cancellation moves that deadline into the past. Its peers are
// named in configuration, so it has no proxy, HTTP/2, redirect, gzip,
// Expect: 100-continue or environment handling (DESIGN.md §12).
type legTransport struct {
	// redialed, when set, is told each time a stale keep-alive
	// connection to an endpoint was replaced and its request replayed.
	redialed func(legEndpoint)
	tls      *tls.Config // for https endpoints; nil means the zero config

	mu     sync.Mutex
	idle   map[legEndpoint][]*legConn // least recently used first
	reaper *time.Timer                // pending idle sweep; nil when none is due
	closed bool
}

// legConn is one connection to a shard endpoint, owned by one exchange
// at a time or idle in the pool.
type legConn struct {
	net.Conn
	br *bufio.Reader
	bw *bufio.Writer

	reused    bool
	idleSince time.Time
	// Per exchange: response bytes read so far, and how many more may
	// be read before the response header counts as too large.
	nread  int64
	budget int64
}

// Read counts response bytes and enforces the header budget.
func (c *legConn) Read(p []byte) (int, error) {
	if c.budget <= 0 {
		return 0, errLegHeaderTooLarge
	}
	if int64(len(p)) > c.budget {
		p = p[:c.budget]
	}
	n, err := c.Conn.Read(p)
	c.nread += int64(n)
	c.budget -= int64(n)
	return n, err
}

// RoundTrip does one exchange. A reused connection that fails before
// the first response byte (and not by running out of time) was a stale
// keep-alive, not a dead endpoint: the request is replayed once on a
// fresh connection. That can apply an upload twice when the shard died
// after applying it — the same at-least-once the gateway's endpoint
// failover already gives (re-applied readings are duplicates, never
// losses).
func (t *legTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if err := checkLegRequest(req); err != nil {
		if req.Body != nil {
			req.Body.Close()
		}
		return nil, err
	}
	ctx := req.Context()
	ep := legEndpoint{req.URL.Scheme, req.URL.Host}
	c := t.takeIdle(ep)
	for {
		if c == nil { // nothing idle, or replaying: a fresh conn is never retried
			var err error
			if c, err = t.dial(ctx, req); err != nil {
				if req.Body != nil {
					req.Body.Close()
				}
				return nil, err
			}
		}
		resp, err := t.exchange(ctx, ep, c, req)
		stale := err != nil && c.reused && c.nread == 0 && ctx.Err() == nil && !isTimeout(err)
		if !stale || (req.GetBody == nil && req.Body != nil && req.Body != http.NoBody) {
			return resp, err
		}
		replay := *req
		if req.GetBody != nil {
			if replay.Body, err = req.GetBody(); err != nil {
				return nil, err
			}
		}
		if t.redialed != nil {
			t.redialed(ep)
		}
		req, c = &replay, nil
	}
}

func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// dial opens a connection to req's endpoint, through TLS for https.
func (t *legTransport) dial(ctx context.Context, req *http.Request) (*legConn, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	d := &net.Dialer{Timeout: legTimeout}
	var conn net.Conn
	var err error
	switch req.URL.Scheme {
	case "http":
		conn, err = d.DialContext(ctx, "tcp", hostPort(req, "80"))
	case "https":
		conn, err = (&tls.Dialer{NetDialer: d, Config: t.tls}).DialContext(ctx, "tcp", hostPort(req, "443"))
	default:
		err = fmt.Errorf("cluster: unsupported shard URL scheme %q", req.URL.Scheme)
	}
	if err != nil {
		return nil, err
	}
	c := &legConn{Conn: conn}
	c.br = bufio.NewReader(c)
	c.bw = bufio.NewWriterSize(conn, legWriteBuffer)
	return c, nil
}

func hostPort(req *http.Request, defaultPort string) string {
	if req.URL.Port() != "" {
		return req.URL.Host
	}
	return net.JoinHostPort(req.URL.Hostname(), defaultPort)
}

// exchange writes req on c and reads the response head. On success c
// is settled by release — at once for a bodiless response, else when
// the returned body is read to EOF or closed. On error c is closed.
func (t *legTransport) exchange(ctx context.Context, ep legEndpoint, c *legConn, req *http.Request) (*http.Response, error) {
	deadline, _ := ctx.Deadline() // the zero time clears a reused conn's old deadline
	c.SetDeadline(deadline)       //nolint:errcheck // a dead conn fails the write below
	c.nread, c.budget = 0, legMaxHeaderBytes
	stop := context.AfterFunc(ctx, func() {
		c.SetDeadline(time.Unix(1, 0)) //nolint:errcheck // unblocks the exchange, which closes c
	})
	fail := func(err error) (*http.Response, error) {
		stop()
		c.Close()
		if cerr := ctx.Err(); cerr != nil {
			err = cerr
		}
		return nil, err
	}

	werr := writeLegRequest(c.bw, req)
	if werr == nil {
		werr = c.bw.Flush()
	}
	// Even after a failed write, look for a response: a peer refusing a
	// large body answers (413) and closes before it has read it all.
	resp, err := http.ReadResponse(c.br, req)
	if err != nil {
		if werr != nil {
			err = werr
		}
		return fail(err)
	}
	if resp.StatusCode < 200 {
		return fail(fmt.Errorf("cluster: unsolicited %s from shard", resp.Status))
	}
	c.budget = math.MaxInt64
	reusable := werr == nil && !req.Close && !resp.Close && resp.ProtoAtLeast(1, 1)
	if resp.Body == http.NoBody {
		t.release(ep, c, stop, reusable)
	} else {
		resp.Body = &legBody{t: t, ep: ep, c: c, stop: stop, ctx: ctx, rc: resp.Body, reusable: reusable}
	}
	return resp, nil
}

// checkLegRequest refuses what net/http refuses to send — a method or
// header name that is not a token, a control byte (CR, LF, NUL…) in the
// request target or in a header value (tab aside) — and a body of
// unknown length or missing, which a leg never has. An escaped path
// holds no control byte; the rest of the target may.
func checkLegRequest(req *http.Request) error {
	ok := req.ContentLength == 0 || req.ContentLength > 0 && req.Body != nil
	ok = ok && (req.Method == "" || isToken(req.Method))
	for _, s := range [...]string{req.URL.Opaque, req.URL.RawQuery, req.Host, req.URL.Host} {
		ok = ok && !hasCTL(s, false)
	}
	for k, vs := range req.Header {
		ok = ok && isToken(k) && !slices.ContainsFunc(vs, func(v string) bool { return hasCTL(v, true) })
	}
	if !ok {
		return fmt.Errorf("cluster: leg request %q %q is not sendable (bad method, header or target, or a body of unknown length)", req.Method, req.URL)
	}
	return nil
}

// writeLegRequest writes a request checkLegRequest accepted, as HTTP/1.1
// with a body of known length: the request line, Host, req's headers,
// exactly one Content-Length, then ContentLength bytes of the body —
// never Transfer-Encoding. The body is closed, as Request.Write closes
// it.
func writeLegRequest(bw *bufio.Writer, req *http.Request) error {
	if req.Body != nil {
		defer req.Body.Close()
	}
	method, host := req.Method, req.Host
	if method == "" {
		method = http.MethodGet
	}
	if host == "" {
		host = req.URL.Host
	}
	bw.WriteString(method)
	bw.WriteByte(' ')
	bw.WriteString(req.URL.RequestURI())
	bw.WriteString(" HTTP/1.1\r\nHost: ")
	bw.WriteString(host)
	for k, vs := range req.Header {
		if k == "Host" || k == "Content-Length" || k == "Transfer-Encoding" {
			continue // written from req's own fields, or never
		}
		for _, v := range vs {
			bw.WriteString("\r\n")
			bw.WriteString(k)
			bw.WriteString(": ")
			bw.WriteString(v)
		}
	}
	bw.WriteString("\r\nContent-Length: ")
	bw.Write(strconv.AppendInt(bw.AvailableBuffer(), req.ContentLength, 10)) //nolint:errcheck // sticky: the next write reports it
	if _, err := bw.WriteString("\r\n\r\n"); err != nil || req.ContentLength == 0 {
		return err
	}
	_, err := io.CopyN(bw, req.Body, req.ContentLength)
	return err
}

// isToken reports whether s is a non-empty RFC 9110 token, what an HTTP
// method and a header name must be.
func isToken(s string) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; !('a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9' || strings.IndexByte("!#$%&'*+-.^_`|~", c) >= 0) {
			return false
		}
	}
	return s != ""
}

// hasCTL reports whether s holds a control byte, a tab only if !tabOK.
func hasCTL(s string, tabOK bool) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' && !(tabOK && c == '\t') || c == 0x7f {
			return true
		}
	}
	return false
}

// release ends an exchange. The connection is pooled only if the
// exchange allows reuse, nothing unsolicited follows the response, and
// the context hook was removed before it could touch the deadline.
func (t *legTransport) release(ep legEndpoint, c *legConn, stop func() bool, reusable bool) {
	if stop() && reusable && c.br.Buffered() == 0 {
		t.putIdle(ep, c)
		return
	}
	c.Close()
}

// legBody is a response body that settles its connection: reusable
// once read to EOF, closed on a read error or an early Close.
type legBody struct {
	t        *legTransport
	ep       legEndpoint
	c        *legConn
	stop     func() bool
	ctx      context.Context
	rc       io.ReadCloser
	reusable bool
	err      error // set once the connection is settled
}

func (b *legBody) Read(p []byte) (int, error) {
	if b.err != nil {
		return 0, b.err
	}
	n, err := b.rc.Read(p)
	if err != nil {
		if cerr := b.ctx.Err(); cerr != nil && err != io.EOF {
			err = cerr
		}
		b.err = err
		b.t.release(b.ep, b.c, b.stop, b.reusable && err == io.EOF)
	}
	return n, err
}

func (b *legBody) Close() error {
	if b.err == nil {
		b.err = http.ErrBodyReadAfterClose
		b.t.release(b.ep, b.c, b.stop, false)
	}
	return nil
}

// takeIdle pops the most recently used idle connection to ep.
func (t *legTransport) takeIdle(ep legEndpoint) *legConn {
	t.mu.Lock()
	defer t.mu.Unlock()
	conns := t.idle[ep]
	if len(conns) == 0 {
		return nil
	}
	c := conns[len(conns)-1]
	t.idle[ep] = conns[:len(conns)-1]
	c.reused = true
	return c
}

// putIdle parks c for reuse, or closes it when the transport is closed
// or the endpoint's pool is full.
func (t *legTransport) putIdle(ep legEndpoint, c *legConn) {
	t.mu.Lock()
	if t.closed || len(t.idle[ep]) >= legIdlePerEndpoint {
		t.mu.Unlock()
		c.Close()
		return
	}
	if t.idle == nil {
		t.idle = make(map[legEndpoint][]*legConn)
	}
	c.idleSince = time.Now()
	t.idle[ep] = append(t.idle[ep], c)
	if t.reaper == nil {
		t.reaper = time.AfterFunc(legIdleTimeout, t.reap)
	}
	t.mu.Unlock()
}

// reap closes connections idle for legIdleTimeout and re-arms itself
// for the oldest one left.
func (t *legTransport) reap() {
	now := time.Now()
	var expired []*legConn
	var oldest time.Time
	t.mu.Lock()
	t.reaper = nil
	for ep, conns := range t.idle {
		n := 0
		for n < len(conns) && now.Sub(conns[n].idleSince) >= legIdleTimeout {
			n++
		}
		expired = append(expired, conns[:n]...)
		conns = slices.Delete(conns, 0, n)
		t.idle[ep] = conns
		if len(conns) > 0 && (oldest.IsZero() || conns[0].idleSince.Before(oldest)) {
			oldest = conns[0].idleSince
		}
	}
	if !oldest.IsZero() {
		t.reaper = time.AfterFunc(legIdleTimeout-now.Sub(oldest), t.reap)
	}
	t.mu.Unlock()
	for _, c := range expired {
		c.Close()
	}
}

// Close closes every idle connection; one still in an exchange is
// closed when that exchange ends.
func (t *legTransport) Close() {
	t.mu.Lock()
	t.closed = true
	idle := t.idle
	t.idle = nil
	if t.reaper != nil {
		t.reaper.Stop()
		t.reaper = nil
	}
	t.mu.Unlock()
	for _, conns := range idle {
		for _, c := range conns {
			c.Close()
		}
	}
}
