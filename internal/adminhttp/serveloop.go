package adminhttp

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"net"
	"net/http"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Serving-loop limits: the ones net/http's server applied on these
// listeners before the loop replaced it.
const (
	defaultHeaderTimeout = 10 * time.Second                  // first byte of a request to the end of its head
	maxHeadBytes         = http.DefaultMaxHeaderBytes + 4096 // request line + headers, with net/http's slack
	readBufferSize       = 32 << 10                          // a 4.3 KB upload frame arrives in one read(2)
	writeBufferSize      = 4 << 10
	bodyBufferSize       = 2 << 10                // a response this small gets a Content-Length, a larger one is chunked
	maxDrainBytes        = 256 << 10              // of unread request body read off to keep the connection
	lingerDelay          = 500 * time.Millisecond // FIN to close after refusing bytes still in flight, so the reply outruns the RST
	shutdownGrace        = 10 * time.Second
)

var (
	errHeadTooLarge = errors.New("adminhttp: request head exceeds 1 MiB")
	aLongTimeAgo    = time.Unix(1, 0)
)

// Server is the serving loop of waldo-server and waldo-gateway on one
// listener: one goroutine per connection that reads a request with
// http.ReadRequest — so the request line, headers, body framing and
// every smuggling defence are the standard library's — runs the
// handler on that same goroutine, writes the response through one
// buffered write and reads the next request. The one rule: no second
// goroutine unless a handler asks for cancellation. The request
// context starts the connection hang-up watcher the first time Done or
// Err is called on it (context.WithTimeout, WithCancel and AfterFunc
// derived from it do; context.WithValue does not), where net/http
// starts one on every request. It serves plain HTTP/1.x only: no TLS,
// HTTP/2, Hijack, trailers, ConnState or http.ServerContextKey, and a
// handler's own Connection or Transfer-Encoding response header is
// replaced by the loop's (DESIGN.md §8 "Serving loop").
type Server struct {
	// URL is the listener's base URL, "http://host:port".
	URL string

	handler       http.Handler
	wake          func() // makes parked long-polls answer; nil: nothing to wake
	ln            net.Listener
	headerTimeout time.Duration
	accepting     chan error // the accept loop's error, if it ends before shutdown
	draining      atomic.Bool

	mu    sync.Mutex
	conns map[*conn]struct{}
	wg    sync.WaitGroup // connection goroutines and their watchers

	// watchStarts counts hang-up watchers started — the per-request
	// cost the loop exists to avoid; tests pin it.
	watchStarts atomic.Int64
}

// Start serves handler on addr (port 0 picks a free one) until Close.
// Close runs wake (nil: nothing), the handler's BeginShutdown, once
// nothing new is accepted: parked long-polls must answer, or they pin
// the drain for its whole budget.
func Start(addr string, handler http.Handler, wake func()) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return start(ln, handler, defaultHeaderTimeout, wake), nil
}

func start(ln net.Listener, handler http.Handler, headerTimeout time.Duration, wake func()) *Server {
	s := &Server{
		URL:           "http://" + ln.Addr().String(),
		handler:       handler,
		wake:          wake,
		ln:            ln,
		headerTimeout: headerTimeout,
		accepting:     make(chan error, 1), // the one send must not block if nobody waits
		conns:         make(map[*conn]struct{}),
	}
	go s.accept()
	return s
}

// accept starts a goroutine per connection until the listener fails
// or shutdown closes it; like net/http it rides out transient accept
// errors (EMFILE) with a capped backoff.
func (s *Server) accept() {
	var delay time.Duration
	for {
		rwc, err := s.ln.Accept()
		if err != nil {
			if s.draining.Load() {
				return
			}
			if ne, ok := err.(net.Error); ok && ne.Temporary() { //nolint:staticcheck // what net/http retries on
				delay = min(max(2*delay, 5*time.Millisecond), time.Second)
				time.Sleep(delay)
				continue
			}
			s.accepting <- err
			return
		}
		delay = 0
		c := &conn{s: s, rwc: rwc, remote: rwc.RemoteAddr().String(), body: make([]byte, 0, bodyBufferSize)}
		c.br = bufio.NewReaderSize(c, readBufferSize)
		c.bw = bufio.NewWriterSize(rwc, writeBufferSize)
		s.mu.Lock()
		if s.draining.Load() { // accepted as the listener closed: shutdown may already be waiting
			s.mu.Unlock()
			rwc.Close()
			continue
		}
		s.conns[c] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go c.serve()
	}
}

// Close shuts the server down as SIGTERM does ([Serve]): stop
// accepting, run the wake given to Start, close idle connections, give
// requests in flight ten seconds, then cut what is left and report
// context.DeadlineExceeded. Idempotent.
func (s *Server) Close() error {
	s.mu.Lock()
	s.draining.Store(true) // under mu: accept registers no connection after this
	s.mu.Unlock()
	s.ln.Close()
	if s.wake != nil {
		s.wake()
	}
	// A connection is closed here if it is idle now, and closes itself
	// if it turns idle later: it checks draining after raising idle.
	s.closeConns(func(c *conn) bool { return c.idle.Load() })
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	grace := time.NewTimer(shutdownGrace)
	defer grace.Stop()
	select {
	case <-done:
		return nil
	case <-grace.C:
		s.closeConns(func(*conn) bool { return true })
		return context.DeadlineExceeded
	}
}

func (s *Server) closeConns(which func(*conn) bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for c := range s.conns {
		if which(c) {
			c.rwc.Close()
		}
	}
}

// conn is one client connection, served by one goroutine.
type conn struct {
	s      *Server
	rwc    net.Conn
	br     *bufio.Reader // over conn.Read, which meters the head
	bw     *bufio.Writer
	remote string

	budget   int64       // bytes the request head being read may still take off the wire
	idle     atomic.Bool // between requests: shutdown may close it
	lastPOST bool
	body     []byte // response bytes held back until the head is settled
}

// Read meters the request head: past the budget it reports EOF, which
// fails http.ReadRequest, and readRequest turns that into a 431.
func (c *conn) Read(p []byte) (int, error) {
	if c.budget <= 0 {
		return 0, io.EOF
	}
	if int64(len(p)) > c.budget {
		p = p[:c.budget]
	}
	n, err := c.rwc.Read(p)
	c.budget -= int64(n)
	return n, err
}

func (c *conn) serve() {
	defer c.s.wg.Done()
	defer func() {
		c.rwc.Close()
		c.s.mu.Lock()
		delete(c.s.conns, c)
		c.s.mu.Unlock()
	}()
	defer func() {
		if v := recover(); v != nil && v != http.ErrAbortHandler {
			log.Printf("http: panic serving %s: %v\n%s", c.remote, v, debug.Stack())
		}
	}()
	// A new connection has the header deadline to send its first
	// request; a kept-alive one may idle for ever, and its deadline
	// starts with the first byte of the next request.
	c.rwc.SetReadDeadline(time.Now().Add(c.s.headerTimeout)) //nolint:errcheck // a dead conn fails the read below
	for first := true; ; first = false {
		c.budget = maxHeadBytes
		c.idle.Store(true)
		if c.s.draining.Load() {
			return
		}
		need := 4 // what net/http waits for between requests: fewer bytes and a hang-up get no 400
		if first {
			need = 1
		}
		_, err := c.br.Peek(need)
		c.idle.Store(false)
		if err != nil {
			return
		}
		if !first {
			c.rwc.SetReadDeadline(time.Now().Add(c.s.headerTimeout)) //nolint:errcheck
		}
		req, err := c.readRequest()
		if err != nil {
			c.refuse(err)
			return
		}
		c.rwc.SetReadDeadline(time.Time{}) //nolint:errcheck
		if !c.handle(req) {
			return
		}
	}
}

// refusal is a request the loop answers itself and then hangs up on.
type refusal struct {
	code int
	text string
}

func (r refusal) Error() string { return r.text }

// readRequest reads one request head and applies the checks net/http's
// server adds to http.ReadRequest. ReadRequest has already removed the
// Host header, so the Host checks see Request.Host: an explicitly
// empty Host is refused here and an absolute-URI request without one
// accepted, the reverse of net/http; nothing routes on it.
func (c *conn) readRequest() (*http.Request, error) {
	if c.lastPOST {
		// RFC 7230 §3.5: old clients send a stray CRLF after a POST body.
		peek, _ := c.br.Peek(4)
		n := 0
		for n < len(peek) && (peek[n] == '\r' || peek[n] == '\n') {
			n++
		}
		c.br.Discard(n) //nolint:errcheck // peeked bytes are buffered
	}
	req, err := http.ReadRequest(c.br)
	if err != nil {
		if c.budget <= 0 {
			return nil, errHeadTooLarge
		}
		return nil, err
	}
	c.budget = math.MaxInt64
	c.lastPOST = req.Method == "POST"
	// An HTTP/2 preface is let through to the handler, as by net/http.
	preface := req.Proto == "HTTP/2.0" && req.Method == "PRI" && req.RequestURI == "*"
	switch {
	case req.ProtoMajor != 1 && !preface:
		return nil, refusal{http.StatusHTTPVersionNotSupported, "unsupported protocol version"}
	case req.Host == "" && req.ProtoAtLeast(1, 1) && req.Method != "CONNECT" && !preface:
		return nil, refusal{http.StatusBadRequest, "missing required Host header"}
	case strings.ContainsFunc(req.Host, invalidHostRune):
		return nil, refusal{http.StatusBadRequest, "malformed Host header"}
	}
	for k, vs := range req.Header {
		if strings.Contains(k, " ") { // all that textproto lets through of what is not a token
			return nil, refusal{http.StatusBadRequest, "invalid header name"}
		}
		for _, v := range vs {
			if strings.ContainsFunc(v, func(r rune) bool { return r < ' ' && r != '\t' || r == 0x7f }) {
				return nil, refusal{http.StatusBadRequest, "invalid header value"}
			}
		}
	}
	req.RemoteAddr = c.remote
	return req, nil
}

func invalidHostRune(r rune) bool {
	return !('0' <= r && r <= '9' || 'a' <= r && r <= 'z' || 'A' <= r && r <= 'Z' || strings.ContainsRune("!$%&'()*+,-.:;=[]_~", r))
}

// refuse answers a request that could not be read, the way net/http
// words it; a client that went away or ran out the deadline gets no
// reply.
func (c *conn) refuse(err error) {
	status, body := "400 Bad Request", "" // body: the status again, unless set
	var ref refusal
	var ne net.Error
	var oe *net.OpError
	switch {
	case err == errHeadTooLarge:
		status = "431 Request Header Fields Too Large"
	case strings.HasPrefix(err.Error(), "unsupported transfer encoding"): // http.ReadRequest's error type is unexported
		status, body = "501 Not Implemented", "Unsupported transfer encoding"
	case err == io.EOF, errors.As(err, &ne) && ne.Timeout(), errors.As(err, &oe) && oe.Op == "read":
		return
	case errors.As(err, &ref):
		status = fmt.Sprintf("%d %s: %s", ref.code, http.StatusText(ref.code), ref.text)
	}
	if body == "" {
		body = status
	}
	fmt.Fprintf(c.rwc, "HTTP/1.1 %s\r\nContent-Type: text/plain; charset=utf-8\r\nConnection: close\r\n\r\n%s", status, body)
	if err == errHeadTooLarge {
		c.linger()
	}
}

// linger half-closes and waits before the caller closes, for a client
// still sending what the loop refused to read: a plain close would
// reset the connection under the reply.
func (c *conn) linger() {
	if cw, ok := c.rwc.(interface{ CloseWrite() error }); ok {
		cw.CloseWrite() //nolint:errcheck // best effort before the close
	}
	time.Sleep(lingerDelay)
}

// handle runs one exchange and reports whether the connection can
// carry another.
func (c *conn) handle(req *http.Request) bool {
	c.body = c.body[:0]
	x := &exchange{c: c, req: req}
	x.resp = response{x: x, hdr: make(http.Header), cl: -1}
	if req.Body == http.NoBody {
		x.bodyDone = true
	} else {
		x.body = body{x: x, rc: req.Body, left: req.ContentLength}
		req.Body = &x.body
	}
	handler := c.s.handler
	switch expect := req.Header.Get("Expect"); {
	case expect == "":
	case !hasToken(expect, "100-continue"):
		handler = http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Connection", "close")
			w.WriteHeader(http.StatusExpectationFailed)
		})
	case req.ProtoAtLeast(1, 1) && req.ContentLength != 0:
		x.body.expected, x.body.awaited = true, true
	}
	if req.Method == "OPTIONS" && req.RequestURI == "*" {
		handler = http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Length", "0")
		})
	}
	// The handler gets a copy; x.req stays as read, whatever it does.
	handler.ServeHTTP(&x.resp, req.WithContext(x))
	x.end()
	return x.resp.finish()
}

// hasToken reports whether header value v holds token, with
// net/http's idea of what separates tokens.
func hasToken(v, token string) bool {
	if v == "" {
		return false
	}
	for _, f := range strings.FieldsFunc(v, func(r rune) bool { return r == ' ' || r == ',' || r == '\t' }) {
		if strings.EqualFold(f, token) {
			return true
		}
	}
	return false
}

// exchange is one request on a connection and, itself, that request's
// context: never cancelled, and free, until somebody asks — Done and
// Err arm it. Armed, it is cancelled when the handler returns and when
// the client hangs up, which a watcher goroutine notices by reading
// the connection once the request body has been read to its end.
type exchange struct {
	c    *conn
	req  *http.Request // as read: the handler works on a copy
	resp response
	body body

	mu       sync.Mutex
	ctx      context.Context // nil until armed
	cancel   context.CancelFunc
	bodyDone bool          // nothing of the request is left on the wire
	over     bool          // the handler has returned
	replying bool          // a final status is set: too late for 100 Continue
	watching chan struct{} // closed when the watcher goroutine exits; nil if none started
}

func (x *exchange) arm() context.Context {
	x.mu.Lock()
	defer x.mu.Unlock()
	if x.ctx == nil {
		x.ctx, x.cancel = context.WithCancel(context.Background())
		switch {
		case x.over:
			x.cancel()
		case x.bodyDone:
			x.watch()
		}
	}
	return x.ctx
}

// Deadline implements context.Context.
func (x *exchange) Deadline() (time.Time, bool) { return time.Time{}, false }

// Done implements context.Context and arms the hang-up watcher.
func (x *exchange) Done() <-chan struct{} { return x.arm().Done() }

// Err implements context.Context and arms the hang-up watcher.
func (x *exchange) Err() error { return x.arm().Err() }

// Value implements context.Context. The request context carries no
// values of its own; once armed it answers from the cancellation node
// inside, which is how the context package finds that node and hangs
// derived contexts on it without a goroutine each.
func (x *exchange) Value(key any) any {
	x.mu.Lock()
	ctx := x.ctx
	x.mu.Unlock()
	if ctx == nil {
		return nil
	}
	return ctx.Value(key)
}

// watch starts the hang-up watcher: one Peek on the connection, which
// the body (at EOF) and the serve loop (inside the handler) have both
// stopped reading. Bytes arriving are the next pipelined request and
// end the watch with nothing learned; an error is the client gone.
// Called with x.mu held, armed, the body done and the handler running.
func (x *exchange) watch() {
	x.c.s.watchStarts.Add(1)
	x.c.s.wg.Add(1) // the connection's own count is still held
	done := make(chan struct{})
	x.watching = done
	go func() {
		defer x.c.s.wg.Done()
		defer close(done)
		if _, err := x.c.br.Peek(1); err != nil {
			x.cancel() // also how end stops the watch; by then the context is cancelled anyway
		}
	}()
}

// bodyAtEOF notes that the request has been read in full, the point
// from which an armed context may watch the connection.
func (x *exchange) bodyAtEOF() {
	x.mu.Lock()
	defer x.mu.Unlock()
	x.bodyDone = true
	if x.ctx != nil && !x.over {
		x.watch()
	}
}

// end is called when the handler returns: it cancels an armed context
// and takes the connection back from the watcher, by a read-deadline
// poke, before the loop reads from it again.
func (x *exchange) end() {
	x.mu.Lock()
	x.over = true
	if x.cancel != nil {
		x.cancel()
	}
	watching := x.watching
	x.mu.Unlock()
	if watching != nil {
		x.c.rwc.SetReadDeadline(aLongTimeAgo) //nolint:errcheck // a dead conn has already ended the watch
		<-watching
		x.c.rwc.SetReadDeadline(time.Time{}) //nolint:errcheck
	}
}

// body is the handler's view of the request body: http.ReadRequest's
// framing reader plus what the loop must know afterwards — whether it
// was read to its end, how much is left, whether the client is still
// waiting for 100 Continue. Its Close only fences further reads;
// draining is the loop's business (settle), bounded.
type body struct {
	x  *exchange
	rc io.ReadCloser // nil when the request has no body

	mu       sync.Mutex // held across reads, like net/http's: a stray handler goroutine cannot race the loop
	left     int64      // declared bytes not yet read; -1 when chunked
	err      error      // sticky: io.EOF once read in full
	closed   bool
	expected bool // the request said Expect: 100-continue
	awaited  bool // and the 100 Continue has not been sent yet
}

func (b *body) Read(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return 0, http.ErrBodyReadAfterClose
	}
	return b.read(p)
}

func (b *body) Close() error {
	b.mu.Lock()
	b.closed = true
	b.mu.Unlock()
	return nil
}

// read is Read with b.mu held. Once it has reported an error it never
// touches the connection again: from EOF on that is the watcher's.
func (b *body) read(p []byte) (int, error) {
	if b.err != nil {
		return 0, b.err
	}
	if b.awaited {
		b.awaited = false
		x := b.x
		x.mu.Lock()
		if !x.replying {
			x.c.bw.WriteString("HTTP/1.1 100 Continue\r\n\r\n") //nolint:errcheck // Flush reports it
			x.c.bw.Flush()                                      //nolint:errcheck // a dead conn fails the read below
		}
		x.mu.Unlock()
	}
	n, err := b.rc.Read(p)
	if b.left > 0 {
		b.left -= int64(n)
	}
	if err != nil {
		b.err = err
		if err == io.EOF {
			b.x.bodyAtEOF()
		}
	}
	return n, err
}

type readFunc func([]byte) (int, error)

func (f readFunc) Read(p []byte) (int, error) { return f(p) }

// settle is called before the response head is written: it reads off
// what the handler left of the body, if that is little, so the next
// request starts at a request line. reusable is false when it could
// not; tooBig says the client may still be sending.
func (b *body) settle() (reusable, tooBig bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch {
	case b.err == io.EOF:
		return true, false
	case b.err != nil || b.expected:
		// A broken body, or one the client may never send because the
		// handler answered without asking for it.
		return false, false
	case b.left > maxDrainBytes:
		return false, true
	}
	switch _, err := io.CopyN(io.Discard, readFunc(b.read), maxDrainBytes+1); err {
	case io.EOF:
		return true, false
	case nil:
		return false, true
	default:
		return false, false
	}
}

// response is the handler's http.ResponseWriter. The status line and
// the handler's headers go into the connection's write buffer at
// WriteHeader — later changes to the map are not seen, as with
// net/http — and up to bodyBufferSize of body is held back, so a
// handler that returns within that gets a Content-Length and leaves in
// one write; sendHead adds the headers that depend on it.
type response struct {
	x   *exchange
	hdr http.Header

	status  int   // 0 until WriteHeader
	cl      int64 // Content-Length, the handler's or the computed one; -1 when unknown
	written int64 // body bytes the handler wrote
	// From the handler's headers, as of WriteHeader: no Content-Type or
	// -Encoding, a Date, "Connection: close".
	sniff, hasDate, wantsClose bool

	sent    bool // the head is complete in the write buffer
	chunked bool
	closing bool // the connection ends with this response
	linger  bool // and the client may still be sending
}

var (
	// The loop writes these three itself.
	excludedHeaders = map[string]bool{"Content-Length": true, "Connection": true, "Transfer-Encoding": true}
	// RFC 7232 §4.1: a 304 carries no representation metadata.
	excludedHeaders304 = map[string]bool{"Content-Length": true, "Connection": true, "Transfer-Encoding": true, "Content-Type": true}
)

func bodyAllowed(status int) bool {
	return status >= 200 && status != http.StatusNoContent && status != http.StatusNotModified
}

func (r *response) Header() http.Header { return r.hdr }

func (r *response) WriteHeader(code int) {
	if r.status != 0 {
		return
	}
	if code < 100 || code > 999 {
		panic(fmt.Sprintf("invalid WriteHeader code %v", code))
	}
	x := r.x
	bw := x.c.bw
	if x.body.expected && (code < 101 || code > 199) {
		x.mu.Lock()
		x.replying = true
		x.mu.Unlock()
	}
	line := append(bw.AvailableBuffer(), "HTTP/1.1 "...) // built in place: Write finds it there already
	if !x.req.ProtoAtLeast(1, 1) {
		line[7] = '0'
	}
	text := http.StatusText(code)
	if text == "" {
		text = "status code " + strconv.Itoa(code)
	}
	line = append(append(strconv.AppendInt(line, int64(code), 10), ' '), text...)
	bw.Write(append(line, "\r\n"...)) //nolint:errcheck // sticky, as every write to bw: finish reports the Flush's
	if code <= 199 && code != http.StatusSwitchingProtocols {
		// Informational: sent at once, and the final status is still to come.
		r.hdr.WriteSubset(bw, excludedHeaders) //nolint:errcheck
		bw.WriteString("\r\n")                 //nolint:errcheck
		bw.Flush()                             //nolint:errcheck
		return
	}
	r.status = code
	if v := r.hdr.Get("Content-Length"); v != "" {
		if n, err := strconv.ParseInt(v, 10, 64); err == nil && n >= 0 {
			r.cl = n
		} else {
			log.Printf("http: invalid Content-Length of %q", v)
		}
	}
	_, hasType := r.hdr["Content-Type"]
	r.sniff = !hasType && r.hdr.Get("Content-Encoding") == ""
	_, r.hasDate = r.hdr["Date"]
	r.wantsClose = hasToken(r.hdr.Get("Connection"), "close")
	exclude := excludedHeaders
	if code == http.StatusNotModified {
		exclude = excludedHeaders304
	}
	r.hdr.WriteSubset(bw, exclude) //nolint:errcheck
}

func (r *response) Write(p []byte) (int, error) {
	if r.status == 0 {
		r.WriteHeader(http.StatusOK)
	}
	if len(p) == 0 {
		return 0, nil
	}
	if !bodyAllowed(r.status) {
		return 0, http.ErrBodyNotAllowed
	}
	r.written += int64(len(p))
	if r.cl >= 0 && r.written > r.cl {
		return 0, http.ErrContentLength
	}
	c, n := r.x.c, len(p)
	// Held back like net/http's 2 KB bufio.Writer would: fill the
	// buffer, and once it overflows the head goes out chunked.
	for !r.sent {
		room := bodyBufferSize - len(c.body)
		if len(p) <= room {
			c.body = append(c.body, p...)
			return n, nil
		}
		if len(c.body) == 0 {
			r.sendHead(p, false)
			break
		}
		c.body = append(c.body, p[:room]...)
		p = p[room:]
		r.flushBody()
	}
	return n, r.writeBody(p)
}

// Flush implements http.Flusher.
func (r *response) Flush() {
	if r.status == 0 {
		r.WriteHeader(http.StatusOK)
	}
	if !r.sent {
		r.flushBody()
	}
	r.x.c.bw.Flush() //nolint:errcheck // sticky; finish reports it
}

// flushBody completes the head with the handler still running and
// writes out what was held back.
func (r *response) flushBody() {
	c := r.x.c
	r.sendHead(c.body, false)
	r.writeBody(c.body) //nolint:errcheck // sticky; finish reports it
	c.body = c.body[:0]
}

func (r *response) writeBody(p []byte) error {
	bw := r.x.c.bw
	if len(p) == 0 || r.x.req.Method == "HEAD" { // a HEAD's body decides its headers and stays here
		return nil
	}
	if !r.chunked {
		_, err := bw.Write(p)
		return err
	}
	bw.Write(append(strconv.AppendInt(bw.AvailableBuffer(), int64(len(p)), 16), "\r\n"...)) //nolint:errcheck
	bw.Write(p)                                                                             //nolint:errcheck
	_, err := bw.WriteString("\r\n")
	return err
}

// sendHead completes the response head: p is the first of the body
// (all of it when done, i.e. the handler has returned) and decides the
// sniffed Content-Type and the computed Content-Length. Before that it
// settles the request body, because whether the connection survives is
// part of the head.
func (r *response) sendHead(p []byte, done bool) {
	r.sent = true
	x := r.x
	req, bw := x.req, x.c.bw
	isHEAD := req.Method == "HEAD"
	bodyOK := bodyAllowed(r.status)
	if done && bodyOK && r.cl < 0 && (!isHEAD || len(p) > 0) {
		r.cl = int64(len(p))
	}
	// req.Close is "Connection: close" or HTTP/1.0 without keep-alive;
	// an HTTP/1.0 keep-alive needs a response that says where it ends.
	keepAlive10 := !req.ProtoAtLeast(1, 1) && !req.Close
	if req.Close || r.wantsClose || x.c.s.draining.Load() || keepAlive10 && bodyOK && !isHEAD && r.cl < 0 {
		r.closing = true
	}
	if !r.closing && x.body.rc != nil {
		reusable, tooBig := x.body.settle()
		r.closing, r.linger = !reusable, tooBig
	}

	head := bw.AvailableBuffer()
	if bodyOK && r.sniff && len(p) > 0 {
		head = append(append(append(head, "Content-Type: "...), http.DetectContentType(p)...), "\r\n"...)
	}
	if !r.hasDate {
		head = append(time.Now().UTC().AppendFormat(append(head, "Date: "...), http.TimeFormat), "\r\n"...)
	}
	switch {
	case r.cl >= 0 && bodyOK:
		head = append(strconv.AppendInt(append(head, "Content-Length: "...), r.cl, 10), "\r\n"...)
	case isHEAD || !bodyOK:
	case req.ProtoAtLeast(1, 1):
		r.chunked = true
		head = append(head, "Transfer-Encoding: chunked\r\n"...)
	}
	switch {
	case r.closing && req.ProtoAtLeast(1, 1):
		head = append(head, "Connection: close\r\n"...)
	case !r.closing && keepAlive10:
		head = append(head, "Connection: keep-alive\r\n"...)
	}
	bw.Write(append(head, "\r\n"...)) //nolint:errcheck
}

// finish completes the response once the handler has returned and
// reports whether the connection can carry another request.
func (r *response) finish() bool {
	x := r.x
	c := x.c
	if r.status == 0 {
		r.WriteHeader(http.StatusOK)
	}
	if !r.sent {
		r.sendHead(c.body, true)
		r.writeBody(c.body) //nolint:errcheck // Flush reports it
	}
	if r.chunked {
		c.bw.WriteString("0\r\n\r\n") //nolint:errcheck
	}
	err := c.bw.Flush()
	if x.body.rc != nil {
		x.body.Close() // a goroutine the handler left behind must not read the next request
	}
	if r.linger {
		c.linger()
	}
	short := r.cl >= 0 && r.written != r.cl && bodyAllowed(r.status) && x.req.Method != "HEAD"
	return err == nil && !r.closing && !short
}
