package adminhttp

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// testHandler is what both servers wrap in the conformance rows, the
// fuzzer and the benchmark.
func testHandler(panics bool) http.Handler {
	big := bytes.Repeat([]byte("0123456789abcdef"), 200<<10/16)
	mux := http.NewServeMux()
	mux.HandleFunc("/hello", func(w http.ResponseWriter, _ *http.Request) { io.WriteString(w, "hello\n") })
	mux.HandleFunc("/echo", func(w http.ResponseWriter, r *http.Request) {
		b, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		fmt.Fprintf(w, "%d:", len(b))
		w.Write(b)
	})
	mux.HandleFunc("/frame", func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("/nothing", func(http.ResponseWriter, *http.Request) {})
	mux.HandleFunc("/status", func(w http.ResponseWriter, r *http.Request) {
		code, _ := strconv.Atoi(r.URL.Query().Get("code"))
		if code < 200 || code > 599 {
			code = http.StatusBadRequest
		}
		w.Header().Set("ETag", `"v1"`)
		w.Header().Set("Content-Type", "text/plain")
		w.WriteHeader(code)
	})
	mux.HandleFunc("/big", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("cl") != "" {
			w.Header().Set("Content-Length", strconv.Itoa(len(big)))
		}
		w.Write(big)
	})
	mux.HandleFunc("/unread", func(w http.ResponseWriter, _ *http.Request) { io.WriteString(w, "unread\n") })
	mux.HandleFunc("/html", func(w http.ResponseWriter, _ *http.Request) { io.WriteString(w, "<html><body>sniff me</body></html>") })
	mux.HandleFunc("/flush", func(w http.ResponseWriter, _ *http.Request) {
		io.WriteString(w, "first,")
		w.(http.Flusher).Flush()
		io.WriteString(w, "second")
	})
	if panics {
		mux.HandleFunc("/panic", func(http.ResponseWriter, *http.Request) { panic("boom") })
	}
	return mux
}

// bothServers starts the loop and a stock http.Server on loopback with
// the same handler and header deadline.
func bothServers(t testing.TB, h http.Handler, headerTimeout time.Duration) (loop, stock string) {
	t.Helper()
	listen := func() net.Listener {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		return ln
	}
	srv := start(listen(), h, headerTimeout)
	t.Cleanup(func() { srv.Close() })
	ln := listen()
	ref := &http.Server{Handler: h, ReadHeaderTimeout: headerTimeout}
	go ref.Serve(ln)
	t.Cleanup(func() { ref.Close() })
	return srv.ln.Addr().String(), ln.Addr().String()
}

// reply is everything of one response a client can observe, less Date.
type reply struct {
	Status   string
	Proto    string
	Header   http.Header
	TE       []string
	Length   int64
	Close    bool
	Body     string
	BodyFail bool
}

func (r reply) String() string {
	body := r.Body
	if len(body) > 64 {
		body = fmt.Sprintf("%q… (%d bytes)", body[:64], len(r.Body))
	}
	return fmt.Sprintf("%s %s %v te=%v len=%d close=%v bodyfail=%v body=%s", r.Proto, r.Status, r.Header, r.TE, r.Length, r.Close, r.BodyFail, body)
}

// row is raw bytes for one connection. send[i] goes out once i replies
// have been read; methods names the request each expected reply answers.
type row struct {
	name    string
	send    []string
	methods []string
	dribble bool // send[0] one byte per 20 ms
	want    []int
	fate    string // "open" or "closed" once the replies are in

	stockLingers bool // net/http's connection fate is not the one to match
}

const hostLine = "Host: waldo.test\r\n"

func get(path string) string { return "GET " + path + " HTTP/1.1\r\n" + hostLine + "\r\n" }

var conformanceRows = []row{
	{name: "keep-alive GET", send: []string{get("/hello")}, methods: []string{"GET"}, want: []int{200}, fate: "open"},
	{name: "POST with Content-Length", send: []string{"POST /echo HTTP/1.1\r\n" + hostLine + "Content-Length: 5\r\n\r\nhello"}, methods: []string{"POST"}, want: []int{200}, fate: "open"},
	{name: "chunked POST", send: []string{"POST /echo HTTP/1.1\r\n" + hostLine + "Transfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n3\r\n wo\r\n0\r\n\r\n"}, methods: []string{"POST"}, want: []int{200}, fate: "open"},
	{name: "Expect 100-continue", send: []string{"POST /echo HTTP/1.1\r\n" + hostLine + "Expect: 100-continue\r\nContent-Length: 5\r\n\r\n", "hello"}, methods: []string{"POST", "POST"}, want: []int{100, 200}, fate: "open"},
	// Both say "Connection: close"; net/http then waits for the body it
	// never asked for before it hangs up, the loop does not.
	{name: "Expect 100-continue body never asked for", send: []string{"POST /unread HTTP/1.1\r\n" + hostLine + "Expect: 100-continue\r\nContent-Length: 5\r\n\r\n"}, methods: []string{"POST"}, want: []int{200}, fate: "closed", stockLingers: true},
	{name: "Expect something else", send: []string{"POST /echo HTTP/1.1\r\n" + hostLine + "Expect: a-miracle\r\nContent-Length: 5\r\n\r\nhello"}, methods: []string{"POST"}, want: []int{417}, fate: "closed"},
	{name: "HTTP/1.0", send: []string{"GET /hello HTTP/1.0\r\n\r\n"}, methods: []string{"GET"}, want: []int{200}, fate: "closed"},
	{name: "HTTP/1.0 keep-alive", send: []string{"GET /hello HTTP/1.0\r\nConnection: keep-alive\r\n\r\n"}, methods: []string{"GET"}, want: []int{200}, fate: "open"},
	{name: "HTTP/1.0 keep-alive without a length", send: []string{"GET /big HTTP/1.0\r\nConnection: keep-alive\r\n\r\n"}, methods: []string{"GET"}, want: []int{200}, fate: "closed"},
	{name: "Connection close", send: []string{"GET /hello HTTP/1.1\r\n" + hostLine + "Connection: close\r\n\r\n"}, methods: []string{"GET"}, want: []int{200}, fate: "closed"},
	{name: "two pipelined in one segment", send: []string{get("/hello") + "POST /echo HTTP/1.1\r\n" + hostLine + "Content-Length: 2\r\n\r\nhi" + get("/nothing")}, methods: []string{"GET", "POST", "GET"}, want: []int{200, 200, 200}, fate: "open"},
	{name: "HEAD", send: []string{"HEAD /hello HTTP/1.1\r\n" + hostLine + "\r\n"}, methods: []string{"HEAD"}, want: []int{200}, fate: "open"},
	{name: "HEAD with Content-Length", send: []string{"HEAD /big?cl=1 HTTP/1.1\r\n" + hostLine + "\r\n"}, methods: []string{"HEAD"}, want: []int{200}, fate: "open"},
	{name: "handler writes nothing", send: []string{get("/nothing")}, methods: []string{"GET"}, want: []int{200}, fate: "open"},
	{name: "204", send: []string{get("/status?code=204")}, methods: []string{"GET"}, want: []int{204}, fate: "open"},
	{name: "304", send: []string{get("/status?code=304")}, methods: []string{"GET"}, want: []int{304}, fate: "open"},
	{name: "404 from the mux", send: []string{get("/nowhere")}, methods: []string{"GET"}, want: []int{404}, fate: "open"},
	{name: "200 KB chunked", send: []string{get("/big")}, methods: []string{"GET"}, want: []int{200}, fate: "open"},
	{name: "200 KB with Content-Length", send: []string{get("/big?cl=1")}, methods: []string{"GET"}, want: []int{200}, fate: "open"},
	{name: "sniffed Content-Type", send: []string{get("/html")}, methods: []string{"GET"}, want: []int{200}, fate: "open"},
	{name: "Flush", send: []string{get("/flush")}, methods: []string{"GET"}, want: []int{200}, fate: "open"},
	{name: "1 KB body left unread", send: []string{"POST /unread HTTP/1.1\r\n" + hostLine + "Content-Length: 1024\r\n\r\n" + strings.Repeat("u", 1024) + get("/hello")}, methods: []string{"POST", "GET"}, want: []int{200, 200}, fate: "open"},
	{name: "1 MB body left unread", send: []string{"POST /unread HTTP/1.1\r\n" + hostLine + "Content-Length: 1048576\r\n\r\n" + strings.Repeat("u", 1<<20)}, methods: []string{"POST"}, want: []int{200}, fate: "closed"},
	{name: "head over 1 MiB", send: []string{"GET /hello HTTP/1.1\r\n" + hostLine + "X-Pad: " + strings.Repeat("p", 1<<20+8<<10) + "\r\n\r\n"}, methods: []string{"GET"}, want: []int{431}, fate: "closed"},
	{name: "malformed request line", send: []string{"GARBAGE\r\n\r\n"}, methods: []string{"GET"}, want: []int{400}, fate: "closed"},
	{name: "missing Host", send: []string{"GET /hello HTTP/1.1\r\n\r\n"}, methods: []string{"GET"}, want: []int{400}, fate: "closed"},
	{name: "control byte in a header value", send: []string{"GET /hello HTTP/1.1\r\n" + hostLine + "X-Bad: a\x01b\r\n\r\n"}, methods: []string{"GET"}, want: []int{400}, fate: "closed"},
	{name: "Content-Length and Transfer-Encoding together", send: []string{"POST /echo HTTP/1.1\r\n" + hostLine + "Content-Length: 3\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nabc\r\n0\r\n\r\n"}, methods: []string{"POST"}},
	{name: "two Content-Lengths", send: []string{"POST /echo HTTP/1.1\r\n" + hostLine + "Content-Length: 3\r\nContent-Length: 4\r\n\r\nabcd"}, methods: []string{"POST"}, want: []int{400}, fate: "closed"},
	{name: "unsupported Transfer-Encoding", send: []string{"POST /echo HTTP/1.1\r\n" + hostLine + "Transfer-Encoding: gzip\r\n\r\n"}, methods: []string{"POST"}, want: []int{501}, fate: "closed"},
	{name: "HTTP/3.0", send: []string{"GET /hello HTTP/3.0\r\n" + hostLine + "\r\n"}, methods: []string{"GET"}, want: []int{505}, fate: "closed"},
	{name: "HTTP/2 preface", send: []string{"PRI * HTTP/2.0\r\n\r\nSM\r\n\r\n"}, methods: []string{"PRI"}},
	{name: "OPTIONS *", send: []string{"OPTIONS * HTTP/1.1\r\n" + hostLine + "\r\n"}, methods: []string{"OPTIONS"}, want: []int{200}, fate: "open"},
	{name: "stray CRLF after a POST", send: []string{"POST /echo HTTP/1.1\r\n" + hostLine + "Content-Length: 2\r\n\r\nhi\r\n" + get("/hello")}, methods: []string{"POST", "GET"}, want: []int{200, 200}, fate: "open"},
	// Both take what had arrived at the deadline for the request line.
	{name: "head dribbled past the deadline", send: []string{get("/hello")}, dribble: true, methods: []string{"GET"}, want: []int{400}, fate: "closed"},
	{name: "handler panic", send: []string{get("/panic")}, fate: "closed"},
}

// talk plays one row against addr and reports what came back and
// whether the connection outlived it.
func talk(t *testing.T, addr string, r row) (replies []reply, fate string) {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	br := bufio.NewReader(c)
	for i := 0; i < max(len(r.send), len(r.methods)); i++ {
		if i < len(r.send) {
			piece := r.send[i]
			go func() { // the server may answer, and stop reading, before all of it is out
				if !r.dribble {
					c.Write([]byte(piece))
					return
				}
				for j := range len(piece) {
					if _, err := c.Write([]byte{piece[j]}); err != nil {
						return
					}
					time.Sleep(20 * time.Millisecond)
				}
			}()
		}
		if i >= len(r.methods) {
			continue
		}
		c.SetReadDeadline(time.Now().Add(10 * time.Second))
		resp, err := http.ReadResponse(br, &http.Request{Method: r.methods[i]})
		if err != nil {
			replies = append(replies, reply{Status: "unreadable"})
			break
		}
		body, err := io.ReadAll(resp.Body)
		resp.Header.Del("Date")
		replies = append(replies, reply{
			Status: resp.Status, Proto: resp.Proto, Header: resp.Header, TE: resp.TransferEncoding,
			Length: resp.ContentLength, Close: resp.Close, Body: string(body), BodyFail: err != nil,
		})
	}
	// A server that hangs up does so at once; one that keeps the
	// connection shows it by staying silent.
	wait := 300 * time.Millisecond
	if r.fate == "closed" {
		wait = 5 * time.Second
	}
	c.SetReadDeadline(time.Now().Add(wait))
	switch _, err := br.Peek(1); {
	case err == nil:
		fate = "unsolicited bytes"
	case os.IsTimeout(err):
		fate = "open"
	default:
		fate = "closed"
	}
	return replies, fate
}

// TestConformsToNetHTTP sends the same bytes to the loop and to a
// stock http.Server around the same handler: status line, header set
// (Date aside), body and the connection's fate must agree.
func TestConformsToNetHTTP(t *testing.T) {
	log.SetOutput(io.Discard) // the panic row's stack trace, twice
	t.Cleanup(func() { log.SetOutput(os.Stderr) })
	loop, stock := bothServers(t, testHandler(true), 250*time.Millisecond)
	t.Run("rows", func(t *testing.T) {
		for _, r := range conformanceRows {
			t.Run(r.name, func(t *testing.T) {
				t.Parallel()
				start := time.Now()
				got, gotFate := talk(t, loop, r)
				elapsed := time.Since(start)
				stockRow := r
				if r.stockLingers {
					stockRow.fate = "" // do not wait out a close that comes only with the body
				}
				want, wantFate := talk(t, stock, stockRow)
				if r.stockLingers {
					wantFate = gotFate
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("replies differ\nloop:  %v\nstock: %v", got, want)
				}
				if gotFate != wantFate {
					t.Errorf("connection %s after the loop's reply, %s after net/http's", gotFate, wantFate)
				}
				if r.fate != "" && gotFate != r.fate {
					t.Errorf("connection %s, want %s", gotFate, r.fate)
				}
				for i, code := range r.want {
					if i >= len(got) || !strings.HasPrefix(got[i].Status, strconv.Itoa(code)+" ") {
						t.Errorf("reply %d = %v, want status %d", i, got, code)
						break
					}
				}
				if r.name == "Expect 100-continue" && elapsed > 800*time.Millisecond {
					t.Errorf("Expect: 100-continue exchange took %v: the client waited out its 1 s patience", elapsed)
				}
			})
		}
	})
	// The panic closed one connection, not the server.
	if got, _ := talk(t, loop, conformanceRows[0]); len(got) != 1 || got[0].Status != "200 OK" {
		t.Errorf("after a handler panic a new connection got %v", got)
	}
}

// countingListener counts read and write calls on the connections it
// accepts.
type countingListener struct {
	net.Listener
	reads, writes atomic.Int64
}

type countingConn struct {
	net.Conn
	l *countingListener
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{c, l}, nil
}

func (c countingConn) Read(p []byte) (int, error)  { c.l.reads.Add(1); return c.Conn.Read(p) }
func (c countingConn) Write(p []byte) (int, error) { c.l.writes.Add(1); return c.Conn.Write(p) }

// frameRequest is the upload ingest_single sends: a 4 296-byte batch
// frame (here: that many bytes) to a handler that answers 204.
var frameRequest = []byte("POST /frame HTTP/1.1\r\n" + hostLine + "Content-Type: application/octet-stream\r\nContent-Length: 4296\r\n\r\n" + strings.Repeat("f", 4296))

// exchangeFrame sends one frame upload on a kept-alive connection and
// reads the bodiless reply.
func exchangeFrame(c net.Conn, br *bufio.Reader) error {
	if _, err := c.Write(frameRequest); err != nil {
		return err
	}
	for first := true; ; first = false {
		line, err := br.ReadSlice('\n')
		if err != nil {
			return err
		}
		if first && !bytes.HasPrefix(line, []byte("HTTP/1.1 204 ")) {
			return fmt.Errorf("status line %q", line)
		}
		if len(line) == 2 {
			return nil
		}
	}
}

// TestOneReadPerRequest pins the syscall shape of an upload: the frame
// reaches the handler after one Read on the connection and the 204
// leaves in one Write.
func TestOneReadPerRequest(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cl := &countingListener{Listener: ln}
	var readsInHandler atomic.Int64
	srv := start(cl, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		readsInHandler.Store(cl.reads.Load())
		w.WriteHeader(http.StatusNoContent)
	}), defaultHeaderTimeout)
	defer srv.Close()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	br := bufio.NewReader(c)
	for i := int64(1); i <= 3; i++ {
		if err := exchangeFrame(c, br); err != nil {
			t.Fatal(err)
		}
		if got := readsInHandler.Load(); got != i {
			t.Errorf("request %d was in the handler after %d reads on the connection, want %d", i, got, i)
		}
		if got := cl.writes.Load(); got != i {
			t.Errorf("after reply %d the connection had seen %d writes, want %d", i, got, i)
		}
	}
}

// TestNoGoroutinePerRequest pins the rule the loop exists for: a
// handler that never looks at its context costs no goroutine, and one
// that does still learns of a hang-up.
func TestNoGoroutinePerRequest(t *testing.T) {
	var peak atomic.Int64
	entered := make(chan *http.Request)
	proceed := make(chan struct{})
	cancelled := make(chan time.Time, 1)
	mux := http.NewServeMux()
	mux.HandleFunc("/frame", func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		if n := int64(runtime.NumGoroutine()); n > peak.Load() {
			peak.Store(n)
		}
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("/wait", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("early") != "" {
			r.Context().Done() // asked for before the body is in: armed at its EOF
		}
		entered <- r
		io.Copy(io.Discard, r.Body)
		entered <- r
		<-proceed
		select {
		case <-r.Context().Done():
			cancelled <- time.Now()
		case <-time.After(10 * time.Second):
		}
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := start(ln, mux, defaultHeaderTimeout)
	defer srv.Close()
	dial := func() (net.Conn, *bufio.Reader) {
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		return c, bufio.NewReader(c)
	}

	c, br := dial()
	defer c.Close()
	if err := exchangeFrame(c, br); err != nil { // the connection's goroutine exists from here on
		t.Fatal(err)
	}
	before := int64(runtime.NumGoroutine())
	peak.Store(0)
	for range 10000 {
		if err := exchangeFrame(c, br); err != nil {
			t.Fatal(err)
		}
	}
	if got := peak.Load(); got > before {
		t.Errorf("%d goroutines at the peak of 10 000 uploads, %d before them", got, before)
	}
	if got := srv.watchStarts.Load(); got != 0 {
		t.Errorf("%d hang-up watchers started for handlers that never asked", got)
	}

	for _, early := range []string{"", "1"} {
		srv.watchStarts.Store(0)
		c, _ := dial()
		fmt.Fprintf(c, "POST /wait?early=%s HTTP/1.1\r\n%sContent-Length: 4\r\n\r\n", early, hostLine)
		<-entered
		if got := srv.watchStarts.Load(); got != 0 {
			t.Errorf("early=%q: watcher started with the request body still on the wire", early)
		}
		io.WriteString(c, "body")
		<-entered
		if got, want := srv.watchStarts.Load(), int64(len(early)); got != want {
			t.Errorf("early=%q: %d watchers running at body EOF, want %d", early, got, want)
		}
		proceed <- struct{}{}
		time.Sleep(20 * time.Millisecond) // let the handler reach its select: the watcher starts there when not early
		hungUp := time.Now()
		c.Close()
		select {
		case at := <-cancelled:
			if d := at.Sub(hungUp); d > 100*time.Millisecond {
				t.Errorf("early=%q: context cancelled %v after the client hung up, want < 100 ms", early, d)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("early=%q: context never cancelled after the client hung up", early)
		}
		if got := srv.watchStarts.Load(); got != 1 {
			t.Errorf("early=%q: %d watchers started for one request, want 1", early, got)
		}
	}
}

// BenchmarkServeExchange is one kept-alive 4 296-byte upload answered
// 204 over loopback, on the loop and on net/http's server. Run it at
// -cpu 1,2: with a second P idle, net/http's per-request goroutine is
// a cross-thread wake-up each way, which is the cost the loop removes.
func BenchmarkServeExchange(b *testing.B) {
	loop, stock := bothServers(b, testHandler(false), defaultHeaderTimeout)
	for _, side := range []struct{ name, addr string }{{"loop", loop}, {"stock", stock}} {
		b.Run(side.name, func(b *testing.B) {
			c, err := net.Dial("tcp", side.addr)
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			br := bufio.NewReader(c)
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				if err := exchangeFrame(c, br); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
