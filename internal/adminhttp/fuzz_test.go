package adminhttp

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"net"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"
)

// converse writes data on a new connection to addr, half-closes, and
// returns every byte the server sent back until it closed; reset says
// the kernel cut the answer short (a server that closes on unread
// input resets the connection), which is no server's wording.
func converse(t *testing.T, addr string, data []byte) (answer []byte, reset bool) {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	go func() {
		c.Write(data)
		c.(*net.TCPConn).CloseWrite()
	}()
	c.SetReadDeadline(time.Now().Add(10 * time.Second))
	answer, err = io.ReadAll(c)
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		t.Fatalf("connection still open 10 s after the client finished sending; so far:\n%q", answer)
	}
	return answer, err != nil
}

// statuses parses a server's whole answer into its status codes; ok is
// false when some of it is not an HTTP response. methods are the
// requests' (as far as the input parses), for the replies without a
// body.
func statuses(answer []byte, methods []string) (codes []int, ok bool) {
	br := bufio.NewReader(bytes.NewReader(answer))
	for {
		if _, err := br.Peek(1); err == io.EOF {
			return codes, true
		}
		method := "GET"
		if len(methods) > 0 {
			method = methods[0]
		}
		resp, err := http.ReadResponse(br, &http.Request{Method: method})
		if err != nil {
			return codes, false
		}
		if method == "HEAD" && resp.Close {
			// The servers' own refusals carry a body even to a HEAD; the
			// close ends it, and the answer.
			return append(codes, resp.StatusCode), true
		}
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			return codes, false
		}
		codes = append(codes, resp.StatusCode)
		if resp.StatusCode != http.StatusContinue && len(methods) > 0 {
			methods = methods[1:]
		}
	}
}

func requestMethods(data []byte) (methods []string) {
	br := bufio.NewReader(bytes.NewReader(data))
	for {
		req, err := http.ReadRequest(br)
		if err != nil {
			return methods
		}
		methods = append(methods, req.Method)
		if _, err := io.Copy(io.Discard, req.Body); err != nil {
			return methods
		}
	}
}

// FuzzServeConn feeds arbitrary bytes to the loop as one connection's
// input: it must not panic, must leave no goroutine behind once the
// connection is over, must write back nothing but well-formed HTTP
// responses, and must answer with the status classes net/http's
// server gives the same bytes.
func FuzzServeConn(f *testing.F) {
	for _, r := range conformanceRows {
		if r.name == "handler panic" {
			continue
		}
		whole := strings.Join(r.send, "")
		if len(whole) > 64<<10 {
			continue // the megabyte rows are the table's; the fuzzer's inputs are small
		}
		for _, cut := range []int{len(whole), len(whole) * 3 / 4, len(whole) / 2, len(whole) / 4} {
			f.Add([]byte(whole[:cut]))
		}
	}
	loop, stock := bothServers(f, testHandler(false), 2*time.Second)
	f.Fuzz(func(t *testing.T, data []byte) {
		before := runtime.NumGoroutine() // the last input's connections are gone: it waited
		got, gotReset := converse(t, loop, data)
		want, wantReset := converse(t, stock, data)
		for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%d goroutines after the connections closed, %d before them", runtime.NumGoroutine(), before)
			}
		}
		methods := requestMethods(data)
		gotCodes, ok := statuses(got, methods)
		if !ok && !gotReset {
			t.Fatalf("the loop wrote something that is not an HTTP response:\n%q", got)
		}
		wantCodes, _ := statuses(want, methods)
		if gotReset || wantReset {
			return
		}
		// The one stated difference (readRequest): which of an empty and
		// an absent Host header is refused.
		if bytes.Contains(got, []byte("missing required Host header")) || bytes.Contains(want, []byte("missing required Host header")) {
			return
		}
		if len(gotCodes) != len(wantCodes) {
			t.Fatalf("the loop answered %v, net/http %v\nloop:  %q\nstock: %q", gotCodes, wantCodes, got, want)
		}
		for i := range gotCodes {
			if gotCodes[i]/100 != wantCodes[i]/100 {
				t.Fatalf("the loop answered %v, net/http %v\nloop:  %q\nstock: %q", gotCodes, wantCodes, got, want)
			}
		}
	})
}
