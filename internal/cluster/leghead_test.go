package cluster

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"net/url"
	"reflect"
	"strings"
	"testing"

	"github.com/wsdetect/waldo/internal/telemetry"
)

// forwardedHeaders are the request headers a leg can carry: legHeaders
// plus the trace context.
var forwardedHeaders = append(legHeaders[:len(legHeaders):len(legHeaders)], telemetry.TraceHeader)

var errOracleDial = errors.New("the oracle never dials")

// refusedByNetHTTP reports whether net/http would refuse to send req:
// its Transport checks the method and every header before it dials (the
// dial here always fails, after those checks), and Request.Write checks
// the request URI.
func refusedByNetHTTP(tr *http.Transport, mk func() *http.Request) bool {
	if _, err := tr.RoundTrip(mk()); !errors.Is(err, errOracleDial) {
		return true
	}
	return mk().Write(io.Discard) != nil
}

// FuzzLegRequestHead is the leg direction of "gateway and shard agree on
// where every message ends": the request head the leg transport writes
// itself, parsed by http.ReadRequest (the shard's parser), must equal
// what net/http's Request.Write produces for the same request in method,
// request URI, Host, the forwarded headers, Content-Length and body;
// the head carries exactly one Content-Length and no Transfer-Encoding;
// and what net/http refuses to send (a method or header name that is not
// a token, CR, LF, NUL… in a value) the transport refuses too.
func FuzzLegRequestHead(f *testing.F) {
	const trace = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	f.Add("POST", "/v1/upload/batch", "", "application/octet-stream", "", "", "0.4", trace, "", uint16(4296))
	f.Add("GET", "/v1/model", "channel=47&sensor=1&lat=33.64&lon=-84.52", "", `"47-1-v3-00ff"`, "*/*", "", trace, "", uint16(0))
	f.Add("POST", "/v1/route", "", "application/json", "", "", "", "", "X-Extra", uint16(120))
	f.Add("POST", "/v1/upload/batch", "", "a\r\nContent-Length: 0", "", "", "", "", "", uint16(10))
	f.Add("GET", "/v1/model", "", "", "x\x00y", "", "", "", "", uint16(0))
	f.Add("GET", "/v1/model", "a=b\nc", "", "", "", "", "", "", uint16(0))
	f.Add("GET", "/", "", "", "", "", "", "", "Bad Name", uint16(0))
	f.Add("G\tET", "/v1/stats", "", "", "", "", "", "", "", uint16(0))
	f.Add("", "/v1/ö?x", "q=%zz", "\t", " ", "tab\there", "", "", "x-waldo-extra", uint16(3))
	tr := &http.Transport{DialContext: func(context.Context, string, string) (net.Conn, error) { return nil, errOracleDial }}
	defer tr.CloseIdleConnections()
	f.Fuzz(func(t *testing.T, method, path, rawQuery, contentType, ifNoneMatch, accept, ciSpan, traceValue, extraName string, bodyLen uint16) {
		if method == http.MethodConnect {
			t.Skip("a leg never tunnels; Request.Write writes CONNECT in authority form")
		}
		values := []string{contentType, ifNoneMatch, accept, ciSpan, traceValue}
		body := bytes.Repeat([]byte("leg!"), int(bodyLen)/4+1)[:bodyLen]
		mk := func() *http.Request {
			req := &http.Request{
				Method:     method,
				URL:        &url.URL{Scheme: "http", Host: "shard.test:9101", Path: path, RawQuery: rawQuery},
				Proto:      "HTTP/1.1",
				ProtoMajor: 1, ProtoMinor: 1,
				Header:        http.Header{},
				ContentLength: int64(len(body)),
			}
			if len(body) > 0 {
				req.Body = io.NopCloser(bytes.NewReader(body))
			}
			for i, v := range values {
				if v != "" {
					req.Header[forwardedHeaders[i]] = []string{v}
				}
			}
			// A name that canonicalizes onto one net/http or the
			// forwarded set write themselves would order two values
			// differently in the two writers; it says nothing about
			// where the message ends, so it is left out.
			switch http.CanonicalHeaderKey(extraName) {
			case "", "Host", "User-Agent", "Content-Length", "Transfer-Encoding", "Trailer",
				"Content-Type", "If-None-Match", "Accept", ciSpanHeaderKey, telemetry.TraceHeader:
			default:
				req.Header[extraName] = []string{"1"}
			}
			return req
		}

		refused := refusedByNetHTTP(tr, mk)
		if err := checkLegRequest(mk()); (err != nil) != refused {
			t.Fatalf("leg transport refuses: %v; net/http refuses: %v", err, refused)
		}
		if refused {
			return
		}
		var want, got bytes.Buffer
		if err := mk().Write(&want); err != nil {
			t.Fatal(err)
		}
		bw := bufio.NewWriter(&got)
		if err := writeLegRequest(bw, mk()); err != nil {
			t.Fatal(err)
		}
		if err := bw.Flush(); err != nil {
			t.Fatal(err)
		}
		head, _, _ := strings.Cut(got.String(), "\r\n\r\n")
		lengths := 0
		for _, line := range strings.Split(head, "\r\n") {
			name, _, _ := strings.Cut(line, ":")
			switch http.CanonicalHeaderKey(name) {
			case "Content-Length":
				lengths++
			case "Transfer-Encoding":
				t.Fatalf("leg head carries %q", line)
			}
		}
		if lengths != 1 {
			t.Fatalf("leg head carries %d Content-Length lines:\n%s", lengths, head)
		}

		wantReq, wantErr := http.ReadRequest(bufio.NewReader(&want))
		gotBR := bufio.NewReader(&got)
		gotReq, gotErr := http.ReadRequest(gotBR)
		if (wantErr != nil) != (gotErr != nil) {
			t.Fatalf("shard parse: leg head %v, Request.Write %v", gotErr, wantErr)
		}
		if wantErr != nil {
			return
		}
		wantBody, wantErr := io.ReadAll(wantReq.Body)
		gotBody, gotErr := io.ReadAll(gotReq.Body)
		if wantErr != nil || gotErr != nil {
			t.Fatalf("body read: leg %v, Request.Write %v", gotErr, wantErr)
		}
		if rest, _ := io.ReadAll(gotBR); len(rest) != 0 {
			t.Fatalf("%d bytes after the leg request's body", len(rest))
		}
		if gotReq.Method != wantReq.Method || gotReq.RequestURI != wantReq.RequestURI || gotReq.Host != wantReq.Host ||
			gotReq.ContentLength != wantReq.ContentLength || !bytes.Equal(gotBody, wantBody) {
			t.Fatalf("leg request %s %s Host=%s length=%d (%d body bytes), Request.Write %s %s Host=%s length=%d (%d body bytes)",
				gotReq.Method, gotReq.RequestURI, gotReq.Host, gotReq.ContentLength, len(gotBody),
				wantReq.Method, wantReq.RequestURI, wantReq.Host, wantReq.ContentLength, len(wantBody))
		}
		for _, h := range forwardedHeaders {
			if g, w := gotReq.Header[h], wantReq.Header[h]; !reflect.DeepEqual(g, w) {
				t.Fatalf("%s: leg request %q, Request.Write %q", h, g, w)
			}
		}
	})
}
