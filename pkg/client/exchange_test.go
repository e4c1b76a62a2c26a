package client

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestGetPostDelete(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /doc", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"n": 7}`))
	})
	mux.HandleFunc("POST /echo", func(w http.ResponseWriter, r *http.Request) {
		var in map[string]any
		json.NewDecoder(r.Body).Decode(&in)
		w.Header().Set("Retry-After", "3")
		w.WriteHeader(http.StatusTooManyRequests)
		json.NewEncoder(w).Encode(in)
	})
	mux.HandleFunc("DELETE /doc", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"gone": true}`))
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()
	c := New(ts.URL + "/") // trailing slash must be trimmed

	var doc struct {
		N int `json:"n"`
	}
	ctx := context.Background()
	if err := c.Call(ctx, http.MethodGet, "/doc", nil, &doc); err != nil || doc.N != 7 {
		t.Fatalf("GET: %+v err %v", doc, err)
	}
	err := c.Call(ctx, http.MethodGet, "/missing", nil, &doc)
	if err == nil {
		t.Fatal("GET on 404 must error")
	}
	var se *APIError
	if !errors.As(err, &se) || se.Status != http.StatusNotFound || se.Method != http.MethodGet || se.Path != "/missing" {
		t.Fatalf("GET on 404 returned %v, want *APIError with status 404", err)
	}
	if IsUnreachable(err) {
		t.Fatal("an HTTP 404 answer must not read as unreachable")
	}

	// A refusal comes back whole: status, headers and body on the error.
	var echo map[string]any
	err = c.Call(ctx, http.MethodPost, "/echo", map[string]any{"k": "v"}, nil)
	if !errors.As(err, &se) || se.Status != http.StatusTooManyRequests ||
		json.Unmarshal([]byte(se.Body), &echo) != nil || echo["k"] != "v" {
		t.Fatalf("POST: echo %v err %v", echo, err)
	}
	if d, ok := se.RetryAfter(); !ok || d != 3*time.Second {
		t.Fatalf("RetryAfter = %v, %v", d, ok)
	}
	if _, ok := (&APIError{}).RetryAfter(); ok {
		t.Fatal("RetryAfter without a header must be !ok")
	}

	var del struct {
		Gone bool `json:"gone"`
	}
	if err := c.Call(ctx, http.MethodDelete, "/doc", nil, &del); err != nil || !del.Gone {
		t.Fatalf("DELETE: %+v err %v", del, err)
	}

	var body []byte
	if err := c.Call(ctx, http.MethodGet, "/doc", nil, &body); err != nil || string(body) != `{"n": 7}` {
		t.Fatalf("raw GET: %q %v", body, err)
	}
}

func TestHealthAndMetrics(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"status":"ok","node_id":"n2"}`))
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("# TYPE x_total counter\nx_total 41\n"))
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()
	c := New(ts.URL)

	h, err := c.Health()
	if err != nil || h.Status != "ok" || h.NodeID != "n2" {
		t.Fatalf("Health: %+v err %v", h, err)
	}
	snap, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := snap.Get("x_total"); !ok || v != 41 {
		t.Fatalf("metrics x_total = %v, %v", v, ok)
	}
}

func TestTypedErrorsDistinguishUnreachableFromStatus(t *testing.T) {
	// A server that answers 500: reachable, but erroring.
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "internal meltdown", http.StatusInternalServerError)
	}))
	c := New(ts.URL)
	_, err := c.Health()
	var se *APIError
	if !errors.As(err, &se) || se.Status != http.StatusInternalServerError {
		t.Fatalf("Health against a 500 returned %v, want *APIError 500", err)
	}
	if se.Body == "" || se.Message != "internal meltdown" || IsUnreachable(err) {
		t.Fatalf("APIError should carry the body and its message and not read unreachable: %+v", se)
	}
	if _, err := c.Metrics(); !errors.As(err, &se) || se.Status != http.StatusInternalServerError {
		t.Fatalf("Metrics against a 500 returned %v, want *APIError 500", err)
	}

	// The same URL with the server gone: nothing listening.
	ts.Close()
	_, err = c.Health()
	if err == nil || !IsUnreachable(err) {
		t.Fatalf("Health against a dead server returned %v, want an unreachable transport error", err)
	}
	if errors.As(err, &se) {
		t.Fatalf("a refused connection must not be an *APIError: %v", err)
	}
}

func TestCallHonorsContext(t *testing.T) {
	block := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-block
	}))
	defer ts.Close()
	defer close(block)
	c := New(ts.URL)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if err := c.Call(ctx, http.MethodGet, "/slow", nil, nil); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Call under an expired context returned %v, want DeadlineExceeded", err)
	}
}

func TestRetryAfterHintParse(t *testing.T) {
	mk := func(v string) http.Header {
		h := http.Header{}
		if v != "" {
			h.Set("Retry-After", v)
		}
		return h
	}
	cases := []struct {
		header string
		want   time.Duration
		ok     bool
	}{
		{"", 0, false},
		{"3", 3 * time.Second, true},
		{"0", 0, true},
		{"-2", 0, false},
		{"soon", 0, false},
		{"Wed, 21 Oct 2015 07:28:00 GMT", 0, false}, // HTTP-date form: unsupported, not a crash
		{"1.5", 0, false},
	}
	for _, tc := range cases {
		if d, ok := (&APIError{Header: mk(tc.header)}).RetryAfter(); d != tc.want || ok != tc.ok {
			t.Errorf("RetryAfter(%q) = %v, %v; want %v, %v", tc.header, d, ok, tc.want, tc.ok)
		}
	}
}

// TestDeclaredLengthBoundsThePresize: a server that declares a terabyte
// and sends ten bytes is an error, and the client reserves no more than
// maxPresize on the header's word.
func TestDeclaredLengthBoundsThePresize(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		conn, _, err := w.(http.Hijacker).Hijack()
		if err != nil {
			t.Error(err)
			return
		}
		defer conn.Close()
		fmt.Fprintf(conn, "HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n0123456789", int64(1)<<40)
	}))
	defer ts.Close()
	c := New(ts.URL)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	var data []byte
	err := c.Call(context.Background(), http.MethodGet, "/", nil, &data)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, io.ErrUnexpectedEOF) || data != nil {
		t.Fatalf("short body: %q, %v; want no answer and io.ErrUnexpectedEOF", data, err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > maxPresize {
		t.Fatalf("a declared terabyte made the exchange allocate %d bytes, over the %d cap", grew, maxPresize)
	}
}

// TestSizedReadReusesTheConnection: a body read into its Content-Length
// buffer is still read to EOF, so the transport hands the connection
// back and consecutive calls share it.
func TestSizedReadReusesTheConnection(t *testing.T) {
	var conns atomic.Int64
	ts := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"n": 7}`))
	}))
	ts.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			conns.Add(1)
		}
	}
	ts.Start()
	defer ts.Close()
	c := New(ts.URL)
	for i := 0; i < 3; i++ {
		var data []byte
		if err := c.Call(context.Background(), http.MethodGet, "/", nil, &data); err != nil || string(data) != `{"n": 7}` {
			t.Fatalf("call %d: %q, %v", i, data, err)
		}
	}
	if n := conns.Load(); n != 1 {
		t.Fatalf("three calls opened %d connections, want 1", n)
	}
}
