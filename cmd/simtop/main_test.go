package main

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/pkg/client"
)

// TestCheckFlags: an interval or row count the monitor cannot honour is an
// error naming the flag, and the defaults and edge values pass.
func TestCheckFlags(t *testing.T) {
	for _, c := range []struct {
		name     string
		interval time.Duration
		rows     int
		err      string // "": valid
	}{
		{"defaults", time.Second, 12, ""},
		{"jobs 0", time.Second, 0, ""},
		{"interval 1ns", time.Nanosecond, 12, ""},
		{"jobs -1", time.Second, -1, "-jobs"},
		{"interval 0", 0, 12, "-interval"},
		{"interval -1s", -time.Second, 12, "-interval"},
	} {
		err := checkFlags(c.interval, c.rows)
		if c.err == "" {
			if err != nil {
				t.Errorf("%s: %v", c.name, err)
			}
		} else if err == nil || !strings.Contains(err.Error(), c.err) {
			t.Errorf("%s: error %v, want one naming %s", c.name, err, c.err)
		}
	}
}

// TestPollRetryBacksOffThenSucceeds: a poll that fails is retried, after a
// growing delay, until one succeeds; once the attempts are spent the last
// error comes back.
func TestPollRetryBacksOffThenSucceeds(t *testing.T) {
	var stats, failing atomic.Int64
	failing.Store(2)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/stats":
			if stats.Add(1); failing.Add(-1) >= 0 {
				http.Error(w, "starting", http.StatusServiceUnavailable)
				return
			}
		case "/metrics":
			return // an empty exposition
		}
		w.Write([]byte("{}"))
	}))
	defer ts.Close()
	c := client.New(ts.URL)
	start := time.Now()
	if f, err := pollRetry(c, 5); err != nil || f == nil || stats.Load() != 3 {
		t.Fatalf("pollRetry: frame %v, err %v after %d polls; want a frame after 3", f, err, stats.Load())
	}
	if d := time.Since(start); d < 750*time.Millisecond {
		t.Errorf("two retries took %v, want the 250 ms and 500 ms backoffs", d)
	}

	failing.Store(1 << 30)
	var se *client.APIError
	if _, err := pollRetry(c, 2); !errors.As(err, &se) || se.Status != http.StatusServiceUnavailable {
		t.Fatalf("exhausted pollRetry returned %v, want the last poll's 503", err)
	}
}
