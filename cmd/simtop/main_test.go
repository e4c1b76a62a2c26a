package main

import (
	"strings"
	"testing"
	"time"
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
