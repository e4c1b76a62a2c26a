package main

import (
	"strings"
	"testing"

	"repro/internal/harness"
)

// TestCheckOptions: a flag set to a value the run spec would read as "the
// default" is an error naming the flag, and the defaults pass.
func TestCheckOptions(t *testing.T) {
	for _, c := range []struct {
		name string
		set  func(*harness.Options)
		err  string // "": valid
	}{
		{"defaults", func(*harness.Options) {}, ""},
		{"interval 0", func(o *harness.Options) { o.GVTInterval = 0 }, ""},
		{"threshold 1", func(o *harness.Options) { o.CAThreshold = 1 }, ""},
		{"workers 0", func(o *harness.Options) { o.WorkersPerNode = 0 }, "-workers"},
		{"lps 0", func(o *harness.Options) { o.LPsPerWorker = 0 }, "-lps"},
		{"end 0", func(o *harness.Options) { o.EndTime = 0 }, "-end"},
		{"end -1", func(o *harness.Options) { o.EndTime = -1 }, "-end"},
		{"jobs 0", func(o *harness.Options) { o.Jobs = 0 }, "-jobs"},
		{"interval -1", func(o *harness.Options) { o.GVTInterval = -1 }, "-interval"},
		{"threshold 0", func(o *harness.Options) { o.CAThreshold = 0 }, "-threshold"},
		{"threshold 1.5", func(o *harness.Options) { o.CAThreshold = 1.5 }, "-threshold"},
	} {
		opt := harness.DefaultOptions()
		opt.Jobs = 1
		c.set(&opt)
		err := checkOptions(opt)
		if c.err == "" {
			if err != nil {
				t.Errorf("%s: %v", c.name, err)
			}
		} else if err == nil || !strings.Contains(err.Error(), c.err) {
			t.Errorf("%s: error %v, want one naming %s", c.name, err, c.err)
		}
	}
}
