package main

import (
	"strings"
	"testing"

	"repro/internal/run"
)

// defaults is the command line with no flags given.
var defaults = run.Spec{
	Nodes: 2, WorkersPerNode: 8, LPsPerWorker: 32, GVT: "mattern", Comm: "dedicated",
	Scenario: "comp", EndTime: 40, GVTInterval: 4, CAThreshold: 0.80, Seed: 1,
}

// TestFlagSpec: a flag set to zero or below, or a threshold above 1, is
// an error naming it, not the spec's default, and a valid command line
// becomes the spec it says.
func TestFlagSpec(t *testing.T) {
	for _, c := range []struct {
		name      string
		set       func(*run.Spec)
		sync, mix string
		err       string // "": valid
	}{
		{"defaults", func(*run.Spec) {}, "timewarp", "10,15", ""},
		{"nodes 0", func(s *run.Spec) { s.Nodes = 0 }, "timewarp", "10,15", "-nodes"},
		{"workers 0", func(s *run.Spec) { s.WorkersPerNode = 0 }, "timewarp", "10,15", "-workers"},
		{"lps -1", func(s *run.Spec) { s.LPsPerWorker = -1 }, "timewarp", "10,15", "-lps"},
		{"end 0", func(s *run.Spec) { s.EndTime = 0 }, "timewarp", "10,15", "-end"},
		{"interval 0", func(s *run.Spec) { s.GVTInterval = 0 }, "timewarp", "10,15", "-interval"},
		{"threshold 0", func(s *run.Spec) { s.CAThreshold = 0 }, "timewarp", "10,15", "-threshold"},
		{"threshold 1.5", func(s *run.Spec) { s.CAThreshold = 1.5 }, "timewarp", "10,15", "-threshold"},
		{"threshold 1", func(s *run.Spec) { s.CAThreshold = 1 }, "timewarp", "10,15", ""},
		{"mix 10,0", func(s *run.Spec) { s.Scenario = "mixed" }, "timewarp", "10,0", "-mix"},
		{"mix 200,0", func(s *run.Spec) { s.Scenario = "mixed" }, "timewarp", "200,0", "-mix"},
		{"mix -5,15", func(s *run.Spec) { s.Scenario = "mixed" }, "timewarp", "-5,15", "-mix"},
		{"mix 10", func(s *run.Spec) { s.Scenario = "mixed" }, "timewarp", "10", "-mix"},
		{"mix 10,x", func(s *run.Spec) { s.Scenario = "mixed" }, "timewarp", "10,x", "-mix"},
		{"mix 20,5", func(s *run.Spec) { s.Scenario = "mixed" }, "timewarp", "20, 5", ""},
		{"mix unused", func(*run.Spec) {}, "timewarp", "0,0", ""},
		{"nullmsg", func(*run.Spec) {}, "nullmsg", "10,15", ""},
	} {
		in := defaults
		c.set(&in)
		spec, err := flagSpec(in, c.sync, c.mix)
		if c.err != "" {
			if err == nil || !strings.Contains(err.Error(), c.err) {
				t.Errorf("%s: error %v, want one naming %s", c.name, err, c.err)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		want := in
		if c.sync != "timewarp" {
			want.Engine, want.Sync = "conservative", c.sync
		}
		if in.Scenario == "mixed" {
			want.MixComp, want.MixComm = 20, 5
		}
		if spec != want {
			t.Errorf("%s: spec %+v, want %+v", c.name, spec, want)
		}
		if _, err := spec.Canonical(); err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
	}
}
