package simd

import (
	"encoding/json"
	"strings"
	"testing"
)

func mustHash(t *testing.T, s JobSpec) string {
	t.Helper()
	h, err := s.Hash()
	if err != nil {
		t.Fatalf("Hash(%+v): %v", s, err)
	}
	return h
}

// TestHashIgnoresJSONFieldOrder decodes two documents whose fields are
// permuted and expects identical content addresses.
func TestHashIgnoresJSONFieldOrder(t *testing.T) {
	a := `{"model":"phold","nodes":2,"gvt":"mattern","seed":7,"end_time":10}`
	b := `{"seed":7,"end_time":10,"gvt":"mattern","model":"phold","nodes":2}`
	var sa, sb JobSpec
	if err := json.Unmarshal([]byte(a), &sa); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(b), &sb); err != nil {
		t.Fatal(err)
	}
	if mustHash(t, sa) != mustHash(t, sb) {
		t.Fatal("field order changed the hash")
	}
}

// TestHashOmittedEqualsExplicitDefaults is the canonicalization
// contract: stating a default is the same as omitting it.
func TestHashOmittedEqualsExplicitDefaults(t *testing.T) {
	minimal := JobSpec{}
	explicit := JobSpec{
		Model: "phold", Scenario: "comp",
		Nodes: 2, WorkersPerNode: 4, LPsPerWorker: 8,
		GVT: "mattern", Comm: "dedicated", GVTInterval: 4, CAThreshold: 0.80,
		EndTime: 20, Seed: 1, Queue: "heap", Pool: "on",
		BatchSize: 16, CheckpointInterval: 1, MaxUncommitted: 64,
	}
	if mustHash(t, minimal) != mustHash(t, explicit) {
		t.Fatal("explicit defaults hash differently from omitted fields")
	}
}

// TestHashAliasesCollapse: alias spellings are not semantic.
func TestHashAliasesCollapse(t *testing.T) {
	base := JobSpec{GVT: "ca-gvt"}
	for _, alias := range []string{"ca", "cagvt", "CA-GVT", " ca "} {
		if mustHash(t, base) != mustHash(t, JobSpec{GVT: alias}) {
			t.Fatalf("alias %q hashes differently from ca-gvt", alias)
		}
	}
	if mustHash(t, JobSpec{Faults: "none"}) != mustHash(t, JobSpec{}) {
		t.Fatal(`faults "none" is not the fault-free default`)
	}
	if mustHash(t, JobSpec{Balance: "static"}) != mustHash(t, JobSpec{}) ||
		mustHash(t, JobSpec{Balance: "none"}) != mustHash(t, JobSpec{}) {
		t.Fatal(`balance "static"/"none" is not the static default`)
	}
	if mustHash(t, JobSpec{Model: "PHOLD"}) != mustHash(t, JobSpec{}) {
		t.Fatal("model is case-sensitive")
	}
}

// TestHashClearsInertFields: fields without meaning for the chosen
// model or algorithm must not split the address space.
func TestHashClearsInertFields(t *testing.T) {
	if mustHash(t, JobSpec{Model: "pcs"}) != mustHash(t, JobSpec{Model: "pcs", Scenario: "comm"}) {
		t.Fatal("scenario split the hash for a non-phold model")
	}
	if mustHash(t, JobSpec{GVT: "mattern", CAThreshold: 0.5}) != mustHash(t, JobSpec{GVT: "mattern"}) {
		t.Fatal("ca_threshold split the hash for a non-CA algorithm")
	}
	if mustHash(t, JobSpec{Scenario: "comp", MixComp: 30}) != mustHash(t, JobSpec{Scenario: "comp"}) {
		t.Fatal("mix fractions split the hash outside the mixed scenario")
	}
	for _, pool := range []string{"off", "debug"} {
		if mustHash(t, JobSpec{Scenario: "mixed", Pool: pool}) != mustHash(t, JobSpec{Scenario: "mixed"}) {
			t.Fatalf("pool %q split the hash: every pool mode is the same run", pool)
		}
	}
	if mustHash(t, JobSpec{Scenario: "mixed", WatchdogMicros: 500}) != mustHash(t, JobSpec{Scenario: "mixed"}) {
		t.Fatal("watchdog_us split the hash: no GVT watchdog is left to time")
	}
}

// TestHashChangesWithEverySemanticField mutates each semantic field and
// expects a fresh address every time.
func TestHashChangesWithEverySemanticField(t *testing.T) {
	base := JobSpec{Scenario: "mixed"} // mixed so the mix fields are live
	seen := map[string]string{"base": mustHash(t, base)}
	add := func(name string, s JobSpec) {
		h := mustHash(t, s)
		for prev, ph := range seen {
			if ph == h {
				t.Fatalf("mutation %q collides with %q", name, prev)
			}
		}
		seen[name] = h
	}
	add("model", JobSpec{Model: "pcs"})
	add("scenario", JobSpec{Scenario: "comm"})
	add("mix_comp", JobSpec{Scenario: "mixed", MixComp: 20})
	add("mix_comm", JobSpec{Scenario: "mixed", MixComm: 20})
	add("nodes", JobSpec{Scenario: "mixed", Nodes: 4})
	add("workers", JobSpec{Scenario: "mixed", WorkersPerNode: 2})
	add("lps", JobSpec{Scenario: "mixed", LPsPerWorker: 16})
	add("gvt", JobSpec{Scenario: "mixed", GVT: "barrier"})
	add("comm", JobSpec{Scenario: "mixed", Comm: "shared"})
	add("interval", JobSpec{Scenario: "mixed", GVTInterval: 8})
	add("threshold", JobSpec{Scenario: "mixed", GVT: "ca"})
	add("threshold2", JobSpec{Scenario: "mixed", GVT: "ca", CAThreshold: 0.5})
	add("end", JobSpec{Scenario: "mixed", EndTime: 30})
	add("seed", JobSpec{Scenario: "mixed", Seed: 99})
	add("queue", JobSpec{Scenario: "mixed", Queue: "calendar"})
	add("batch", JobSpec{Scenario: "mixed", BatchSize: 8})
	add("checkpoint", JobSpec{Scenario: "mixed", CheckpointInterval: 4})
	add("uncommitted", JobSpec{Scenario: "mixed", MaxUncommitted: 128})
	add("faults", JobSpec{Scenario: "mixed", Faults: "drop"})
	add("balance", JobSpec{Scenario: "mixed", Balance: "greedy"})
}

// TestCanonicalIdempotent: canonicalizing twice is a fixed point.
func TestCanonicalIdempotent(t *testing.T) {
	specs := []JobSpec{
		{},
		{Model: "EPIDEMIC", GVT: "CA", Faults: "NONE", Balance: "Static"},
		{Scenario: "mixed", MaxUncommitted: -5},
		{Engine: "Conservative", Sync: "CMB"},
		{Model: "tandem", Sync: "window"},
	}
	for _, s := range specs {
		once, err := s.Canonical()
		if err != nil {
			t.Fatalf("Canonical(%+v): %v", s, err)
		}
		twice, err := once.Canonical()
		if err != nil {
			t.Fatalf("Canonical^2(%+v): %v", s, err)
		}
		if once != twice {
			t.Fatalf("not idempotent:\nonce  %+v\ntwice %+v", once, twice)
		}
	}
}

// TestCanonicalRejects enumerates invalid specs.
func TestCanonicalRejects(t *testing.T) {
	bad := map[string]JobSpec{
		"model":          {Model: "chess"},
		"scenario":       {Scenario: "storm"},
		"gvt":            {GVT: "quantum"},
		"comm":           {Comm: "telepathy"},
		"queue":          {Queue: "stack"},
		"pool":           {Pool: "maybe"},
		"faults":         {Faults: "asteroid"},
		"balance":        {Balance: "chaotic"},
		"interval":       {GVTInterval: 1},
		"threshold":      {GVT: "ca", CAThreshold: 1.5},
		"mix-sum":        {Scenario: "mixed", MixComp: 60, MixComm: 60},
		"neg-end":        {EndTime: -1},
		"neg-nodes":      {Nodes: -2},
		"neg-batch":      {BatchSize: -1},
		"neg-interval":   {GVTInterval: -3},
		"neg-checkpt":    {CheckpointInterval: -2},
		"mixed-nonsense": {Scenario: "mixed", MixComp: -1, MixComm: 5},
	}
	for name, s := range bad {
		if _, err := s.Canonical(); err == nil {
			t.Errorf("%s: invalid spec %+v accepted", name, s)
		}
		if _, err := s.Hash(); err == nil {
			t.Errorf("%s: invalid spec %+v hashed", name, s)
		}
	}
}

// TestEngineCanonicalization pins the engine/sync folding rules: naming
// a conservative protocol implies the engine, aliases collapse, and the
// model's declared lookahead is the default bound.
func TestEngineCanonicalization(t *testing.T) {
	c, err := (JobSpec{Sync: "window"}).Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if c.Engine != "conservative" || c.Sync != "window" {
		t.Fatalf("sync window folded to engine=%q sync=%q", c.Engine, c.Sync)
	}
	c, err = (JobSpec{Engine: "conservative"}).Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if c.Sync != "nullmsg" {
		t.Fatalf("default sync %q, want nullmsg", c.Sync)
	}
	if c.Lookahead != 0.1 { // phold's declared lookahead
		t.Fatalf("default lookahead %v, want 0.1", c.Lookahead)
	}
	if c.GVT != "" || c.GVTInterval != 0 || c.CAThreshold != 0 ||
		c.Pool != "" || c.CheckpointInterval != 0 || c.MaxUncommitted != 0 {
		t.Fatalf("rollback-machinery fields not cleared: %+v", c)
	}
	for model, la := range map[string]float64{"pcs": 0.01, "epidemic": 0.2, "tandem": 0.05} {
		c, err := (JobSpec{Engine: "conservative", Model: model}).Canonical()
		if err != nil {
			t.Fatal(err)
		}
		if c.Lookahead != la {
			t.Errorf("%s default lookahead %v, want %v", model, c.Lookahead, la)
		}
	}
	if mustHash(t, JobSpec{Sync: "cmb"}) != mustHash(t, JobSpec{Engine: "conservative", Sync: "nullmsg"}) {
		t.Fatal(`alias "cmb" hashes differently from nullmsg`)
	}
	if mustHash(t, JobSpec{Engine: "timewarp"}) != mustHash(t, JobSpec{}) {
		t.Fatal("explicit timewarp hashes differently from the default")
	}
	if mustHash(t, JobSpec{Engine: "conservative", Lookahead: 0.1}) != mustHash(t, JobSpec{Engine: "conservative"}) {
		t.Fatal("stating the default lookahead split the hash")
	}
	if mustHash(t, JobSpec{Engine: "conservative", Pool: "", CheckpointInterval: 0}) !=
		mustHash(t, JobSpec{Engine: "conservative"}) {
		t.Fatal("inert rollback knobs split the conservative hash")
	}
}

// TestConservativeTwinHashesDiffer is the content-address contract for
// the cross-paradigm grid: a conservative spec and its Time Warp twin
// are distinct results, as are the two conservative protocols and any
// lookahead change.
func TestConservativeTwinHashesDiffer(t *testing.T) {
	tw := mustHash(t, JobSpec{})
	nm := mustHash(t, JobSpec{Engine: "conservative"})
	wd := mustHash(t, JobSpec{Engine: "conservative", Sync: "window"})
	la := mustHash(t, JobSpec{Engine: "conservative", Lookahead: 0.05})
	seen := map[string]string{"timewarp": tw, "nullmsg": nm, "window": wd, "lookahead": la}
	for a, ha := range seen {
		for b, hb := range seen {
			if a != b && ha == hb {
				t.Fatalf("%s and %s share a content address", a, b)
			}
		}
	}
}

// TestEngineRejects enumerates invalid engine/sync combinations.
func TestEngineRejects(t *testing.T) {
	bad := map[string]JobSpec{
		"engine":        {Engine: "psychic"},
		"sync":          {Engine: "conservative", Sync: "vibes"},
		"tw-sync":       {Engine: "timewarp", Sync: "nullmsg"},
		"tw-lookahead":  {Lookahead: 0.5},
		"neg-lookahead": {Engine: "conservative", Lookahead: -1},
		"cons-comm":     {Engine: "conservative", Comm: "shared"},
		"cons-faults":   {Engine: "conservative", Faults: "drop"},
		"cons-balance":  {Engine: "conservative", Balance: "greedy"},
	}
	for name, s := range bad {
		if _, err := s.Canonical(); err == nil {
			t.Errorf("%s: invalid spec %+v accepted", name, s)
		}
	}
}

// TestHashIsHex: the content address is a full SHA-256 hex string.
func TestHashIsHex(t *testing.T) {
	h := mustHash(t, JobSpec{})
	if len(h) != 64 || strings.Trim(h, "0123456789abcdef") != "" {
		t.Fatalf("hash %q is not 64 hex chars", h)
	}
}
