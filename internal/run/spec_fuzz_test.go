package run

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/metrics"
)

// FuzzSpecCanonical feeds two arbitrary JSON documents through the
// path every submitted spec takes — decode, Canonical, Address — and
// holds it to what the result cache and the disk store rely on: nothing
// panics, Canonical is idempotent (a canonical spec addresses to itself),
// json.Marshal of a canonical spec is already canonical JSON (Address
// hashes it as it comes), and two specs share a content address exactly
// when their canonical JSON is equal. Canonical is also the only
// validator a spec passes through, so every spec it accepts builds: New
// returns an engine without panicking (checked up to 256 LPs, where
// building is cheap), and the inert pool and watchdog_us fields never
// move the address.
func FuzzSpecCanonical(f *testing.F) {
	for i, p := range pinnedSpecs {
		f.Add(p.in, p.canon)                                // the same spec twice
		f.Add(p.in, pinnedSpecs[(i+1)%len(pinnedSpecs)].in) // two different specs
	}
	f.Add(`{"end_time":-4}`, `{"model":"chess"}`)
	f.Add(`{"nodes":1e9,"lookahead":1e-320}`, `{"seed":18446744073709551615,"mix_comp":101}`)
	// Every string field, in the spellings Canonical folds.
	f.Add(`{"engine":" TimeWarp ","model":"PHOLD","scenario":"Mixed","gvt":"Samadi","comm":"SHARED","queue":"Calendar","pool":"Debug","faults":"CHAOS","balance":"Straggler-Aware"}`,
		`{"engine":"Conservative","sync":" CMB","model":"Epidemic","faults":"None","balance":"Static"}`)
	f.Add(`{"faults":"partition","balance":"gr\u0065edy","mix_comm":1e-7,"scenario":"mixed"}`,
		`{"faults":"duplicate","balance":"straggler","end_time":1e21,"ca_threshold":5e-324,"gvt":"ca"}`)
	// Products that wrap, and watchdog timeouts (inert) past virtual time.
	f.Add(`{"nodes":2,"workers_per_node":1099511627776,"lps_per_worker":8388608}`,
		`{"nodes":64,"workers_per_node":4294967296,"lps_per_worker":4294967296}`)
	f.Add(`{"faults":"drop","watchdog_us":9300000000000000}`, `{"faults":"chaos","watchdog_us":9223372036854775,"nodes":1}`)
	f.Fuzz(func(t *testing.T, a, b string) {
		ca, ha, ok := address(t, a)
		if !ok {
			return
		}
		cb, hb, ok := address(t, b)
		if !ok {
			return
		}
		if (ca == cb) != (ha == hb) {
			t.Fatalf("canonical JSON equal: %v, hashes equal: %v\n a %s -> %s\n b %s -> %s",
				ca == cb, ha == hb, ca, ha, cb, hb)
		}
	})
}

// address decodes doc and returns its canonical JSON and content
// address, having checked that canonicalising is idempotent and that the
// encoding is canonical; ok is false for a document that is not a valid
// spec.
func address(t *testing.T, doc string) (canon, hash string, ok bool) {
	var s Spec
	if json.Unmarshal([]byte(doc), &s) != nil {
		return "", "", false
	}
	c, hash, err := s.Address()
	if err != nil {
		return "", "", false
	}
	raw, err := json.Marshal(c)
	if err != nil {
		t.Fatalf("canonical spec of %s does not marshal: %v", doc, err)
	}
	if cj, err := metrics.CanonicalJSON(raw); err != nil || !bytes.Equal(cj, raw) {
		t.Fatalf("json.Marshal of the canonical spec of %s is not canonical JSON (%v):\n got  %s\n want %s", doc, err, raw, cj)
	}
	c2, hash2, err := c.Address()
	if err != nil {
		t.Fatalf("canonical spec %s is itself rejected: %v", raw, err)
	}
	if raw2, _ := json.Marshal(c2); string(raw2) != string(raw) || hash2 != hash {
		t.Fatalf("Canonical is not idempotent on %s:\n once  %s %s\n twice %s %s", doc, raw, hash, raw2, hash2)
	}
	for i, pool := range []string{"on", "off", "debug"} {
		v := s
		v.Pool, v.WatchdogMicros = pool, int64(i)*1500-1
		if h, err := v.Hash(); err != nil || h != hash {
			t.Fatalf("%s addresses to %s, but to %s (%v) with pool %q, watchdog_us %d", doc, hash, h, err, pool, v.WatchdogMicros)
		}
	}
	if c.Topology().TotalLPs() <= 256 {
		if _, err := New(s, Attach{}); err != nil {
			t.Fatalf("Canonical accepts %s but New refuses it: %v", doc, err)
		}
	}
	return string(raw), hash, true
}
