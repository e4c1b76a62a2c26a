package run

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// pinnedSpecs is canonical JSON and content addresses captured at the
// commit before Spec moved out of internal/simd. The disk store is
// addressed by these hashes, so one shifting orphans every stored result
// of that shape. Each hash is the SHA-256 of its canonical JSON, which is
// what json.Marshal writes for the canonical spec. Two rows moved on
// purpose, each when a field became inert, and
// TestRecoverRetiresARehashedBegin replays both as they were:
// "negative max_uncommitted" asks for "pool":"debug", which now
// canonicalises to "on" because every pool mode is the same run (its hash
// was 0977b900…30a1bb), and "nullmsg explicit lookahead" asks for
// "queue":"calendar", which now canonicalises to "heap" because every
// engine holds its pending events in one heap (its hash was
// 18d70400…10b5d43f).
var pinnedSpecs = []struct{ name, in, canon, hash string }{
	{"defaults",
		`{}`,
		`{"batch_size":16,"ca_threshold":0.8,"checkpoint_interval":1,"comm":"dedicated","end_time":20,"engine":"timewarp","gvt":"mattern","gvt_interval":4,"lps_per_worker":8,"max_uncommitted":64,"model":"phold","nodes":2,"pool":"on","queue":"heap","scenario":"comp","seed":1,"workers_per_node":4}`,
		"74daea3c3d7bacba62413943f8a3911221b17de6e8bb21b09524e76fe102a168"},
	{"pcs",
		`{"model":"pcs","nodes":2,"workers_per_node":2,"lps_per_worker":4}`,
		`{"batch_size":16,"ca_threshold":0.8,"checkpoint_interval":1,"comm":"dedicated","end_time":20,"engine":"timewarp","gvt":"mattern","gvt_interval":4,"lps_per_worker":4,"max_uncommitted":32,"model":"pcs","nodes":2,"pool":"on","queue":"heap","seed":1,"workers_per_node":2}`,
		"f83a380889c02c48916be576148ee15fd7c1e7824cdbb0ae1224d2885c56384e"},
	{"epidemic",
		`{"model":"epidemic","scenario":"comm","seed":9}`,
		`{"batch_size":16,"ca_threshold":0.8,"checkpoint_interval":1,"comm":"dedicated","end_time":20,"engine":"timewarp","gvt":"mattern","gvt_interval":4,"lps_per_worker":8,"max_uncommitted":64,"model":"epidemic","nodes":2,"pool":"on","queue":"heap","seed":9,"workers_per_node":4}`,
		"487a3dbdd8b2f66c944775debb73f083c1f82e63579ec07fc7338fa8774eeb04"},
	{"tandem",
		`{"model":"tandem","end_time":12.5}`,
		`{"batch_size":16,"ca_threshold":0.8,"checkpoint_interval":1,"comm":"dedicated","end_time":12.5,"engine":"timewarp","gvt":"mattern","gvt_interval":4,"lps_per_worker":8,"max_uncommitted":64,"model":"tandem","nodes":2,"pool":"on","queue":"heap","seed":1,"workers_per_node":4}`,
		"0bea82b8fca06e2fbfdb7fb56b4a488ca0863299af9058290a8a905b120ed970"},
	{"alias ca",
		`{"gvt":"ca","ca_threshold":0.7}`,
		`{"batch_size":16,"ca_threshold":0.7,"checkpoint_interval":1,"comm":"dedicated","end_time":20,"engine":"timewarp","gvt":"ca-gvt","gvt_interval":4,"lps_per_worker":8,"max_uncommitted":64,"model":"phold","nodes":2,"pool":"on","queue":"heap","scenario":"comp","seed":1,"workers_per_node":4}`,
		"5b83a10d65cb08a3348db7e73fa9f7a1c368315110eeed67a703867a23b02204"},
	{"alias cagvt",
		`{"gvt":" CAGVT ","comm":"Combined"}`,
		`{"batch_size":16,"ca_threshold":0.8,"checkpoint_interval":1,"comm":"combined","end_time":20,"engine":"timewarp","gvt":"ca-gvt","gvt_interval":4,"lps_per_worker":8,"max_uncommitted":64,"model":"phold","nodes":2,"pool":"on","queue":"heap","scenario":"comp","seed":1,"workers_per_node":4}`,
		"759cd48f0de35cd769ab933dce3a20792da57cd0876d210e8aac8b0ec0d61cce"},
	{"alias cmb",
		`{"sync":"cmb"}`,
		`{"batch_size":16,"comm":"dedicated","end_time":20,"engine":"conservative","lookahead":0.1,"lps_per_worker":8,"model":"phold","nodes":2,"queue":"heap","scenario":"comp","seed":1,"sync":"nullmsg","workers_per_node":4}`,
		"3c918962e1afaee3bc4e41b6317997fa6f384d9706b03f696fb59900f909f823"},
	{"mixed",
		`{"scenario":"mixed","mix_comp":15,"gvt":"ca-gvt","gvt_interval":8}`,
		`{"batch_size":16,"ca_threshold":0.8,"checkpoint_interval":1,"comm":"dedicated","end_time":20,"engine":"timewarp","gvt":"ca-gvt","gvt_interval":8,"lps_per_worker":8,"max_uncommitted":64,"mix_comm":15,"mix_comp":15,"model":"phold","nodes":2,"pool":"on","queue":"heap","scenario":"mixed","seed":1,"workers_per_node":4}`,
		"19c740caa051e6ce9df201e0fee8189dc875db371d058ea303f5145de17061e9"},
	{"nullmsg default lookahead",
		`{"engine":"conservative","model":"pcs","gvt":"barrier","pool":"off"}`,
		`{"batch_size":16,"comm":"dedicated","end_time":20,"engine":"conservative","lookahead":0.01,"lps_per_worker":8,"model":"pcs","nodes":2,"queue":"heap","seed":1,"sync":"nullmsg","workers_per_node":4}`,
		"f4a78a864d0d3dcf47cde267dded80cb7759ba934680f103609e398a00b80fd9"},
	{"nullmsg explicit lookahead",
		`{"engine":"conservative","sync":"nullmsg","lookahead":0.05,"queue":"calendar"}`,
		`{"batch_size":16,"comm":"dedicated","end_time":20,"engine":"conservative","lookahead":0.05,"lps_per_worker":8,"model":"phold","nodes":2,"queue":"heap","scenario":"comp","seed":1,"sync":"nullmsg","workers_per_node":4}`,
		"d73e908d03a8a52602af833637b4b9a60245377aff6a6378ba8a9aca1876e3c9"},
	{"window default lookahead",
		`{"sync":"window","model":"tandem","nodes":4}`,
		`{"batch_size":16,"comm":"dedicated","end_time":20,"engine":"conservative","lookahead":0.05,"lps_per_worker":8,"model":"tandem","nodes":4,"queue":"heap","seed":1,"sync":"window","workers_per_node":4}`,
		"bcdec13db71b6d8701a69be9df1c0055a8752e18d043c358c49c094fb3e0a6ca"},
	{"window explicit lookahead",
		`{"sync":"window","lookahead":0.25,"batch_size":8}`,
		`{"batch_size":8,"comm":"dedicated","end_time":20,"engine":"conservative","lookahead":0.25,"lps_per_worker":8,"model":"phold","nodes":2,"queue":"heap","scenario":"comp","seed":1,"sync":"window","workers_per_node":4}`,
		"3d28929f551ff23c68ac8b63ecf59c4ea661a2245ff72d2faec8dd7a512501f7"},
	{"faults balance watchdog",
		`{"gvt":"ca","faults":"straggler","balance":"greedy","watchdog_us":1500,"end_time":60}`,
		`{"balance":"greedy","batch_size":16,"ca_threshold":0.8,"checkpoint_interval":1,"comm":"dedicated","end_time":60,"engine":"timewarp","faults":"straggler","gvt":"ca-gvt","gvt_interval":4,"lps_per_worker":8,"max_uncommitted":64,"model":"phold","nodes":2,"pool":"on","queue":"heap","scenario":"comp","seed":1,"workers_per_node":4}`,
		"ffda73a725c2b49f07c84449b1c4a77ee94e1568cacd9f86fcf9c93dfbd1c1f5"},
	{"negative max_uncommitted",
		`{"max_uncommitted":-7,"checkpoint_interval":4,"pool":"debug","gvt":"samadi"}`,
		`{"batch_size":16,"ca_threshold":0.8,"checkpoint_interval":4,"comm":"dedicated","end_time":20,"engine":"timewarp","gvt":"samadi","gvt_interval":4,"lps_per_worker":8,"max_uncommitted":-1,"model":"phold","nodes":2,"pool":"on","queue":"heap","scenario":"comp","seed":1,"workers_per_node":4}`,
		"bb208c5ec6ae0bb9ea64db4cc6844f5a8b4a2b765978ad29d382bb41a344e45c"},
	{"none folds",
		`{"faults":"none","balance":"static","gvt":"barrier","comm":"shared"}`,
		`{"batch_size":16,"ca_threshold":0.8,"checkpoint_interval":1,"comm":"shared","end_time":20,"engine":"timewarp","gvt":"barrier","gvt_interval":4,"lps_per_worker":8,"max_uncommitted":64,"model":"phold","nodes":2,"pool":"on","queue":"heap","scenario":"comp","seed":1,"workers_per_node":4}`,
		"b4962ca1debd95024f58134a21bc63dcc5c6370bebcc11b39eddf0f933264905"},
}

func TestCanonicalAndHashPinned(t *testing.T) {
	for _, p := range pinnedSpecs {
		var s Spec
		if err := json.Unmarshal([]byte(p.in), &s); err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		c, _, hash, err := s.Address()
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		if raw, _ := json.Marshal(c); string(raw) != p.canon {
			t.Errorf("%s: canonical JSON moved\n got %s\nwant %s", p.name, raw, p.canon)
		}
		if hash != p.hash {
			t.Errorf("%s: hash %s, want %s", p.name, hash, p.hash)
		}
		if sum := sha256.Sum256([]byte(p.canon)); hex.EncodeToString(sum[:]) != p.hash {
			t.Errorf("%s: pinned hash is not the SHA-256 of the pinned canonical JSON", p.name)
		}
	}
}

// TestCanonicalRejectsOverflow: a spec whose numbers wrap when the engine
// multiplies them is invalid, not a different run. A topology's worker or
// LP total that overflows an int (and so could read as 0 to an admission
// cap) or passes what event.LPID addresses is rejected; the largest
// values that fit are not, and neither is any watchdog_us (inert).
func TestCanonicalRejectsOverflow(t *testing.T) {
	for _, c := range []struct {
		doc string
		ok  bool
	}{
		{`{"nodes":2,"workers_per_node":1099511627776,"lps_per_worker":8388608}`, false},
		{`{"nodes":64,"workers_per_node":4294967296,"lps_per_worker":4294967296}`, false},
		{`{"nodes":4611686018427387904,"workers_per_node":2,"lps_per_worker":1}`, false},
		{`{"nodes":1,"workers_per_node":65537,"lps_per_worker":65536}`, false},
		{`{"nodes":2,"workers_per_node":65536,"lps_per_worker":32768}`, true},
		{`{"faults":"drop","watchdog_us":9223372036854775}`, true},
	} {
		var s Spec
		if err := json.Unmarshal([]byte(c.doc), &s); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Canonical(); (err == nil) != c.ok {
			t.Errorf("%s: accepted %v, want %v (%v)", c.doc, err == nil, c.ok, err)
		}
	}
}

// TestSpecFieldsInKeyOrder holds Spec to the declaration order Address
// relies on: json.Marshal writes fields as declared, so they must be
// declared in strictly ascending order of their JSON keys for its output
// to be canonical JSON.
func TestSpecFieldsInKeyOrder(t *testing.T) {
	typ := reflect.TypeOf(Spec{})
	prev := ""
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		key, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		if key == "" || key == "-" {
			t.Fatalf("field %s has no JSON key", f.Name)
		}
		if key <= prev {
			t.Errorf("field %s (%q) is declared after %q; declare Spec's fields in ascending key order", f.Name, key, prev)
		}
		prev = key
	}
}

// BenchmarkSpecAddress: canonicalise and hash a submitted spec — what
// every submission, a cache hit included, pays before its lookup.
func BenchmarkSpecAddress(b *testing.B) {
	s := Spec{Seed: 42}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := s.Address(); err != nil {
			b.Fatal(err)
		}
	}
}
