package metrics

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
)

func TestCanonicalJSONSortsAndCompacts(t *testing.T) {
	in := []byte("{\n \"b\": 1,\n \"a\": {\"z\": [1, 2,  3], \"y\": null},\n \"c\": \"x\"\n}")
	got, err := CanonicalJSON(in)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"a":{"y":null,"z":[1,2,3]},"b":1,"c":"x"}`
	if string(got) != want {
		t.Fatalf("canonical = %s, want %s", got, want)
	}
}

func TestCanonicalJSONKeyOrderInsensitive(t *testing.T) {
	a := []byte(`{"x":1,"y":{"p":true,"q":[{"k":1,"j":2}]}}`)
	b := []byte(`{"y":{"q":[{"j":2,"k":1}],"p":true},"x":1}`)
	ca, err := CanonicalJSON(a)
	if err != nil {
		t.Fatal(err)
	}
	cb, err := CanonicalJSON(b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ca, cb) {
		t.Fatalf("canonical forms differ:\n%s\n%s", ca, cb)
	}
}

func TestCanonicalJSONPreservesBigIntegers(t *testing.T) {
	// 2^63-1 and a uint64 seed beyond float64's exact range must survive.
	in := []byte(`{"wall_ns":9223372036854775807,"seed":18446744073709551615,"f":0.1}`)
	got, err := CanonicalJSON(in)
	if err != nil {
		t.Fatal(err)
	}
	for _, lit := range []string{"9223372036854775807", "18446744073709551615", "0.1"} {
		if !strings.Contains(string(got), lit) {
			t.Fatalf("canonical %s lost literal %s", got, lit)
		}
	}
}

// TestCanonicalJSONRejectsGarbage: a malformed document, and anything
// but whitespace after a well-formed one — a closing bracket included,
// which json.Decoder.More does not count as more — is an error.
func TestCanonicalJSONRejectsGarbage(t *testing.T) {
	for _, in := range []string{
		`{"a":}`,
		`{} {}`,
		`{"a":1} x`,
		`{"a":1}]`,
		`{"a":1}}`,
		`[1]]`,
		`0 }`,
	} {
		if out, err := CanonicalJSON([]byte(in)); err == nil {
			t.Errorf("%s canonicalised to %s, want an error", in, out)
		}
	}
	if out, err := CanonicalJSON([]byte(" {\"a\":1} \n\t")); err != nil || string(out) != `{"a":1}` {
		t.Errorf("surrounding whitespace: got %s, %v", out, err)
	}
}

// TestReportFieldsInKeyOrder holds every struct reachable from Report to
// the declaration order MarshalStable relies on: json.Marshal writes
// fields as declared, so they must be declared in strictly ascending
// order of their JSON keys for its output to be canonical JSON.
func TestReportFieldsInKeyOrder(t *testing.T) {
	seen := map[reflect.Type]bool{}
	var walk func(typ reflect.Type)
	walk = func(typ reflect.Type) {
		for typ.Kind() == reflect.Slice {
			typ = typ.Elem()
		}
		if typ.Kind() != reflect.Struct || seen[typ] {
			return
		}
		seen[typ] = true
		prev := ""
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			key, _, _ := strings.Cut(f.Tag.Get("json"), ",")
			if key == "" || key == "-" {
				t.Fatalf("%s.%s has no JSON key", typ.Name(), f.Name)
			}
			if key <= prev {
				t.Errorf("%s.%s (%q) is declared after %q; declare %s's fields in ascending key order", typ.Name(), f.Name, key, prev, typ.Name())
			}
			prev = key
			walk(f.Type)
		}
	}
	walk(reflect.TypeOf(Report{}))
	if len(seen) != 9 {
		t.Errorf("walked %d struct types, want the 9 of a report", len(seen))
	}
}

// testReport builds a report exercising every block, including values
// that are hostile to float64 round-tripping.
func testReport() *Report {
	rec := NewRecorder()
	rec.Init(2)
	reg := rec.Registry()
	reg.Counter("beta").Add(7)
	reg.Counter("alpha").Add(3)
	h := reg.Histogram("lat")
	h.Observe(1)
	h.Observe(250)
	ws := rec.Scratch()
	ws[0] = WorkerSample{LVT: 1.25, Pending: 3, Rollbacks: 2}
	ws[1] = WorkerSample{LVT: -1, Uncommitted: 9}
	rec.SampleRound(RoundSample{Round: 1, GVT: 0.5, AtNanos: 1 << 60, Efficiency: 0.9}, ws)
	cfg := RunConfig{
		Label: "unit/<stable>", Nodes: 2, WorkersPerNode: 2, LPsPerWorker: 8,
		GVT: "ca-gvt", Comm: "dedicated", GVTInterval: 4, CAThreshold: 0.8,
		EndTime: 40, Seed: 18446744073709551615, QueueKind: "heap",
		BatchSize: 16, CheckpointInterval: 1, MaxUncommitted: 64,
	}
	st := RunStats{
		WallNanos: 9223372036854775807, Committed: 123456, Processed: 130000,
		Efficiency: 0.9497, EventRate: 1.75e6, FinalGVT: 39.999,
		CommitChecksum: Checksum(0xdeadbeefcafef00d),
	}
	return BuildReport(cfg, st, rec, 2)
}

// TestReportMarshalStableRoundTrip is the byte-stability contract:
// marshal → unmarshal → marshal must reproduce identical bytes, and the
// bytes must be canonical (sorted keys, already-canonical form).
func TestReportMarshalStableRoundTrip(t *testing.T) {
	rep := testReport()
	first, err := rep.MarshalStable()
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(first, &back); err != nil {
		t.Fatalf("stable bytes do not unmarshal: %v", err)
	}
	second, err := back.MarshalStable()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("round trip changed bytes:\n%s\n%s", first, second)
	}
	recanon, err := CanonicalJSON(first)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, recanon) {
		t.Fatal("MarshalStable output is not canonical-fixed-point")
	}
	// Big integers survived the round trip exactly.
	if back.Config.Seed != rep.Config.Seed || back.Stats.WallNanos != rep.Stats.WallNanos {
		t.Fatalf("numeric fields corrupted: %+v", back.Stats)
	}
}

// TestReportMarshalStableDeterministic: two structurally equal reports
// built independently marshal byte-identically.
func TestReportMarshalStableDeterministic(t *testing.T) {
	a, err := testReport().MarshalStable()
	if err != nil {
		t.Fatal(err)
	}
	b, err := testReport().MarshalStable()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("equal reports marshalled differently")
	}
}

// FuzzReportCanonical holds MarshalStable to canonical JSON on reports
// no run would write: every scalar field of every block set from the
// input (extreme integers, subnormal and huge floats, strings that need
// escaping), with zero to three rounds, workers, counters and histograms.
func FuzzReportCanonical(f *testing.F) {
	f.Add(int64(math.MaxInt64), 5e-324, "<>&", uint8(0xff))
	f.Add(int64(math.MinInt64), 1e21, `"quoted" \ back`, uint8(0x1b))
	f.Add(int64(-1), -0.1, "line\u2028para\u2029", uint8(0x55))
	f.Add(int64(0), 0.0, "\x00\x01\x1f\x7f\t\n", uint8(0))
	f.Add(int64(1)<<53+1, 1.7976931348623157e308, "simd/phold", uint8(0x24))
	f.Fuzz(func(t *testing.T, i int64, x float64, s string, shape uint8) {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return // not representable in JSON; json.Marshal refuses it
		}
		s = strings.ToValidUTF8(s, "?")
		var rep Report
		fillReport(reflect.ValueOf(&rep).Elem(), i, x, s, int(shape))
		got, err := rep.MarshalStable()
		if err != nil {
			t.Fatal(err)
		}
		want, err := CanonicalJSON(got)
		if err != nil {
			t.Fatalf("MarshalStable wrote invalid JSON (%v): %s", err, got)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("MarshalStable is not canonical:\n got  %s\n want %s", got, want)
		}
	})
}

// fillReport sets every scalar field under v from i, x and s (alternating
// signs field by field), and makes each slice of structs (shape>>2k)%4
// elements long for its k-th slice field.
func fillReport(v reflect.Value, i int64, x float64, s string, shape int) {
	for j := 0; j < v.NumField(); j++ {
		f := v.Field(j)
		if j%2 == 1 {
			i, x = -i, -x
		}
		switch f.Kind() {
		case reflect.Int, reflect.Int64:
			f.SetInt(i)
		case reflect.Uint64:
			f.SetUint(uint64(i))
		case reflect.Float64:
			f.SetFloat(x)
		case reflect.String:
			f.SetString(s)
		case reflect.Bool:
			f.SetBool(i%2 == 0)
		case reflect.Struct:
			fillReport(f, i, x, s, shape)
		case reflect.Slice:
			n := shape % 4
			shape = shape>>2 | shape<<6&0xff // the next slice takes the next two bits
			f.Set(reflect.MakeSlice(f.Type(), n, n))
			for k := 0; k < n; k++ {
				fillReport(f.Index(k), i+int64(k), x, s, shape)
			}
		}
	}
}
