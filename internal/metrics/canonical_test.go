package metrics

import (
	"bytes"
	"encoding/json"
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

func TestCanonicalJSONRejectsGarbage(t *testing.T) {
	if _, err := CanonicalJSON([]byte(`{"a":}`)); err == nil {
		t.Fatal("malformed JSON accepted")
	}
	if _, err := CanonicalJSON([]byte(`{} {}`)); err == nil {
		t.Fatal("trailing document accepted")
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
