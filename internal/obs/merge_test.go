package obs

import (
	"bytes"
	"strings"
	"testing"
)

const memberA = `# TYPE simd_jobs_total counter
simd_jobs_total{state="done"} 5
simd_jobs_total{state="failed"} 1
# TYPE simd_queue_len gauge
simd_queue_len 2
# TYPE simd_run_seconds histogram
simd_run_seconds_bucket{le="0.1"} 3
simd_run_seconds_bucket{le="1"} 5
simd_run_seconds_bucket{le="+Inf"} 6
simd_run_seconds_sum 4.5
simd_run_seconds_count 6
`

const memberB = `# TYPE simd_jobs_total counter
simd_jobs_total{state="done"} 7
# TYPE simd_queue_len gauge
simd_queue_len 3
# TYPE simd_run_seconds histogram
simd_run_seconds_bucket{le="0.1"} 1
simd_run_seconds_bucket{le="1"} 1
simd_run_seconds_bucket{le="+Inf"} 2
simd_run_seconds_sum 10.25
simd_run_seconds_count 2
`

func parse(t *testing.T, doc string) *Snapshot {
	t.Helper()
	snap, err := ParseText(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

func TestMergeSnapshotsSums(t *testing.T) {
	m := MergeSnapshots(parse(t, memberA), nil, parse(t, memberB))

	checks := []struct {
		name string
		kv   []string
		want float64
	}{
		{"simd_jobs_total", []string{"state", "done"}, 12},
		{"simd_jobs_total", []string{"state", "failed"}, 1}, // only member A has it
		{"simd_queue_len", nil, 5},
		{"simd_run_seconds_bucket", []string{"le", "0.1"}, 4},
		{"simd_run_seconds_bucket", []string{"le", "1"}, 6},
		{"simd_run_seconds_bucket", []string{"le", "+Inf"}, 8},
		{"simd_run_seconds_sum", nil, 14.75},
		{"simd_run_seconds_count", nil, 8},
	}
	for _, c := range checks {
		got, ok := m.Get(c.name, c.kv...)
		if !ok || got != c.want {
			t.Errorf("%s%v = %v, %v; want %v", c.name, c.kv, got, ok, c.want)
		}
	}
	if typ := m.Types["simd_run_seconds"]; typ != "histogram" {
		t.Errorf("merged TYPE simd_run_seconds = %q, want histogram", typ)
	}

	// Histogram buckets must stay cumulative and in ascending le order
	// after the merge, or a re-rendered document confuses consumers.
	var lastLe, lastCum float64 = -1, 0
	seen := 0
	for _, smp := range m.Samples {
		if smp.Name != "simd_run_seconds_bucket" {
			continue
		}
		seen++
		le, ok := leBound("{le=\"" + smp.Labels["le"] + "\"}")
		if !ok {
			t.Fatalf("unparsable le %q", smp.Labels["le"])
		}
		if le <= lastLe {
			t.Fatalf("bucket order broken: le %v after %v", le, lastLe)
		}
		if smp.Value < lastCum {
			t.Fatalf("bucket counts not cumulative: %v after %v", smp.Value, lastCum)
		}
		lastLe, lastCum = le, smp.Value
	}
	if seen != 3 {
		t.Fatalf("expected 3 merged buckets, saw %d", seen)
	}
}

func TestMergeSnapshotsEmpty(t *testing.T) {
	m := MergeSnapshots()
	if len(m.Samples) != 0 || len(m.Types) != 0 {
		t.Fatalf("empty merge not empty: %+v", m)
	}
	m = MergeSnapshots(nil, nil)
	if len(m.Samples) != 0 {
		t.Fatalf("nil-only merge not empty: %+v", m)
	}
}

func TestWriteTextRoundTrip(t *testing.T) {
	merged := MergeSnapshots(parse(t, memberA), parse(t, memberB))
	var buf bytes.Buffer
	if err := merged.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()

	// Histogram suffixes must resolve to one TYPE line for the family.
	if n := strings.Count(text, "# TYPE simd_run_seconds histogram"); n != 1 {
		t.Fatalf("want exactly one histogram TYPE line, got %d in:\n%s", n, text)
	}
	if strings.Contains(text, "# TYPE simd_run_seconds_bucket") {
		t.Fatalf("suffix series must not get its own TYPE line:\n%s", text)
	}

	back := parse(t, text)
	if len(back.Samples) != len(merged.Samples) {
		t.Fatalf("round trip lost samples: %d -> %d", len(merged.Samples), len(back.Samples))
	}
	for _, smp := range merged.Samples {
		kv := make([]string, 0, 2*len(smp.Labels))
		for k, v := range smp.Labels {
			kv = append(kv, k, v)
		}
		got, ok := back.Get(smp.Name, kv...)
		if !ok || got != smp.Value {
			t.Errorf("round trip %s%v = %v, %v; want %v", smp.Name, smp.Labels, got, ok, smp.Value)
		}
	}
	for fam, typ := range merged.Types {
		if back.Types[fam] != typ {
			t.Errorf("round trip TYPE %s = %q, want %q", fam, back.Types[fam], typ)
		}
	}

	// Label values with quotes/backslashes must survive the re-render.
	tricky := &Snapshot{
		Samples: []Sample{{Name: "x_total", Labels: map[string]string{"p": `a"b\c` + "\nd"}, Value: 1}},
		Types:   map[string]string{"x_total": "counter"},
	}
	buf.Reset()
	if err := tricky.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	back = parse(t, buf.String())
	if got, ok := back.Get("x_total", "p", `a"b\c`+"\nd"); !ok || got != 1 {
		t.Fatalf("escaped label round trip failed: %v %v in %q", got, ok, buf.String())
	}
}

// TestMergeSnapshotsOrderIndependent: a series whose le labels are not
// all numeric merges to one order whichever member comes first — numeric
// bounds ascending, then the rest lexically — and the terms of a sum add
// in one order either way (ascending, so -1e16 absorbs the 1 and n is 0).
func TestMergeSnapshotsOrderIndependent(t *testing.T) {
	a := parse(t, "m{le=\"10\"} 1\nm{le=\"5x\"} 1\nn 1e16\nn 1\n")
	b := parse(t, "m{le=\"9\"} 1\nn -1e16\n")
	for _, m := range []*Snapshot{MergeSnapshots(a, b), MergeSnapshots(b, a)} {
		var got []string
		for _, smp := range m.Samples {
			got = append(got, smp.Name+labelKey(smp.Labels)+" "+formatFloat(smp.Value))
		}
		want := []string{`m{le="9"} 1`, `m{le="10"} 1`, `m{le="5x"} 1`, `n 0`}
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Errorf("merged\n%s\nwant\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
		}
	}
}
