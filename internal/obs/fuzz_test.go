package obs

import (
	"bytes"
	"math"
	"testing"
)

// FuzzParseText feeds the exposition parser arbitrary bytes. It must not
// panic, and what it accepts must survive the router's path — merge,
// render, parse again — sample for sample and in the same order.
func FuzzParseText(f *testing.F) {
	f.Add([]byte("# TYPE m counter\nm{a=\"x\"} 1\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := ParseText(bytes.NewReader(data))
		if err != nil {
			return
		}
		merged := MergeSnapshots(snap)
		var buf bytes.Buffer
		if err := merged.WriteText(&buf); err != nil {
			t.Fatal(err)
		}
		back, err := ParseText(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("rendered merge does not parse: %v\n%s", err, buf.Bytes())
		}
		if i := firstDifference(merged.Samples, back.Samples); i >= 0 {
			t.Fatalf("round trip moved sample %d:\n%s", i, buf.Bytes())
		}
	})
}

// FuzzMergeSnapshots merges two parsed documents both ways round: the
// result must be the same sample for sample, as a cluster's /metrics must
// not depend on which member answered its scrape first.
func FuzzMergeSnapshots(f *testing.F) {
	f.Add([]byte("m{le=\"10\"} 1\nm{le=\"5x\"} 1\n"), []byte("m{le=\"9\"} 1\n"))
	f.Fuzz(func(t *testing.T, a, b []byte) {
		sa, err := ParseText(bytes.NewReader(a))
		if err != nil {
			return
		}
		sb, err := ParseText(bytes.NewReader(b))
		if err != nil {
			return
		}
		ab, ba := MergeSnapshots(sa, sb), MergeSnapshots(sb, sa)
		if i := firstDifference(ab.Samples, ba.Samples); i >= 0 {
			t.Fatalf("Merge(a, b) and Merge(b, a) differ at sample %d:\n%+v\n%+v", i, ab.Samples, ba.Samples)
		}
	})
}

// firstDifference returns the index of the first sample at which a and b
// differ in name, label set or value (bit for bit; NaN equals NaN), or -1
// when they are the same list.
func firstDifference(a, b []Sample) int {
	for i := range max(len(a), len(b)) {
		if i >= len(a) || i >= len(b) {
			return i
		}
		x, y := a[i].Value, b[i].Value
		if a[i].Name != b[i].Name || labelKey(a[i].Labels) != labelKey(b[i].Labels) ||
			math.Float64bits(x) != math.Float64bits(y) && !(math.IsNaN(x) && math.IsNaN(y)) {
			return i
		}
	}
	return -1
}
