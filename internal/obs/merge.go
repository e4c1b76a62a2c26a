package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// MergeSnapshots combines parsed exposition documents by summing every
// sample with the same (name, label set) across the inputs — the
// aggregation a cluster router applies to its members' /metrics:
// counters add to cluster totals, gauges add to cluster-wide levels
// (total queue depth, total cache bytes), and histogram _bucket/_sum/
// _count series add component-wise, which is exactly how Prometheus
// itself aggregates histograms. TYPE declarations are carried over
// (first snapshot seen wins for a family). Nil snapshots are skipped.
//
// Summing is the only semantics offered: for the few series where a sum
// is meaningless (e.g. a start-time gauge), aggregate callers should
// read the per-member snapshots instead. Samples, their order and their
// values do not depend on the order of snaps: each sum adds its terms in
// ascending order.
func MergeSnapshots(snaps ...*Snapshot) *Snapshot {
	out := &Snapshot{Types: make(map[string]string)}
	sums := make(map[string]*Sample)
	terms := make(map[string][]float64)
	var order []string
	for _, sn := range snaps {
		if sn == nil {
			continue
		}
		for fam, typ := range sn.Types {
			if _, ok := out.Types[fam]; !ok {
				out.Types[fam] = typ
			}
		}
		for _, smp := range sn.Samples {
			key := smp.Name + labelKey(smp.Labels)
			terms[key] = append(terms[key], smp.Value)
			if _, ok := sums[key]; ok {
				continue
			}
			cp := Sample{Name: smp.Name, Value: math.Copysign(0, -1)} // -0 is the identity of +
			if len(smp.Labels) > 0 {
				cp.Labels = make(map[string]string, len(smp.Labels))
				for k, v := range smp.Labels {
					cp.Labels[k] = v
				}
			}
			sums[key] = &cp
			order = append(order, key)
		}
	}
	sort.Slice(order, func(i, j int) bool { return lessSampleKey(order[i], order[j]) })
	out.Samples = make([]Sample, len(order))
	for i, key := range order {
		sort.Float64s(terms[key])
		for _, v := range terms[key] {
			sums[key].Value += v
		}
		out.Samples[i] = *sums[key]
	}
	return out
}

// labelKey renders a canonical sort/dedup key for a label set.
func labelKey(labels map[string]string) string {
	if len(labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(labels[k]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// lessSampleKey orders merged samples: by series name, then — so that
// histogram buckets stay in ascending-bound order — label sets with a
// numeric le first, ascending by it, then lexically: a total order.
func lessSampleKey(a, b string) bool {
	an, al, _ := strings.Cut(a, "{")
	bn, bl, _ := strings.Cut(b, "{")
	if an != bn {
		return an < bn
	}
	av, aok := leBound(al)
	bv, bok := leBound(bl)
	switch {
	case aok != bok:
		return aok
	case aok && av != bv:
		return av < bv
	}
	return al < bl
}

// leBound extracts the numeric le bound (not NaN) from a rendered label key.
func leBound(labels string) (float64, bool) {
	_, rest, _ := strings.Cut(labels, `le="`)
	v, _, closed := strings.Cut(rest, `"`)
	f, err := strconv.ParseFloat(v, 64)
	return f, closed && err == nil && !math.IsNaN(f)
}

// WriteText renders the snapshot back into Prometheus text exposition
// format: `# TYPE` lines for known families (histogram suffixes
// _bucket/_sum/_count resolve to their base family), then one line per
// sample in the snapshot's order. Round-trips with ParseText, so an
// aggregator can parse member documents, merge them, and serve the
// result from its own /metrics.
func (s *Snapshot) WriteText(w io.Writer) error {
	bw := bufio.NewWriter(w)
	typed := make(map[string]bool)
	for _, smp := range s.Samples {
		fam := familyOf(smp.Name, s.Types)
		if fam != "" && !typed[fam] {
			typed[fam] = true
			fmt.Fprintf(bw, "# TYPE %s %s\n", fam, s.Types[fam])
		}
		fmt.Fprintf(bw, "%s%s %s\n", smp.Name, labelKey(smp.Labels), formatFloat(smp.Value))
	}
	return bw.Flush()
}

// familyOf resolves a sample name to its declared family ("" if none).
func familyOf(name string, types map[string]string) string {
	if _, ok := types[name]; ok {
		return name
	}
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		base := strings.TrimSuffix(name, suffix)
		if base != name {
			if _, ok := types[base]; ok {
				return base
			}
		}
	}
	return ""
}
