package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"text/tabwriter"
)

// benchmarkDoc is the part of BENCHMARK.json the comparison needs.
type benchmarkDoc struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkDoc(path string) (benchmarkDoc, error) {
	var doc benchmarkDoc
	data, err := os.ReadFile(path)
	if err != nil {
		return doc, err
	}
	err = json.Unmarshal(data, &doc)
	return doc, err
}

// loadSet reads one side of a comparison: a result file, or every
// result-*.json in a directory (one per seed). It returns, per workload
// and end-to-end metric, the values of all runs found.
func loadSet(path string) (map[string]map[string][]value, error) {
	files := []string{path}
	if st, err := os.Stat(path); err != nil {
		return nil, err
	} else if st.IsDir() {
		if files, err = filepath.Glob(filepath.Join(path, "result-*.json")); err != nil {
			return nil, err
		}
		if len(files) == 0 {
			return nil, fmt.Errorf("%s: no result-*.json files", path)
		}
	}
	set := make(map[string]map[string][]value)
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var doc resultFile
		if err := json.Unmarshal(data, &doc); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		if doc.Schema != resultSchema {
			return nil, fmt.Errorf("%s: schema %q, want %q", f, doc.Schema, resultSchema)
		}
		for name, res := range doc.Workloads {
			if set[name] == nil {
				set[name] = make(map[string][]value)
			}
			for m, v := range res.EndToEnd {
				set[name][m] = append(set[name][m], v)
			}
		}
	}
	return set, nil
}

// sideSummary reduces one side's runs of a metric to a median and
// quartiles. With several runs they are taken across the runs — the
// run-to-run spread the bounds are about; a single run falls back on
// the quartiles it recorded over its own repetitions.
func sideSummary(runs []value) summary {
	if len(runs) == 1 {
		return summary{Median: runs[0].Value, Q1: runs[0].Q1, Q3: runs[0].Q3, N: 1}
	}
	vals := make([]float64, len(runs))
	for i, r := range runs {
		vals[i] = r.Value
	}
	return summarize(vals)
}

// verdict classifies one (workload, metric) row. worse is the share of
// the base median by which the candidate is worse (negative: better).
func verdict(base, cand summary, higherIsBetter bool, bound float64) (worse float64, v string) {
	if base.Median == 0 {
		return 0, "unresolved"
	}
	worse = (cand.Median - base.Median) / base.Median
	if higherIsBetter {
		worse = -worse
	}
	switch {
	case worse > bound:
		return worse, "regressed"
	case base.spread() > bound || cand.spread() > bound:
		return worse, "unresolved"
	}
	return worse, "ok"
}

// runCompare prints one row per (workload, end-to-end metric) of two
// result sets and returns 1 if any row regressed.
func runCompare(benchmarkJSON, a, b string, stdout, stderr io.Writer) int {
	doc, err := loadBenchmarkDoc(benchmarkJSON)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	base, err := loadSet(a)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	cand, err := loadSet(b)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	tw := tabwriter.NewWriter(stdout, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tbase median [q1, q3] (n)\tcandidate median [q1, q3] (n)\tcand/base\tworse by\tbound\tverdict")
	counts := map[string]int{}
	for _, w := range doc.Workloads {
		for _, m := range doc.EndToEnd {
			ra, rb := base[w.Name][m.Name], cand[w.Name][m.Name]
			if len(ra) == 0 || len(rb) == 0 {
				fmt.Fprintf(tw, "%s\t%s\t%s\t-\t-\t-\t-\t%.2f\tmissing\n", w.Name, m.Name, m.Unit, m.Bound)
				counts["missing"]++
				continue
			}
			sa, sb := sideSummary(ra), sideSummary(rb)
			worse, v := verdict(sa, sb, m.Better == "higher", m.Bound)
			counts[v]++
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g [%.6g, %.6g] (%d)\t%.6g [%.6g, %.6g] (%d)\t%.4f of %.6g\t%+.2f%%\t%.2f\t%s\n",
				w.Name, m.Name, m.Unit, sa.Median, sa.Q1, sa.Q3, sa.N, sb.Median, sb.Q1, sb.Q3, sb.N,
				sb.Median/sa.Median, sa.Median, 100*worse, m.Bound, v)
		}
	}
	tw.Flush()
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(stdout, "%s=%d ", k, counts[k])
	}
	fmt.Fprintln(stdout)
	if counts["regressed"] > 0 || counts["missing"] > 0 {
		return 1
	}
	return 0
}
