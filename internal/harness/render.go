package harness

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"repro/internal/metrics"
)

// SuiteSchema identifies the experiment-suite JSON document layout.
const SuiteSchema = "cagvt.experiment-suite/1"

// suiteDoc is the JSON document WriteJSON emits: the rendered tables
// plus, when report collection was enabled, one telemetry run report per
// engine execution.
type suiteDoc struct {
	Schema  string            `json:"schema"`
	Tables  []Table           `json:"tables"`
	Reports []*metrics.Report `json:"reports"`
}

// WriteJSON writes the suite results as one indented JSON document.
// reports may be nil.
func WriteJSON(w io.Writer, tables []Table, reports *metrics.ReportSet) error {
	doc := suiteDoc{Schema: SuiteSchema, Tables: tables, Reports: []*metrics.Report{}}
	if tables == nil {
		doc.Tables = []Table{}
	}
	if reports != nil && reports.Reports != nil {
		doc.Reports = reports.Reports
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(doc)
}

// Markdown renders the table as a GitHub-flavoured markdown table (used to
// assemble EXPERIMENTS.md), its cells read as Render reads them.
func (t Table) Markdown(w io.Writer) {
	fmt.Fprintf(w, "### %s — %s\n\n", t.ID, t.Title)
	if t.Paper != "" {
		fmt.Fprintf(w, "*Paper:* %s\n\n", t.Paper)
	}
	fmt.Fprintf(w, "| %s |", t.XLabel)
	for _, x := range t.XVals {
		fmt.Fprintf(w, " %s |", x)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "|%s", strings.Repeat("---|", len(t.XVals)+1))
	fmt.Fprintln(w)
	for _, s := range t.Series {
		fmt.Fprintf(w, "| %s |", s.Label)
		for _, c := range s.Cells {
			switch {
			case c.Failed:
				fmt.Fprint(w, " FAILED |")
			case t.showsDisparity():
				fmt.Fprintf(w, " %.3g |", c.Disparity)
			default:
				fmt.Fprintf(w, " %.3g (%.0f%%) |", c.Rate, 100*c.Efficiency)
			}
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w)
}
