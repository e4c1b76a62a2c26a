package harness

import (
	"bytes"
	"io"
	"runtime"

	"repro/internal/metrics"
)

// slot is one planned cell with what its run produced. The output buffer
// and report set are private to the cell, so concurrent cells never
// interleave; Execute hands them on in plan order.
type slot struct {
	cell
	done    chan struct{} // closed when result, out and reports are final
	result  Cell
	out     bytes.Buffer      // verbose/FAILED line
	reports metrics.ReportSet // filled only when Options.Reports is set
}

// Execute runs the experiment: every cell of its plan is an independent
// deterministic simulation (separate engines share no mutable state), so
// the cells fan out over a pool of opt.Jobs host cores (0: GOMAXPROCS).
// What the caller observes — verbose per-run lines on w, the table, the
// order of opt.Reports — is delivered in plan order as cells finish, so
// it is byte-identical for every Jobs value; one worker is the same code
// running the cells one after another.
func (e Experiment) Execute(opt Options, w io.Writer) Table {
	if w == nil {
		w = io.Discard
	}
	p := e.plan(opt)
	var slots []*slot
	for _, s := range p.series {
		for _, c := range s.cells {
			slots = append(slots, &slot{cell: c, done: make(chan struct{})})
		}
	}

	jobs := opt.Jobs
	if jobs == 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	// The queue holds every cell, so submission never blocks or rejects.
	pool := NewPool(min(jobs, len(slots)), len(slots))
	defer pool.Close()
	for _, s := range slots {
		accepted := pool.TrySubmit(func() {
			defer close(s.done)
			o := opt
			if opt.Reports != nil {
				o.Reports = &s.reports
			}
			s.result = s.execute(o, &s.out)
		})
		if !accepted {
			panic("harness: cell submission rejected by a full-capacity pool")
		}
	}

	t := Table{ID: e.ID, Title: e.Title, Paper: e.Paper, XLabel: p.xLabel, XVals: p.xVals}
	for _, ps := range p.series {
		row := Series{Label: ps.label, Cells: make([]Cell, 0, len(ps.cells))}
		for range ps.cells {
			s := slots[0]
			slots = slots[1:]
			<-s.done
			w.Write(s.out.Bytes())
			if opt.Reports != nil {
				opt.Reports.Reports = append(opt.Reports.Reports, s.reports.Reports...)
			}
			row.Cells = append(row.Cells, s.result)
		}
		t.Series = append(t.Series, row)
	}
	return t
}
