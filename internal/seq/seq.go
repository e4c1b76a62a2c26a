// Package seq is a sequential discrete event simulator over the same
// Model interface as the Time Warp engine. It serves two purposes: it is
// the correctness oracle (optimistic execution must commit exactly the
// event stream a sequential execution produces) and the single-core
// baseline for the benchmarks.
package seq

import (
	"fmt"

	"repro/internal/event"
	"repro/internal/eventq"
	"repro/internal/pe"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/vtime"
)

// Result summarizes a sequential run.
type Result struct {
	Processed int64
	FinalTime vtime.Time
	// Checksum is comparable with stats.Run.CommitChecksum from the
	// parallel engine: identical model + seed + end time must agree.
	Checksum uint64
}

// Engine is a sequential simulator instance.
type Engine struct {
	lps     []seqLP
	pending *eventq.Heap
	endTime vtime.Time
	ctx     seqCtx // every callback's context: they never overlap
}

type seqLP struct {
	id       event.LPID
	model    pe.Model
	rng      rng.Stream
	seq      uint64
	lvt      vtime.Time
	checksum stats.Checksum
}

// New builds a sequential engine with totalLPs processes.
func New(factory pe.ModelFactory, totalLPs int, endTime vtime.Time, seed uint64) *Engine {
	if totalLPs <= 0 {
		panic("seq: totalLPs must be positive")
	}
	if endTime <= 0 {
		panic("seq: endTime must be positive")
	}
	e := &Engine{lps: make([]seqLP, totalLPs), pending: eventq.NewHeap(), endTime: endTime}
	streams := rng.NewSequence(seed)
	for i := range e.lps {
		e.lps[i] = seqLP{
			id:       event.LPID(i),
			model:    factory(event.LPID(i), totalLPs),
			rng:      streams.Next(),
			checksum: stats.NewChecksum(),
		}
	}
	e.ctx.e = e
	for i := range e.lps {
		e.ctx.lp = &e.lps[i]
		e.ctx.lp.model.Init(&e.ctx)
	}
	return e
}

// Run executes events in timestamp order until the end time and returns
// the result.
func (e *Engine) Run() *Result {
	r := &Result{}
	for {
		ev := e.pending.Peek()
		if ev == nil || ev.Stamp.T > e.endTime {
			break
		}
		e.pending.Pop()
		l := &e.lps[int(ev.Dst)]
		if ev.Stamp.T < l.lvt {
			panic(fmt.Sprintf("seq: causality violation: %v behind LVT %.6g", ev, l.lvt))
		}
		l.lvt = ev.Stamp.T
		e.ctx.lp, e.ctx.now = l, ev.Stamp.T
		l.model.OnEvent(&e.ctx, ev)
		l.checksum = l.checksum.Mix(uint32(l.id), ev.Stamp.T, ev.Stamp.Src, ev.Stamp.Seq)
		r.Processed++
		r.FinalTime = ev.Stamp.T
	}
	var sum uint64
	for i := range e.lps {
		sum += uint64(e.lps[i].checksum)
	}
	r.Checksum = sum
	return r
}

// Pending returns the number of unprocessed events (events beyond the end
// time remain pending after Run).
func (e *Engine) Pending() int { return e.pending.Len() }

// Model returns LP i's model (for examples inspecting final state).
func (e *Engine) Model(i int) pe.Model { return e.lps[i].model }

// seqCtx implements pe.Context for the sequential engine.
type seqCtx struct {
	e   *Engine
	lp  *seqLP
	now vtime.Time
}

func (c *seqCtx) Self() event.LPID { return c.lp.id }
func (c *seqCtx) Now() vtime.Time  { return c.now }
func (c *seqCtx) RNG() *rng.Stream { return &c.lp.rng }
func (c *seqCtx) NumLPs() int      { return len(c.e.lps) }
func (c *seqCtx) Spin(int)         {} // CPU time is irrelevant sequentially

func (c *seqCtx) Send(dst event.LPID, delay vtime.Time, kind uint16, data []byte) {
	if delay < 0 {
		panic(fmt.Sprintf("seq: negative delay %v from LP %d", delay, c.lp.id))
	}
	if int(dst) >= len(c.e.lps) {
		panic(fmt.Sprintf("seq: send to unknown LP %d", dst))
	}
	l := c.lp
	l.seq++
	c.e.pending.Push(&event.Event{
		Stamp:    vtime.Stamp{T: c.now + delay, Src: uint32(l.id), Seq: l.seq},
		SendTime: c.now,
		Src:      l.id,
		Dst:      dst,
		Kind:     kind,
		Data:     data,
	})
}
