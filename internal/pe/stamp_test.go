package pe_test

import (
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/event"
	"repro/internal/pe"
	"repro/internal/seq"
	"repro/internal/stats"
	"repro/internal/vtime"
)

// scripted sends zero, one or two events per event handled (a population
// that neither dies out nor explodes), with delays drawn from the LP's
// stream, and logs every stamp it receives.
type scripted struct {
	self event.LPID
	log  *[]vtime.Stamp
}

func (m *scripted) Init(ctx pe.Context) {
	for i := 0; i < 1+int(m.self)%3; i++ {
		ctx.Send((m.self+event.LPID(i))%event.LPID(ctx.NumLPs()), 0.5+ctx.RNG().Exp(1), 0, nil)
	}
}

func (m *scripted) OnEvent(ctx pe.Context, ev *event.Event) {
	*m.log = append(*m.log, ev.Stamp)
	fan := 1
	switch ev.Stamp.Seq % 6 {
	case 0:
		fan = 2
	case 3:
		fan = 0
	}
	for i := 0; i < fan; i++ {
		dst := event.LPID(ctx.RNG().Intn(ctx.NumLPs()))
		ctx.Send(dst, 0.1+ctx.RNG().Exp(1), uint16(i), nil)
	}
}

func (m *scripted) Snapshot() any { return nil }
func (m *scripted) Restore(any)   {}

func scriptedFactory(log *[]vtime.Stamp) pe.ModelFactory {
	return func(lp event.LPID, _ int) pe.Model { return &scripted{self: lp, log: log} }
}

// loopCtx is the least an engine adds to pe.Ctx: Send stamps through the
// LP base and queues the event on the (single) worker.
type loopCtx struct{ pe.Ctx }

func (c *loopCtx) Send(dst event.LPID, delay vtime.Time, kind uint16, data []byte) {
	ev := &event.Event{}
	c.LP.Stamp(ev, c.T, dst, delay, kind, data)
	c.W.Pending.Push(ev)
}

// buildOne builds a 1x1 runtime hosting lps LPs and returns its worker
// and LP bases, seeded.
func buildOne(lps int, model pe.ModelFactory, seed uint64) (*pe.Worker, []pe.LP) {
	rt := &pe.Runtime{}
	rt.Init("test", pe.Config{
		Topology: cluster.Topology{Nodes: 1, WorkersPerNode: 1, LPsPerWorker: lps},
		Seed:     seed, Model: model,
	}, func(*stats.Run) {})
	n, w, bases := &pe.Node{}, &pe.Worker{}, make([]pe.LP, lps)
	rt.AddNode(n, cluster.KNLDefaults())
	rt.AddWorker(w, n, nil)
	for i := range bases {
		rt.AddLP(&bases[i])
	}
	rt.Seed()
	return w, bases
}

// TestStampingMatchesOracle: Init seeding and LP.Stamp give every event
// the (T, Src, Seq) the sequential oracle's own stamping gives it, so the
// two process the same stamps in the same order.
func TestStampingMatchesOracle(t *testing.T) {
	const lps, end, seed = 7, 25.0, 42
	var want []vtime.Stamp
	seq.New(scriptedFactory(&want), lps, end, seed).Run()

	var got []vtime.Stamp
	w, bases := buildOne(lps, scriptedFactory(&got), seed)
	ctx := &loopCtx{pe.Ctx{W: w}}
	for {
		ev := w.Pending.Peek()
		if ev == nil || ev.Stamp.T > end {
			break
		}
		w.Pending.Pop()
		ctx.LP, ctx.T = &bases[ev.Dst], ev.Stamp.T
		ctx.LP.Model.OnEvent(ctx, ev)
	}
	if len(want) < 100 {
		t.Fatalf("oracle processed only %d events: the script is too small to tell", len(want))
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("stamp streams differ: %d events here, %d at the oracle", len(got), len(want))
	}
}

// TestNegativeDelayPanics: a send into the past panics, at Init time and
// while running alike.
func TestNegativeDelayPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: negative delay did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("Init", func() {
		buildOne(1, func(event.LPID, int) pe.Model { return &negInit{} }, 1)
	})
	mustPanic("Stamp", func() {
		l := &pe.LP{ID: 3}
		l.Stamp(&event.Event{}, 2, 0, -0.5, 0, nil)
	})
}

type negInit struct{ scripted }

func (*negInit) Init(ctx pe.Context) { ctx.Send(0, -1, 0, nil) }
