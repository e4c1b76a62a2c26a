package seq

import (
	"testing"

	"repro/internal/event"
	"repro/internal/pe"
	"repro/internal/vtime"
)

// counter is a simple test model: each LP forwards a token to the next LP
// and counts what it has seen.
type counter struct {
	self event.LPID
	seen int
}

func (m *counter) Init(ctx pe.Context) {
	if m.self == 0 {
		ctx.Send(0, 1.0, 0, nil)
	}
}

func (m *counter) OnEvent(ctx pe.Context, ev *event.Event) {
	m.seen++
	next := event.LPID((int(m.self) + 1) % ctx.NumLPs())
	ctx.Send(next, 1.0, 0, nil)
}

func (m *counter) Snapshot() any { return m.seen }
func (m *counter) Restore(s any) { m.seen = s.(int) }

func factory() pe.ModelFactory {
	return func(lp event.LPID, total int) pe.Model { return &counter{self: lp} }
}

func TestRunProcessesInOrder(t *testing.T) {
	e := New(factory(), 4, 10.5, 1)
	r := e.Run()
	// Token starts at t=1 on LP0 and hops every 1.0: events at t=1..10.
	if r.Processed != 10 {
		t.Errorf("Processed = %d, want 10", r.Processed)
	}
	if r.FinalTime != 10 {
		t.Errorf("FinalTime = %v, want 10", r.FinalTime)
	}
	// LPs 0,1 saw 3 events; 2,3 saw 2 (10 hops over ring of 4).
	want := []int{3, 3, 2, 2}
	for i, w := range want {
		if got := e.Model(i).(*counter).seen; got != w {
			t.Errorf("LP %d saw %d, want %d", i, got, w)
		}
	}
	// The t=11 event remains pending.
	if e.Pending() != 1 {
		t.Errorf("Pending = %d, want 1", e.Pending())
	}
}

func TestChecksumDeterministic(t *testing.T) {
	a := New(factory(), 4, 10, 9).Run()
	b := New(factory(), 4, 10, 9).Run()
	if a.Checksum != b.Checksum || a.Processed != b.Processed {
		t.Error("sequential runs not deterministic")
	}
	c := New(factory(), 4, 20, 9).Run()
	if c.Checksum == a.Checksum {
		t.Error("longer run has identical checksum")
	}
}

func TestEndTimeBoundary(t *testing.T) {
	// Events exactly at the end time ARE processed (ts > end stops).
	r := New(factory(), 4, 3.0, 1).Run()
	if r.Processed != 3 {
		t.Errorf("Processed = %d, want 3 (t=1,2,3)", r.Processed)
	}
}

func TestPanicsOnBadArgs(t *testing.T) {
	for _, fn := range []func(){
		func() { New(factory(), 0, 10, 1) },
		func() { New(factory(), 4, 0, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("bad args did not panic")
				}
			}()
			fn()
		}()
	}
}

// badSender sends to a nonexistent LP.
type badSender struct{}

func (m *badSender) Init(ctx pe.Context)                    { ctx.Send(0, 1, 0, nil) }
func (m *badSender) OnEvent(ctx pe.Context, _ *event.Event) { ctx.Send(999, 1, 0, nil) }
func (m *badSender) Snapshot() any                          { return nil }
func (m *badSender) Restore(any)                            {}

func TestSendToUnknownLPPanics(t *testing.T) {
	e := New(func(event.LPID, int) pe.Model { return &badSender{} }, 2, 10, 1)
	defer func() {
		if recover() == nil {
			t.Error("send to unknown LP did not panic")
		}
	}()
	e.Run()
}

// negDelay sends with a negative delay.
type negDelay struct{}

func (m *negDelay) Init(ctx pe.Context)                    { ctx.Send(0, 1, 0, nil) }
func (m *negDelay) OnEvent(ctx pe.Context, _ *event.Event) { ctx.Send(0, -0.5, 0, nil) }
func (m *negDelay) Snapshot() any                          { return nil }
func (m *negDelay) Restore(any)                            {}

func TestNegativeDelayPanics(t *testing.T) {
	e := New(func(event.LPID, int) pe.Model { return &negDelay{} }, 1, 10, 1)
	defer func() {
		if recover() == nil {
			t.Error("negative delay did not panic")
		}
	}()
	e.Run()
}

func TestStampTieBreakStability(t *testing.T) {
	// Two LPs sending events at identical timestamps: order must follow
	// (T, Src, Seq) — LP 0's event first.
	type burst struct {
		self event.LPID
		log  *[]vtime.Stamp
	}
	var log []vtime.Stamp
	factory := func(lp event.LPID, total int) pe.Model {
		return &burstModel{self: lp, log: &log}
	}
	e := New(factory, 2, 5, 1)
	e.Run()
	_ = burst{}
	for i := 1; i < len(log); i++ {
		if log[i].Before(log[i-1]) {
			t.Fatalf("processing order violated stamp order: %v after %v", log[i], log[i-1])
		}
	}
	if len(log) < 4 {
		t.Fatalf("only %d events", len(log))
	}
}

type burstModel struct {
	self event.LPID
	log  *[]vtime.Stamp
}

func (m *burstModel) Init(ctx pe.Context) {
	ctx.Send(m.self, 1.0, 0, nil) // identical T for both LPs
	ctx.Send(m.self, 2.0, 0, nil)
}

func (m *burstModel) OnEvent(ctx pe.Context, ev *event.Event) {
	*m.log = append(*m.log, ev.Stamp)
}

func (m *burstModel) Snapshot() any { return nil }
func (m *burstModel) Restore(any)   {}
