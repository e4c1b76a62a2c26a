package pe

import (
	"fmt"
	"testing"

	"repro/internal/cluster"
	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/stats"
)

type stepFunc func() sim.Time

func (f stepFunc) Step() sim.Time { return f() }

// diagRun builds a runtime of nodes nodes with two workers and a comm
// thread each, every thread running body, and returns what its Run
// renders: the error's text, or the panic's.
func diagRun(nodes, livelockLimit int, body func(rt *Runtime, ns []Node, ws [][2]Worker, p *sim.Proc)) (msg string) {
	rt := &Runtime{}
	rt.Init("test", Config{Topology: cluster.Topology{Nodes: nodes, WorkersPerNode: 2, LPsPerWorker: 1}}, func(*stats.Run) {})
	if livelockLimit > 0 {
		rt.Env.LivelockLimit = livelockLimit
	}
	ns, ws := make([]Node, nodes), make([][2]Worker, nodes)
	thread := &testThread{body: func(p *sim.Proc) { body(rt, ns, ws, p) }}
	for i := range ns {
		rt.AddNode(&ns[i], cluster.KNLDefaults())
		for j := range ws[i] {
			rt.AddWorker(&ws[i][j], &ns[i], thread)
		}
		rt.AddComm(&ns[i], thread)
	}
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	if _, err := rt.Run(); err != nil {
		return err.Error()
	}
	return ""
}

// TestDiagnosticsReadAsBefore: the names the runtime and the MPI world
// give their threads and locks are made in one string (sim.Env.Name), and
// every diagnostic that renders one reads exactly as it did when each was
// formatted on its own: a deadlock's process list, the livelock culprit
// (a process's and its callbacks'), a blocking call inside a Poll step, an
// unlock by the wrong thread and a paid probe left uncompleted.
func TestDiagnosticsReadAsBefore(t *testing.T) {
	for _, c := range []struct {
		name  string
		nodes int
		limit int // Env.LivelockLimit; 0: the runtime's
		body  func(rt *Runtime, ns []Node, ws [][2]Worker, p *sim.Proc)
		want  string
	}{
		{"deadlock", 1, 0, func(_ *Runtime, ns []Node, ws [][2]Worker, p *sim.Proc) {
			switch p.Name() {
			case "n0/w0":
				ws[0][1].inMu.Lock(p)
				ns[0].OutMu.Lock(p)
				ns[0].Rank.RecvFrom(p, 0, mpi.TagUser)
			case "n0/w1":
				p.Advance(sim.Microsecond) // w0 holds both locks by then
				ns[0].Out.Deposit(p, nil)
			case "n0/comm":
				ws[0][1].Inbox.Deposit(p, nil)
			}
		}, "sim: deadlock at t=1.040µs; 3 live processes: n0/comm: blocked (mutex inbox-0/1); " +
			"n0/w0: blocked (cond mpi-recv-0); n0/w1: blocked (mutex outbox-0)"},
		{"livelock", 1, 5000, func(_ *Runtime, _ []Node, _ [][2]Worker, p *sim.Proc) {
			for p.Name() == "n0/w1" {
				p.Advance(0)
			}
		}, `sim: virtual livelock at t=0ns (>5000 events without advancing time); stuck process: "n0/w1" (1025 of last 1024 dispatches)`},
		{"livelock/callback", 1, 5000, func(rt *Runtime, _ []Node, _ [][2]Worker, p *sim.Proc) {
			if p.Name() == "n0/comm" {
				var tick func()
				tick = func() { rt.Env.After(0, tick) }
				rt.Env.After(0, tick)
			}
		}, `sim: virtual livelock at t=0ns (>5000 events without advancing time); stuck process: "n0/comm (callback)" (1025 of last 1024 dispatches)`},
		{"step/Advance", 1, 0, func(_ *Runtime, _ []Node, _ [][2]Worker, p *sim.Proc) {
			if p.Name() == "n0/w1" {
				p.Poll(stepFunc(func() sim.Time { p.Advance(1); return -1 }))
			}
		}, `sim: process "n0/w1" panicked: sim: process "n0/w1" reached Advance inside a Poll step, which must not block`},
		{"step/mutex", 1, 0, func(_ *Runtime, ns []Node, _ [][2]Worker, p *sim.Proc) {
			switch p.Name() {
			case "n0/w0":
				ns[0].Rank.ProbeLock().Lock(p)
			case "n0/comm":
				first := true
				p.Poll(stepFunc(func() sim.Time {
					if first {
						first = false
						return 1 // the next step runs in Run's stead
					}
					ns[0].Rank.ProbeLock().Lock(p)
					return -1
				}))
			}
		}, `sim: process "n0/comm" panicked: sim: process "n0/comm" reached mutex mpi-lock-0 inside a Poll step, which must not block`},
		{"unlock", 1, 0, func(_ *Runtime, _ []Node, ws [][2]Worker, p *sim.Proc) {
			switch p.Name() {
			case "n0/w0":
				ws[0][1].inMu.Lock(p)
			case "n0/w1":
				p.Advance(sim.Microsecond)
				ws[0][1].inMu.Unlock(p)
			}
		}, `sim: process "n0/w1" panicked: sim: n0/w1 unlocking mutex "inbox-0/1" held by n0/w0`},
		{"paid probe", 2, 0, func(_ *Runtime, ns []Node, _ [][2]Worker, p *sim.Proc) {
			switch p.Name() {
			case "n1/w0":
				ns[1].Rank.Send(p, 0, mpi.TagUser, 8, nil)
			case "n0/comm":
				r := ns[0].Rank
				p.Advance(sim.Millisecond) // the message is stashed
				if !r.TryProbe(p) || r.EndProbe(p, 1, mpi.TagUser) {
					panic("the probe did not pay for a stashed match")
				}
				r.TryRecvFrom(p, 1, mpi.TagUser+1)
			}
		}, `sim: process "n0/comm" panicked: mpi: n0/comm polls (src 1, tag 5) on rank 0 with its probe of (src 1, tag 4) not completed`},
	} {
		if got := diagRun(c.nodes, c.limit, c.body); got != c.want {
			t.Errorf("%s:\n got %s\nwant %s", c.name, got, c.want)
		}
	}
}
