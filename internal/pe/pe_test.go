package pe

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/event"
	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// TestOweSettlesAsAdvances: owed charges pass as one Advance each, in
// order, beside a thread waking at every instant between them — also past
// a full owed list, which settles early and goes on.
func TestOweSettlesAsAdvances(t *testing.T) {
	run := func(n int, owe bool) (log []sim.Time, k sim.Counters) {
		env := sim.NewEnv()
		env.Spawn("worker", func(p *sim.Proc) {
			w := &Worker{Proc: p}
			for i := 1; i <= n; i++ {
				if owe {
					w.Owe(sim.Time(i % 3))
				} else {
					p.Advance(sim.Time(i % 3))
				}
			}
			w.Settle()
			log = append(log, -p.Now())
		})
		env.Spawn("ticker", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				log = append(log, p.Now())
				p.Advance(1)
			}
		})
		if err := env.Run(); err != nil {
			t.Fatal(err)
		}
		return log, env.Counters()
	}
	for _, n := range []int{1, 4, 6, 11} {
		lit, lk := run(n, false)
		got, gk := run(n, true)
		if !reflect.DeepEqual(lit, got) || gk.Dispatches != lk.Dispatches || gk.ProcSwitches+gk.Chained != lk.ProcSwitches || n > 1 && gk.Chained == 0 {
			t.Errorf("%d charges: owed %v %+v, advanced %v %+v", n, got, gk, lit, lk)
		}
	}
}

// TestMailboxFIFOAcrossDepositors: items come out in the order their
// deposits completed, whichever of two contending threads made them, and
// a bounded Take returns the front of that order.
func TestMailboxFIFOAcrossDepositors(t *testing.T) {
	env := sim.NewEnv()
	mu := &sim.Mutex{Name: "box", HoldCost: 3}
	box := NewMailbox[int](mu, 10)
	var want []int
	depositor := func(base int, gap sim.Time) func(*sim.Proc) {
		return func(p *sim.Proc) {
			for i := 0; i < 6; i++ {
				p.Advance(gap)
				box.Deposit(p, base+i)
				// Unlock never yields: this is the instant of the append.
				want = append(want, base+i)
			}
		}
	}
	env.Spawn("a", depositor(100, 7))
	env.Spawn("b", depositor(200, 11))
	var got []int
	env.Spawn("taker", func(p *sim.Proc) {
		p.Advance(1000)
		front, backlog := box.Take(p, 4)
		if len(front) != 4 || backlog != 8 || box.Len() != 8 {
			t.Errorf("Take(4): %d items, backlog %d, Len %d; want 4, 8, 8", len(front), backlog, box.Len())
		}
		got = append(got, front...)
		rest, backlog := box.Take(p, 0)
		if backlog != 0 {
			t.Errorf("Take(all) left %d behind", backlog)
		}
		got = append(got, rest...)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if mu.Contended == 0 {
		t.Error("the two depositors never contended: the test does not exercise the lock")
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("taken %v, deposited %v", got, want)
	}
}

// TestMailboxTakeEmpty: Take on an empty mailbox returns nothing, still
// pays the lock, and keeps the spare array for the next drain.
func TestMailboxTakeEmpty(t *testing.T) {
	env := sim.NewEnv()
	mu := &sim.Mutex{HoldCost: 5}
	box := NewMailbox[int](mu, 1)
	env.Spawn("owner", func(p *sim.Proc) {
		box.Deposit(p, 1)
		batch, _ := box.Take(p, 0)
		box.Recycle(batch)
		before := p.Now()
		batch, backlog := box.Take(p, 0)
		if len(batch) != 0 || backlog != 0 {
			t.Errorf("empty Take returned %v, backlog %d", batch, backlog)
		}
		if p.Now()-before != mu.HoldCost {
			t.Errorf("empty Take cost %v, want the lock's %v", p.Now()-before, mu.HoldCost)
		}
		box.Recycle(batch)
		if cap(box.spare) == 0 {
			t.Error("empty Take lost the spare array")
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestZeroMailboxIsEmpty: a mailbox an engine never built (a Time Warp
// worker's acknowledgement and migration boxes in runs that use neither)
// answers the zero-cost peeks as an empty one.
func TestZeroMailboxIsEmpty(t *testing.T) {
	var box Mailbox[int]
	if box.Len() != 0 || box.Items() != nil {
		t.Errorf("zero mailbox: Len %d, Items %v", box.Len(), box.Items())
	}
}

// TestMailboxSteadyStateAllocs: once both arrays have grown to the batch
// size, deposit/take/recycle allocates nothing.
func TestMailboxSteadyStateAllocs(t *testing.T) {
	env := sim.NewEnv()
	box := NewMailbox[*event.Event](&sim.Mutex{HoldCost: 2}, 4)
	ev := &event.Event{}
	env.Spawn("owner", func(p *sim.Proc) {
		cycle := func() {
			for i := 0; i < 8; i++ {
				box.Deposit(p, ev)
			}
			batch, _ := box.Take(p, 0)
			box.Recycle(batch)
		}
		cycle() // grow the first array,
		cycle() // and the second
		if avg := testing.AllocsPerRun(200, cycle); avg != 0 {
			t.Errorf("%v allocations per deposit/take cycle, want 0", avg)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestTracedSendRecv: Send and TraceRecv emit exactly one record per
// message, carrying the fields the engines' traces always carried.
func TestTracedSendRecv(t *testing.T) {
	var buf bytes.Buffer
	tw := trace.NewWriter(&buf)
	var rt Runtime
	rt.Init(Config{
		Topology: cluster.Topology{Nodes: 2, WorkersPerNode: 1, LPsPerWorker: 1},
		Trace:    tw,
	}, func(*stats.Run) {})
	var n0, n1 Node
	rt.AddNode(&n0, cluster.KNLDefaults())
	rt.AddNode(&n1, cluster.KNLDefaults())
	sizes := []int{40, 56, 24}
	var sendAt, recvAt []int64
	rt.AddProcess("sender", func(p *sim.Proc) {
		for i, sz := range sizes {
			n0.Send(p, 1, mpi.TagUser, sz, i, len(sizes)-1-i)
			sendAt = append(sendAt, int64(p.Now()))
		}
	})
	rt.AddProcess("receiver", func(p *sim.Proc) {
		for got := 0; got < len(sizes); {
			m, ok := n1.Rank.TryRecv(p, mpi.TagUser)
			if !ok {
				p.Advance(100)
				continue
			}
			p.Advance(7) // delivery happens between the receive and its record
			n1.TraceRecv(p, m, 10+got)
			recvAt = append(recvAt, int64(p.Now()))
			got++
		}
	})
	if _, err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	var sends []trace.MPISend
	var recvs []trace.MPIRecv
	others := 0
	err := trace.NewReader(&buf).ForEach(trace.Visitor{
		MPISend: func(m trace.MPISend) { sends = append(sends, m) },
		MPIRecv: func(m trace.MPIRecv) { recvs = append(recvs, m) },
		Commit:  func(trace.Commit) { others++ }, Round: func(trace.Round) { others++ },
		Phase: func(trace.Phase) { others++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	var wantSends []trace.MPISend
	var wantRecvs []trace.MPIRecv
	for i, sz := range sizes {
		wantSends = append(wantSends, trace.MPISend{Src: 0, Dst: 1, Bytes: uint32(sz), QueueDepth: uint32(len(sizes) - 1 - i), AtNanos: sendAt[i]})
		wantRecvs = append(wantRecvs, trace.MPIRecv{Src: 0, Dst: 1, Bytes: uint32(sz), QueueDepth: uint32(10 + i), AtNanos: recvAt[i]})
	}
	if !reflect.DeepEqual(sends, wantSends) {
		t.Errorf("MPISend records\n got %+v\nwant %+v", sends, wantSends)
	}
	if !reflect.DeepEqual(recvs, wantRecvs) {
		t.Errorf("MPIRecv records\n got %+v\nwant %+v", recvs, wantRecvs)
	}
	if others != 0 {
		t.Errorf("%d records besides the MPI ones", others)
	}
}
