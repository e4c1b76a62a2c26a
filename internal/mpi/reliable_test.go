package mpi

import (
	"strings"
	"testing"

	"repro/internal/fabric"
	"repro/internal/sim"
)

// lossyWorld builds a 2-rank world over a faulty fabric with the reliable
// transport enabled.
func lossyWorld(t *testing.T, plan *fabric.FaultPlan) (*sim.Env, *World) {
	t.Helper()
	env := sim.NewEnv()
	w := NewWorld(env, 2, fabric.Params{Latency: 100}, Costs{Send: 10, Recv: 5, Poll: 1, LockHold: 1})
	if err := w.Fabric().SetFaults(plan, 99); err != nil {
		t.Fatal(err)
	}
	w.EnableReliable()
	return env, w
}

func TestReliableExactlyOnceInOrder(t *testing.T) {
	plan := &fabric.FaultPlan{Link: fabric.LinkFaults{Drop: 0.3, Duplicate: 0.3, Jitter: 400}}
	env, w := lossyWorld(t, plan)
	const n = 300
	var got []int
	env.Spawn("sender", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			w.Rank(0).Send(p, 1, TagUser, 64, i)
		}
	})
	env.Spawn("receiver", func(p *sim.Proc) {
		for len(got) < n {
			m := w.Rank(1).RecvFrom(p, 0, TagUser)
			got = append(got, m.Payload.(int))
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("message %d carried payload %d: order or dedup broken", i, v)
		}
	}
	st := w.TransportStats()
	if st.Retransmits == 0 {
		t.Fatalf("30%% drop over %d sends produced no retransmits: %+v", n, st)
	}
	if st.DupsSuppressed == 0 {
		t.Fatalf("30%% duplication produced no suppressed dups: %+v", st)
	}
	if st.AcksSent == 0 || st.AcksRecv == 0 {
		t.Fatalf("no acks flowed: %+v", st)
	}
}

func TestReliableNoFaultsPassThrough(t *testing.T) {
	// Reliable transport over a perfect wire: no retransmits, no dups,
	// one ack per data frame.
	env, w := lossyWorld(t, &fabric.FaultPlan{})
	var got []int
	env.Spawn("sender", func(p *sim.Proc) {
		for i := 0; i < 50; i++ {
			w.Rank(0).Send(p, 1, TagUser, 8, i)
		}
	})
	env.Spawn("receiver", func(p *sim.Proc) {
		for len(got) < 50 {
			m := w.Rank(1).RecvFrom(p, 0, TagUser)
			got = append(got, m.Payload.(int))
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	st := w.TransportStats()
	if st.Retransmits != 0 || st.DupsSuppressed != 0 {
		t.Fatalf("perfect wire: %+v", st)
	}
	if st.AcksSent != 50 {
		t.Fatalf("AcksSent = %d, want 50", st.AcksSent)
	}
}

func TestReliableOutlivesPartition(t *testing.T) {
	// A link partitioned for 3ms: the frame sent into the partition keeps
	// retransmitting with backoff until the window closes, and is then the
	// first frame delivered, ahead of one sent after the partition.
	plan := &fabric.FaultPlan{Windows: []fabric.Window{
		{Src: 0, Dst: 1, Every: 1 << 40, Open: 3_000_000, Drop: 1},
	}}
	env, w := lossyWorld(t, plan)
	var got []any
	var firstAt sim.Time
	env.Spawn("sender", func(p *sim.Proc) {
		w.Rank(0).Send(p, 1, TagUser, 8, "partitioned")
		p.Advance(4_000_000) // outlive the partition window
		w.Rank(0).Send(p, 1, TagUser, 8, "after")
	})
	env.Spawn("receiver", func(p *sim.Proc) {
		got = append(got, w.Rank(1).RecvFrom(p, 0, TagUser).Payload)
		firstAt = p.Now()
		got = append(got, w.Rank(1).RecvFrom(p, 0, TagUser).Payload)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != "partitioned" || got[1] != "after" {
		t.Fatalf("deliveries = %v, want [partitioned after]", got)
	}
	if firstAt < 3_000_000 {
		t.Fatalf("first delivery at %v, inside the partition window", firstAt)
	}
	if st := w.TransportStats(); st.Retransmits < 3 {
		t.Fatalf("Retransmits = %d, want >= 3 (stats %+v)", st.Retransmits, st)
	}
}

func TestReliableCollectivesUnderLoss(t *testing.T) {
	env := sim.NewEnv()
	const n = 4
	w := NewWorld(env, n, fabric.Params{Latency: 100}, Costs{Send: 10, Recv: 5, Poll: 1, LockHold: 1})
	plan := &fabric.FaultPlan{Link: fabric.LinkFaults{Drop: 0.25, Duplicate: 0.2, Jitter: 300}}
	if err := w.Fabric().SetFaults(plan, 5); err != nil {
		t.Fatal(err)
	}
	w.EnableReliable()
	sums := make([]int64, n)
	mins := make([]float64, n)
	for i := 0; i < n; i++ {
		i := i
		env.Spawn("rank", func(p *sim.Proc) {
			r := w.Rank(i)
			r.Barrier(p)
			sums[i] = r.AllreduceSum(p, int64(i+1))
			mins[i] = r.AllreduceMin(p, float64(10-i))
			r.Barrier(p)
		})
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if sums[i] != 10 {
			t.Fatalf("rank %d sum = %d, want 10", i, sums[i])
		}
		if mins[i] != 7 {
			t.Fatalf("rank %d min = %v, want 7", i, mins[i])
		}
	}
}

func TestReliableDeterminism(t *testing.T) {
	run := func() (TransportStats, sim.Time) {
		plan := &fabric.FaultPlan{Link: fabric.LinkFaults{Drop: 0.3, Duplicate: 0.2, Jitter: 500}}
		env, w := lossyWorld(t, plan)
		done := 0
		env.Spawn("sender", func(p *sim.Proc) {
			for i := 0; i < 200; i++ {
				w.Rank(0).Send(p, 1, TagUser, 32, i)
			}
		})
		env.Spawn("receiver", func(p *sim.Proc) {
			for done < 200 {
				w.Rank(1).RecvFrom(p, 0, TagUser)
				done++
			}
		})
		if err := env.Run(); err != nil {
			t.Fatal(err)
		}
		return w.TransportStats(), env.Now()
	}
	s1, t1 := run()
	s2, t2 := run()
	if s1 != s2 || t1 != t2 {
		t.Fatalf("non-deterministic: (%+v, %v) vs (%+v, %v)", s1, t1, s2, t2)
	}
}

func TestForEachBuffered(t *testing.T) {
	// Partition the link for 1ms so the sent frame sits unacked in the
	// send buffer at the moment of the scan.
	plan := &fabric.FaultPlan{Windows: []fabric.Window{
		{Src: 0, Dst: 1, Every: 1 << 40, Open: 1_000_000, Drop: 1},
	}}
	env, w := lossyWorld(t, plan)
	var seen []any
	env.Spawn("sender", func(p *sim.Proc) {
		w.Rank(0).Send(p, 1, TagUser, 8, "held")
		w.ForEachBuffered(func(payload any) { seen = append(seen, payload) })
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 1 || seen[0] != "held" {
		t.Fatalf("buffered payloads = %v, want [held]", seen)
	}
}

func TestAllreducePayloadDiagnostics(t *testing.T) {
	env := sim.NewEnv()
	w := NewWorld(env, 2, fabric.Params{Latency: 100}, Costs{Send: 10, Recv: 5, Poll: 1, LockHold: 1})
	var msg string
	env.Spawn("rank0", func(p *sim.Proc) {
		defer func() {
			if r := recover(); r != nil {
				msg = r.(string)
			}
		}()
		w.Rank(0).AllreduceSum(p, 1)
	})
	env.Spawn("rank1", func(p *sim.Proc) {
		// A misbehaving rank sends a float64 on the reduce tag.
		w.Rank(1).Send(p, 0, tagReduceArrive, 8, 3.14)
	})
	env.Run() // rank0 dies mid-collective; scheduler outcome irrelevant
	for _, want := range []string{"mpi: allreduce expected int64", "float64", "src 1", "tag 2"} {
		if !strings.Contains(msg, want) {
			t.Fatalf("panic %q missing %q", msg, want)
		}
	}
}
