package fabric

import (
	"fmt"
	"testing"

	"repro/internal/sim"
)

// closureWire is the reference delivery: the same Send, with each
// transmission scheduled as a closure of its own over the packet, the way
// the fabric delivered before the wire heap. Fault draws go through the
// wrapped fabric's own plan and stream, so both see the same faults.
type closureWire struct {
	*Fabric
	last map[[2]int]sim.Time
}

func (c *closureWire) Send(pkt Packet) {
	f := c.Fabric
	if f.faults == nil {
		arrival := f.env.Now() + f.params.TransferTime(pkt.Size)
		k := [2]int{pkt.Src, pkt.Dst}
		if arrival < c.last[k] {
			arrival = c.last[k]
		}
		c.last[k] = arrival
		c.transmit(pkt, arrival-f.env.Now())
		return
	}
	lf := f.faults.linkFor(pkt.Src, pkt.Dst)
	base := f.params.TransferTime(pkt.Size)
	if extra, dropped := f.faultedDelay(&pkt, lf); !dropped {
		c.transmit(pkt, base+extra)
	}
	if lf.Duplicate > 0 && f.frng.Float64() < lf.Duplicate {
		if extra, dropped := f.faultedDelay(&pkt, lf); !dropped {
			f.fault(FaultDuplicate, pkt.Src, pkt.Dst, 0)
			c.transmit(pkt, base+extra)
		}
	}
}

func (c *closureWire) transmit(pkt Packet, delay sim.Time) {
	f := c.Fabric
	f.MessagesSent++
	f.BytesSent += int64(pkt.Size)
	f.env.After(delay, func() {
		f.MessagesDelivered++
		f.BytesDelivered += int64(pkt.Size)
		f.handlers[pkt.Dst](pkt)
	})
}

// delivery is one line of a delivery log.
type delivery struct {
	at                  sim.Time
	src, dst, tag, size int
	seq                 uint64
	payload             any
}

// wireProgram is a deterministic traffic pattern: every endpoint runs a
// sender that cycles through its peers, sizes and pauses; an endpoint
// answers every third packet it receives from inside the delivery, as the
// reliable transport's acks do.
type wireProgram struct {
	name   string
	n      int
	params Params
	plan   *FaultPlan
	sends  int
	sizes  []int
	pauses []sim.Time // 0 sends the next packet at the same instant
}

// run drives the program over the wire heap (reference false) or the
// closure reference, and returns the delivery log and the final fabric.
// On the wire heap it checks at every send and every delivery that
// ForEachInFlight visits exactly the packets sent and not yet delivered.
func (w wireProgram) run(t *testing.T, reference bool) ([]delivery, *Fabric) {
	t.Helper()
	env := sim.NewEnv()
	f := New(env, w.n, w.params)
	if err := f.SetFaults(w.plan, 11); err != nil {
		t.Fatal(err)
	}
	send := f.Send
	if reference {
		send = (&closureWire{Fabric: f, last: map[[2]int]sim.Time{}}).Send
	}
	checkInFlight := func(where string) {
		if reference {
			return
		}
		seen := 0
		f.ForEachInFlight(func(Packet) { seen++ })
		if want := f.MessagesSent - f.MessagesDelivered; int64(seen) != want {
			t.Fatalf("%s at %v: ForEachInFlight visited %d packets, %d sent and not delivered", where, env.Now(), seen, want)
		}
	}
	var log []delivery
	var seq uint64
	for id := 0; id < w.n; id++ {
		id, got := id, 0
		f.Attach(id, func(p Packet) {
			log = append(log, delivery{env.Now(), p.Src, p.Dst, p.Tag, p.Size, p.Seq, p.Payload})
			checkInFlight("delivery")
			if got++; got%3 == 0 {
				seq++
				send(Packet{Src: id, Dst: p.Src, Tag: p.Tag + 1000, Size: 16, Seq: seq, Payload: p.Tag})
				checkInFlight("reply")
			}
		})
	}
	for s := 0; s < w.n; s++ {
		env.Spawn(fmt.Sprintf("sender%d", s), func(p *sim.Proc) {
			for i := 0; i < w.sends; i++ {
				seq++
				dst := (s + 1 + i%(w.n-1)) % w.n
				send(Packet{Src: s, Dst: dst, Tag: s*w.sends + i, Size: w.sizes[(s+i)%len(w.sizes)], Seq: seq, Payload: i})
				checkInFlight("send")
				p.Advance(w.pauses[i%len(w.pauses)])
			}
		})
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	return log, f
}

// TestWireMatchesClosureDelivery: the wire heap delivers every packet at
// the instant and in the order one kernel callback per packet does — on
// FIFO links where a small packet is held behind a large one, at instants
// many links share, and under drops, duplicates, jitter and a partition
// window — with the same counters, and its in-flight set is always exactly
// the packets sent and not delivered, with no tracking switched on.
func TestWireMatchesClosureDelivery(t *testing.T) {
	for _, w := range []wireProgram{
		{name: "fifo", n: 4, params: Params{Latency: 100, BytesPerSec: 1e9}, sends: 300,
			sizes: []int{1_000_000, 0, 64, 1000, 64}, pauses: []sim.Time{0, 50, 0, 1000, 7}},
		{name: "ties", n: 5, params: Params{Latency: 100}, sends: 300,
			sizes: []int{8}, pauses: []sim.Time{0, 100, 0, 0, 200}},
		{name: "faults", n: 4, params: Params{Latency: 100, BytesPerSec: 1e9}, sends: 400,
			sizes: []int{64, 5000, 0}, pauses: []sim.Time{0, 30, 100, 0, 250},
			plan: &FaultPlan{
				Link:    LinkFaults{Drop: 0.1, Duplicate: 0.15, Jitter: 300},
				Windows: []Window{{Src: -1, Dst: 0, Every: 5000, Open: 700, Drop: 1}},
			}},
	} {
		t.Run(w.name, func(t *testing.T) {
			want, ref := w.run(t, true)
			got, f := w.run(t, false)
			if len(got) != len(want) {
				t.Fatalf("%d deliveries, reference %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("delivery %d: %+v, reference %+v", i, got[i], want[i])
				}
			}
			type counters struct {
				sent, sentBytes, delivered, deliveredBytes int64
				faults                                     FaultStats
			}
			a := counters{ref.MessagesSent, ref.BytesSent, ref.MessagesDelivered, ref.BytesDelivered, ref.FaultStats()}
			b := counters{f.MessagesSent, f.BytesSent, f.MessagesDelivered, f.BytesDelivered, f.FaultStats()}
			if a != b {
				t.Errorf("counters %+v, reference %+v", b, a)
			}
			if w.plan != nil && (b.faults.Dropped == 0 || b.faults.Duplicated == 0 || b.faults.Jittered == 0 || b.faults.WindowDropped == 0) {
				t.Errorf("the fault plan did not inject every kind: %+v", b.faults)
			}
			if len(f.wire) != 0 {
				t.Errorf("%d packets left on the wire", len(f.wire))
			}
		})
	}
}

// sendDeliver is one operation of the send/deliver microbenchmarks: three
// fault-free packets on three links, then long enough for all three to be
// delivered.
func sendDeliver(f *Fabric, p *sim.Proc, payload *int) {
	for src := 0; src < 3; src++ {
		f.Send(Packet{Src: src, Dst: src + 1, Tag: 1, Size: 64 << src, Payload: payload})
	}
	p.Advance(f.Params().TransferTime(256))
}

func newBenchFabric() (*sim.Env, *Fabric) {
	env := sim.NewEnv()
	f := New(env, 4, EthernetDefaults())
	for id := 0; id < 4; id++ {
		f.Attach(id, func(Packet) {})
	}
	return env, f
}

// TestSendDeliverAllocs: once the wire and the kernel's callback slab have
// grown, a fault-free send and its delivery allocate nothing.
func TestSendDeliverAllocs(t *testing.T) {
	env, f := newBenchFabric()
	payload := new(int)
	env.Spawn("sender", func(p *sim.Proc) {
		if avg := testing.AllocsPerRun(200, func() { sendDeliver(f, p, payload) }); avg != 0 {
			t.Errorf("%v allocations per three sends and deliveries, want 0", avg)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkSendDeliver: one op is three fault-free sends and their
// deliveries (fabric.send_ns's path, without MPI).
func BenchmarkSendDeliver(b *testing.B) {
	env, f := newBenchFabric()
	payload := new(int)
	b.ReportAllocs()
	env.Spawn("sender", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			sendDeliver(f, p, payload)
		}
	})
	if err := env.Run(); err != nil {
		b.Fatal(err)
	}
}
