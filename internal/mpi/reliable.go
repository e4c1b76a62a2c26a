// Reliable transport: sequence numbers, ack/retransmit with exponential
// backoff, and duplicate suppression layered under Send/Recv, per
// (src, dst) link — the role TCP plays under real MPI. It exists so the
// simulator keeps MPI's exactly-once in-order delivery contract when the
// fabric is running a fault plan (drops, duplicates, reordering jitter).
//
// Disabled (the default) it costs nothing: packets travel with Ctl=0 and
// the receive path is unchanged, keeping fault-free runs byte-identical.
package mpi

import (
	"fmt"

	"repro/internal/fabric"
	"repro/internal/sim"
)

// Packet control codes (fabric.Packet.Ctl).
const (
	ctlRaw  uint8 = iota // legacy unsequenced packet
	ctlData              // sequenced payload, expects an ack
	ctlAck               // acknowledgement, Seq = acked sequence number
)

// ackWire is the wire size charged for an ack frame (seq + header).
const ackWire = 12

// TransportStats is a snapshot of one rank's (or the whole world's)
// reliable-transport counters.
type TransportStats struct {
	// Retransmits counts data frames re-sent after an RTO expiry.
	Retransmits int64
	// DupsSuppressed counts received duplicate data frames discarded.
	DupsSuppressed int64
	// AcksSent and AcksRecv count ack frames.
	AcksSent int64
	AcksRecv int64
}

func (s TransportStats) add(o TransportStats) TransportStats {
	s.Retransmits += o.Retransmits
	s.DupsSuppressed += o.DupsSuppressed
	s.AcksSent += o.AcksSent
	s.AcksRecv += o.AcksRecv
	return s
}

// relPending is one unacknowledged data frame awaiting ack or RTO.
type relPending struct {
	pkt fabric.Packet
	rto sim.Time
}

// sendLink is the sender half of one directed link.
type sendLink struct {
	nextSeq uint64
	unacked map[uint64]*relPending
}

// recvLink is the receiver half: in-order reassembly and dup suppression.
type recvLink struct {
	expected uint64 // next in-order sequence number (first frame is 1)
	buffer   map[uint64]fabric.Packet
}

// reliable is a rank's transport state. The retransmission timeout
// starts at baseRTO, 8 x the fabric one-way latency (a loose RTT estimate
// plus slack), and backs off exponentially up to 8 x baseRTO. Every frame
// retransmits until acked, so a lost frame is never the layer above's
// problem.
type reliable struct {
	baseRTO sim.Time
	send    map[int]*sendLink // by destination rank
	recv    map[int]*recvLink // by source rank
	stats   TransportStats
}

// EnableReliable turns on the reliable transport for every rank. Must be
// called before any traffic; calling it twice panics, and so does a
// fabric without latency, which leaves no retransmission timeout.
func (w *World) EnableReliable() {
	base := 8 * w.fabric.Params().Latency
	if base <= 0 {
		panic(fmt.Sprintf("mpi: non-positive retransmission timeout %v", base))
	}
	for _, r := range w.ranks {
		if r.rel != nil {
			panic("mpi: reliable transport already enabled")
		}
		r.rel = &reliable{
			baseRTO: base,
			send:    make(map[int]*sendLink),
			recv:    make(map[int]*recvLink),
		}
	}
}

// TransportStats returns this rank's reliable-transport counters
// (all zero when the transport is disabled).
func (r *Rank) TransportStats() TransportStats {
	if r.rel == nil {
		return TransportStats{}
	}
	return r.rel.stats
}

// TransportStats aggregates the transport counters across all ranks.
func (w *World) TransportStats() TransportStats {
	var s TransportStats
	for _, r := range w.ranks {
		s = s.add(r.TransportStats())
	}
	return s
}

// sendData sequences pkt, records it as unacked, transmits, and arms the
// retransmission timer. Runs under the rank's MPI lock.
func (r *Rank) sendData(pkt fabric.Packet) {
	t := r.rel
	link := t.send[pkt.Dst]
	if link == nil {
		link = &sendLink{unacked: make(map[uint64]*relPending)}
		t.send[pkt.Dst] = link
	}
	link.nextSeq++
	pkt.Seq = link.nextSeq
	pkt.Ctl = ctlData
	pd := &relPending{pkt: pkt, rto: t.baseRTO}
	link.unacked[pkt.Seq] = pd
	r.world.fabric.Send(pkt)
	r.armRetransmit(link, pd)
}

// armRetransmit schedules the next RTO expiry for pd. The timer fires in
// scheduler-callback context (the simulated NIC/progress engine), so
// retransmissions cost wire time but no thread CPU.
func (r *Rank) armRetransmit(link *sendLink, pd *relPending) {
	seq := pd.pkt.Seq
	r.world.env.After(pd.rto, func() {
		cur, ok := link.unacked[seq]
		if !ok || cur != pd {
			return // acked in the meantime
		}
		r.rel.stats.Retransmits++
		if pd.rto *= 2; pd.rto > 8*r.rel.baseRTO {
			pd.rto = 8 * r.rel.baseRTO
		}
		r.world.fabric.Send(pd.pkt)
		r.armRetransmit(link, pd)
	})
}

// receive dispatches an arriving packet by control code. Runs in
// scheduler-callback context as the fabric delivery handler.
func (r *Rank) receive(pkt fabric.Packet) {
	if r.rel == nil || pkt.Ctl == ctlRaw {
		r.deliver(pkt)
		return
	}
	switch pkt.Ctl {
	case ctlAck:
		r.rel.stats.AcksRecv++
		if link := r.rel.send[pkt.Src]; link != nil {
			delete(link.unacked, pkt.Seq)
		}
	case ctlData:
		t := r.rel
		link := t.recv[pkt.Src]
		if link == nil {
			link = &recvLink{expected: 1, buffer: make(map[uint64]fabric.Packet)}
			t.recv[pkt.Src] = link
		}
		// Ack every arrival, duplicates included: the original ack may
		// have been the frame the fabric lost.
		t.stats.AcksSent++
		r.world.fabric.Send(fabric.Packet{
			Src: r.id, Dst: pkt.Src, Tag: pkt.Tag, Size: ackWire, Ctl: ctlAck, Seq: pkt.Seq,
		})
		if pkt.Seq < link.expected {
			t.stats.DupsSuppressed++
			return
		}
		if _, dup := link.buffer[pkt.Seq]; dup {
			t.stats.DupsSuppressed++
			return
		}
		link.buffer[pkt.Seq] = pkt
		for {
			next, ok := link.buffer[link.expected]
			if !ok {
				break
			}
			delete(link.buffer, link.expected)
			link.expected++
			r.deliver(next)
		}
	default:
		panic(fmt.Sprintf("mpi: unknown packet control code %d from %d", pkt.Ctl, pkt.Src))
	}
}

// ForEachBuffered visits the payload of every message held anywhere inside
// this rank's receive path or awaiting acknowledgement on its send path:
// the unconsumed stash, out-of-order reassembly buffers, and unacked
// frames whose retransmission could still re-enter the system. An unacked
// frame the receiver has already accepted (its ack was lost, not the data)
// is excluded — retransmits of it are discarded as duplicates. Used by GVT
// invariant checks; visit order is unspecified.
func (r *Rank) ForEachBuffered(fn func(payload any)) {
	for i := r.head; i < len(r.stash); i++ {
		fn(r.stash[i].Payload)
	}
	if r.rel == nil {
		return
	}
	for _, link := range r.rel.recv {
		for _, pkt := range link.buffer {
			fn(pkt.Payload)
		}
	}
	for _, link := range r.rel.send {
		for _, pd := range link.unacked {
			if !r.world.PacketWillDeliver(pd.pkt) {
				continue
			}
			fn(pd.pkt.Payload)
		}
	}
}

// ForEachBuffered visits buffered payloads across every rank.
func (w *World) ForEachBuffered(fn func(payload any)) {
	for _, r := range w.ranks {
		r.ForEachBuffered(fn)
	}
}

// PacketWillDeliver reports whether an in-flight packet would reach the
// application if it arrived now: acks and duplicates of frames the
// receiver has already accepted (fabric-duplicated or retransmitted) are
// discarded by the transport and can never re-enter the simulation. Used by GVT invariant checks to decide which in-flight
// timestamps actually bound the commit horizon.
func (w *World) PacketWillDeliver(pkt fabric.Packet) bool {
	if pkt.Dst < 0 || pkt.Dst >= len(w.ranks) {
		return false
	}
	r := w.ranks[pkt.Dst]
	if r.rel == nil || pkt.Ctl == ctlRaw {
		return true
	}
	if pkt.Ctl != ctlData {
		return false
	}
	link := r.rel.recv[pkt.Src]
	if link == nil {
		return true
	}
	if pkt.Seq < link.expected {
		return false
	}
	if _, buffered := link.buffer[pkt.Seq]; buffered {
		return false
	}
	return true
}
