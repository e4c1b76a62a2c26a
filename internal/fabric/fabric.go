// Package fabric models the cluster interconnect (the paper's 10 GBit
// Ethernet): point-to-point links between node endpoints with a
// per-message wire latency, a bandwidth term proportional to message size,
// and in-order delivery per (source, destination) pair, as TCP-backed MPI
// provides.
//
// The fabric charges *wire* time only; sender/receiver CPU costs (MPI
// software overhead, the MPI lock) belong to package mpi.
package fabric

import (
	"fmt"
	"slices"

	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/stash"
)

// Params describes the interconnect.
type Params struct {
	// Latency is the one-way wire + stack latency per message.
	Latency sim.Time
	// BytesPerSec is the link bandwidth. Zero means infinite.
	BytesPerSec float64
}

// EthernetDefaults returns parameters approximating the paper's 10 GbE
// fabric: ~30µs one-way latency (kernel TCP stack on the slow KNL cores),
// 1.25 GB/s.
func EthernetDefaults() Params {
	return Params{Latency: 30 * sim.Microsecond, BytesPerSec: 1.25e9}
}

// TransferTime returns the wire occupancy for a message of n bytes.
func (p Params) TransferTime(n int) sim.Time {
	if p.BytesPerSec <= 0 {
		return p.Latency
	}
	return p.Latency + sim.Time(float64(n)/p.BytesPerSec*float64(sim.Second))
}

// Packet is one message in flight.
type Packet struct {
	Src, Dst int
	Tag      int
	Size     int // wire bytes, used for the bandwidth term
	Payload  any
	// Seq and Ctl belong to the reliable-transport header (package mpi):
	// Seq is the per-link sequence number, Ctl distinguishes raw (0),
	// sequenced data, and ack frames. The fabric carries them opaquely.
	Seq uint64
	Ctl uint8
}

// Handler consumes packets as they are delivered to an endpoint. It runs
// in scheduler-callback context and must not block.
type Handler func(Packet)

// Fabric connects a fixed set of endpoints.
type Fabric struct {
	env      *sim.Env
	params   Params
	handlers []Handler
	// lastArrival enforces per-(src,dst) FIFO ordering even when a large
	// message is overtaken in raw transfer time by a small one; it is
	// indexed src*n+dst.
	lastArrival []sim.Time
	// Stats
	MessagesSent      int64
	BytesSent         int64
	MessagesDelivered int64
	BytesDelivered    int64

	// FaultHook, if set, observes every injected fault (for tracing).
	FaultHook func(FaultEvent)

	// Fault-injection state; nil faults means a perfect wire.
	faults *FaultPlan
	frng   *rng.Stream
	fstats FaultStats

	// wire is every packet on the wire, a heap by the key the kernel gave
	// the deliver callback each transmit files, so that callback always
	// takes the minimum.
	wire    []wired
	deliver func() // deliverNext, bound once: a method value per call allocates
	kept    *arrays
}

// arrays is what a fabric's run grows, kept for the next fabric (Release).
type arrays struct {
	handlers stash.Arrays[Handler]
	last     stash.Arrays[sim.Time]
	wire     []wired
}

func (a *arrays) Reset() int { return a.handlers.Reset() + a.last.Reset() + stash.Empty(&a.wire) }

var fabricArrays = stash.NewKeep[arrays]()

// Release hands f's arrays to the next New once the run is over; f's
// counters stay.
func (f *Fabric) Release() {
	f.kept.wire = f.wire
	f.handlers, f.lastArrival, f.wire = nil, nil, nil
	fabricArrays.Put(f.kept)
}

// wired is one packet on the wire with its delivery key.
type wired struct {
	key sim.Key
	pkt Packet
}

func (a *wired) before(b *wired) bool { return a.key.Before(b.key) }

// New returns a fabric with n endpoints. Handlers must be attached with
// Attach before any Send to that endpoint.
func New(env *sim.Env, n int, params Params) *Fabric {
	a := fabricArrays.Take()
	f := &Fabric{
		env:         env,
		params:      params,
		handlers:    a.handlers.Make(n),
		lastArrival: a.last.Make(n * n),
		wire:        slices.Grow(a.wire, wirePerLink*n*n),
		kept:        a,
	}
	f.deliver = f.deliverNext
	return f
}

const wirePerLink = 2 // packets per link the wire holds before it grows

// Params returns the interconnect parameters.
func (f *Fabric) Params() Params { return f.params }

// Attach registers the delivery handler for endpoint id.
func (f *Fabric) Attach(id int, h Handler) {
	if f.handlers[id] != nil {
		panic(fmt.Sprintf("fabric: endpoint %d already attached", id))
	}
	f.handlers[id] = h
}

// Send puts pkt on the wire at the current virtual time. Delivery happens
// after latency plus the bandwidth term, no earlier than any previously
// sent message on the same (src, dst) link. Under a fault plan the packet
// may additionally be dropped, duplicated, or jitter-delayed; a lossy wire
// does not preserve FIFO order (the reliable transport in package mpi
// restores it).
func (f *Fabric) Send(pkt Packet) {
	if pkt.Dst < 0 || pkt.Dst >= len(f.handlers) {
		panic(fmt.Sprintf("fabric: send to endpoint %d outside [0,%d) (src %d, tag %d)",
			pkt.Dst, len(f.handlers), pkt.Src, pkt.Tag))
	}
	if pkt.Src < 0 || pkt.Src >= len(f.handlers) {
		panic(fmt.Sprintf("fabric: send from endpoint %d outside [0,%d) (dst %d, tag %d)",
			pkt.Src, len(f.handlers), pkt.Dst, pkt.Tag))
	}
	if f.handlers[pkt.Dst] == nil {
		panic(fmt.Sprintf("fabric: send to unattached endpoint %d", pkt.Dst))
	}
	if f.faults == nil {
		last := &f.lastArrival[pkt.Src*len(f.handlers)+pkt.Dst]
		*last = max(*last, f.env.Now()+f.params.TransferTime(pkt.Size))
		f.transmit(&pkt, *last-f.env.Now())
		return
	}
	// Fault path. Each physical transmission attempt draws its own faults;
	// no FIFO clamp — a lossy, jittery wire reorders freely.
	lf := f.faults.linkFor(pkt.Src, pkt.Dst)
	base := f.params.TransferTime(pkt.Size)
	if extra, dropped := f.faultedDelay(&pkt, lf); !dropped {
		f.transmit(&pkt, base+extra)
	}
	if lf.Duplicate > 0 && f.frng.Float64() < lf.Duplicate {
		if extra, dropped := f.faultedDelay(&pkt, lf); !dropped {
			f.fault(FaultDuplicate, pkt.Src, pkt.Dst, 0)
			f.transmit(&pkt, base+extra)
		}
	}
}

// transmit puts one physical delivery of pkt on the wire, due after delay.
func (f *Fabric) transmit(pkt *Packet, delay sim.Time) {
	f.MessagesSent++
	f.BytesSent += int64(pkt.Size)
	f.wire = append(f.wire, wired{key: f.env.After(delay, f.deliver), pkt: *pkt})
	for i := len(f.wire) - 1; i > 0; {
		up := (i - 1) / 2
		if !f.wire[i].before(&f.wire[up]) {
			break
		}
		f.wire[i], f.wire[up] = f.wire[up], f.wire[i]
		i = up
	}
}

// deliverNext takes the heap minimum off the wire and hands it to its
// endpoint's handler; it is the kernel callback of every transmit.
func (f *Fabric) deliverNext() {
	pkt := f.wire[0].pkt
	n := len(f.wire) - 1
	f.wire[0] = f.wire[n]
	f.wire[n] = wired{} // no payload stays reachable off the wire
	f.wire = f.wire[:n]
	for i := 0; ; {
		least, l := i, 2*i+1
		if l < n && f.wire[l].before(&f.wire[least]) {
			least = l
		}
		if r := l + 1; r < n && f.wire[r].before(&f.wire[least]) {
			least = r
		}
		if least == i {
			break
		}
		f.wire[i], f.wire[least] = f.wire[least], f.wire[i]
		i = least
	}
	f.MessagesDelivered++
	f.BytesDelivered += int64(pkt.Size)
	f.handlers[pkt.Dst](pkt)
}

// InFlight returns the messages and bytes currently on the wire: sent
// but not yet delivered.
func (f *Fabric) InFlight() (msgs, bytes int64) {
	return f.MessagesSent - f.MessagesDelivered, f.BytesSent - f.BytesDelivered
}
