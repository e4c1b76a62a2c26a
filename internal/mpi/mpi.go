// Package mpi provides the message-passing layer the paper's simulator
// uses for inter-node communication: ranks (one per node/process),
// point-to-point eager sends, non-blocking probes, source-matched blocking
// receives, rank-0-rooted collectives (barrier, allreduce), and the ring
// circulation Mattern's control message travels on.
//
// Every operation charges sender/receiver CPU time and serializes on the
// rank's MPI lock — the "threaded MPI performance is inherently limited by
// the lock contention among threads" effect ([2], paper §1) that motivates
// the dedicated MPI thread.
package mpi

import (
	"fmt"

	"repro/internal/fabric"
	"repro/internal/sim"
	"repro/internal/stash"
)

// Reserved tags for collective operations. User tags must be >= TagUser.
const (
	tagBarrierArrive = iota
	tagBarrierRelease
	tagReduceArrive
	tagReduceResult
	// TagUser is the first tag available to applications.
	TagUser
)

// Costs models the CPU-side cost of MPI operations (mpich eager protocol
// on a ~1.3 GHz KNL core).
type Costs struct {
	// Send is the CPU time consumed by MPI_Send (eager copy + progress).
	Send sim.Time
	// Recv is the CPU time to match and copy out one received message.
	Recv sim.Time
	// Poll is the CPU time of one MPI_Iprobe that finds nothing.
	Poll sim.Time
	// LockHold is the extra critical-section entry cost of the MPI
	// big lock (cache-line transfer under MPI_THREAD_MULTIPLE).
	LockHold sim.Time
}

// DefaultCosts returns KNL-flavoured defaults.
func DefaultCosts() Costs {
	return Costs{
		Send:     4250 * sim.Nanosecond,
		Recv:     2250 * sim.Nanosecond,
		Poll:     500 * sim.Nanosecond,
		LockHold: 300 * sim.Nanosecond,
	}
}

// Message is a received message.
type Message struct {
	Src     int
	Tag     int
	Size    int
	Payload any
}

// World is an MPI communicator over a fabric: n ranks, one per node.
type World struct {
	env    *sim.Env
	fabric *fabric.Fabric
	costs  Costs
	ranks  []*Rank
	kept   *arrays
}

// arrays is what a world's build makes, kept for the next world (Release).
type arrays struct {
	ranks stash.Arrays[*Rank]
	recs  stash.Arrays[Rank]
	msgs  stash.Arrays[Message]
}

func (a *arrays) Reset() int { return a.ranks.Reset() + a.recs.Reset() + a.msgs.Reset() }

var worldArrays = stash.NewKeep[arrays]()

// Release hands w's arrays and its fabric's on once the run is over; the
// fabric's counters stay.
func (w *World) Release() {
	w.fabric.Release()
	w.ranks = nil
	worldArrays.Put(w.kept)
}

// NewWorld creates a world of n ranks over a fresh fabric.
func NewWorld(env *sim.Env, n int, net fabric.Params, costs Costs) *World {
	a := worldArrays.Take()
	w := &World{
		env:    env,
		fabric: fabric.New(env, n, net),
		costs:  costs,
		ranks:  a.ranks.Make(n),
		kept:   a,
	}
	receive := w.receive        // bound once: one handler serves every rank
	c := stashCap * min(n-1, 1) // a lone rank receives nothing
	ranks, msgs := a.recs.Make(n), a.msgs.Make(n*c)
	for i := range ranks {
		w.ranks[i] = &ranks[i]
		ranks[i] = Rank{
			world: w,
			id:    i,
			stash: msgs[i*c : i*c : (i+1)*c],
			lock:  sim.Mutex{Name: env.Name("mpi-lock-%d", i), HoldCost: costs.LockHold},
			cond:  sim.Cond{Name: env.Name("mpi-recv-%d", i)},
		}
		w.fabric.Attach(i, receive)
	}
	return w
}

// receive hands a delivered packet to its rank.
func (w *World) receive(pkt fabric.Packet) { w.ranks[pkt.Dst].receive(pkt) }

// Size returns the number of ranks.
func (w *World) Size() int { return len(w.ranks) }

// Rank returns rank i.
func (w *World) Rank(i int) *Rank { return w.ranks[i] }

// Fabric exposes the underlying fabric (for statistics).
func (w *World) Fabric() *fabric.Fabric { return w.fabric }

// Rank is one MPI process. Multiple simulated threads of a node may share
// a Rank; all calls serialize on the rank's MPI lock.
type Rank struct {
	world *World
	id    int
	lock  sim.Mutex
	cond  sim.Cond
	// stash holds delivered-but-unconsumed messages; head avoids O(n)
	// shifting when messages are consumed in arrival order (the common
	// case for event traffic under backlog).
	stash []Message
	head  int
	// rel is the reliable-transport state; nil when disabled.
	rel *reliable
	// paid is a TryRecvFrom a Poll step took as far as a match (EndProbe):
	// by holds the lock and has paid for the poll of (src, tag).
	paid struct {
		by       *sim.Proc
		src, tag int
	}
}

// LockStats returns (acquisitions, contended acquisitions, total wait).
func (r *Rank) LockStats() (int64, int64, sim.Time) {
	r.lock.Wake()
	return r.lock.Acquires, r.lock.Contended, r.lock.WaitTime
}

// ProbeLock is the MPI lock a probe takes (TryProbe).
func (r *Rank) ProbeLock() *sim.Mutex { return &r.lock }

// deliver runs in scheduler-callback context when a packet arrives.
func (r *Rank) deliver(pkt fabric.Packet) {
	r.lock.Wake()
	r.stash = append(r.stash, Message{Src: pkt.Src, Tag: pkt.Tag, Size: pkt.Size, Payload: pkt.Payload})
	r.cond.Broadcast(r.world.env)
}

// compactAt is the consumed prefix past which compact may reclaim it, and
// a stash holds twice that before it grows: arrivals consumed in order fit.
const compactAt, stashCap = 32, 2 * (32 + 1)

// compact reclaims consumed slots once they dominate the stash.
func (r *Rank) compact() {
	if r.head > compactAt && r.head > len(r.stash)/2 {
		n := copy(r.stash, r.stash[r.head:])
		for i := n; i < len(r.stash); i++ {
			r.stash[i] = Message{}
		}
		r.stash = r.stash[:n]
		r.head = 0
	}
}

// Send performs an eager send of payload to rank dst with the given tag,
// charging wire size bytes for the bandwidth term.
func (r *Rank) Send(p *sim.Proc, dst, tag, size int, payload any) {
	if dst == r.id {
		panic("mpi: send to self")
	}
	r.lock.LockFor(p, r.world.costs.Send)
	pkt := fabric.Packet{Src: r.id, Dst: dst, Tag: tag, Size: size, Payload: payload}
	if r.rel != nil {
		r.sendData(pkt)
	} else {
		r.world.fabric.Send(pkt)
	}
	r.lock.Unlock(p)
}

// AnySource as a source matches a message from every rank.
const AnySource = -1

// find returns the stash index of the first message from src (AnySource:
// from anyone) with the given tag, or -1. It is the one matcher under every
// receive and probe.
func (r *Rank) find(src, tag int) int {
	for i := r.head; i < len(r.stash); i++ {
		if m := &r.stash[i]; m.Tag == tag && (src < 0 || m.Src == src) {
			return i
		}
	}
	return -1
}

// take removes the first stashed message matching (src, tag).
func (r *Rank) take(src, tag int) (Message, bool) {
	i := r.find(src, tag)
	if i < 0 {
		return Message{}, false
	}
	m := r.stash[i]
	if i == r.head {
		r.stash[i] = Message{}
		r.head++
	} else {
		// Out of arrival order: the tail shifts down, and the slot it
		// vacates is zeroed so no payload stays reachable past len(stash).
		last := len(r.stash) - 1
		copy(r.stash[i:], r.stash[i+1:])
		r.stash[last] = Message{}
		r.stash = r.stash[:last]
	}
	r.compact()
	return m, true
}

// TryRecvFrom polls for a message from src (AnySource: from anyone) with
// the given tag: the MPI lock, MPI_Iprobe's cost and, on a match,
// MPI_Recv's. It returns ok=false when none is available. When p's own
// probe has paid lock and poll already (EndProbe), this call is that
// receive's completion and must name the same (src, tag).
func (r *Rank) TryRecvFrom(p *sim.Proc, src, tag int) (Message, bool) {
	if r.paid.by == p {
		if r.paid.src != src || r.paid.tag != tag {
			panic(fmt.Sprintf("mpi: %s polls (src %d, tag %d) on rank %d with its probe of (src %d, tag %d) not completed",
				p.Name(), src, tag, r.id, r.paid.src, r.paid.tag))
		}
		r.paid.by = nil
	} else {
		r.lock.LockFor(p, r.world.costs.Poll)
	}
	m, ok := r.take(src, tag)
	if ok {
		p.Advance(r.world.costs.Recv)
	}
	r.lock.Unlock(p)
	return m, ok
}

// TryRecv polls for any message with the given tag (MPI_Iprobe +
// MPI_Recv).
func (r *Rank) TryRecv(p *sim.Proc, tag int) (Message, bool) {
	return r.TryRecvFrom(p, AnySource, tag)
}

// RecvFrom blocks until a message with the given source and tag arrives.
// Matching by source keeps successive collective rounds from mixing.
func (r *Rank) RecvFrom(p *sim.Proc, src, tag int) Message {
	for {
		if m, ok := r.TryRecvFrom(p, src, tag); ok {
			return m
		}
		r.cond.Wait(p)
	}
}

// A TryRecvFrom that finds nothing, taken apart so that a sim.Proc.Poll
// step, which may not block, can make it: TryProbe takes the lock, the
// caller lets Costs.LockHold (when positive) and then Costs.Poll pass —
// the two kernel events Lock and Advance(Costs.Poll) are — and calls
// EndProbe. Either way the lock is held exactly as long as TryRecvFrom
// holds it.

// TryProbe starts a probe without blocking or charging: it takes the MPI
// lock only if it is free.
func (r *Rank) TryProbe(p *sim.Proc) bool { return r.lock.TryAcquire(p) }

// Stashed reports, free of charge, whether a probe of (src, tag) would match.
func (r *Rank) Stashed(src, tag int) bool { return r.find(src, tag) >= 0 }

// EndProbe ends p's probe for (src, tag) at the instant its costs have
// passed. With nothing matching stashed it releases the lock and reports
// true. Otherwise — the fabric delivered while the probe's cost elapsed,
// or before — it keeps the lock, remembers that p has paid, and reports
// false: p, back in process context, completes the receive with its next
// TryRecvFrom(src, tag).
func (r *Rank) EndProbe(p *sim.Proc, src, tag int) (quiet bool) {
	if r.find(src, tag) >= 0 {
		r.paid.by, r.paid.src, r.paid.tag = p, src, tag
		return false
	}
	r.lock.Unlock(p)
	return true
}

// Barrier blocks until every rank has entered it (rank-0-rooted
// gather/release: an allreduce of nothing). All ranks must call it via
// exactly one thread each.
func (r *Rank) Barrier(p *sim.Proc) {
	allreduce(r, p, 0, func(a, _ int64) int64 { return a }, tagBarrierArrive, tagBarrierRelease)
}

// AllreduceSum returns the sum of every rank's val (rank-0-rooted).
func (r *Rank) AllreduceSum(p *sim.Proc, val int64) int64 {
	return allreduce(r, p, val, func(sum, v int64) int64 { return sum + v }, tagReduceArrive, tagReduceResult)
}

// AllreduceMin returns the minimum of every rank's val (rank-0-rooted).
func (r *Rank) AllreduceMin(p *sim.Proc, val float64) float64 {
	return allreduce(r, p, val, func(least, v float64) float64 {
		if v < least {
			return v
		}
		return least
	}, tagReduceArrive, tagReduceResult)
}

// allreduce gathers every rank's val at rank 0 under tag arrive, folding
// them in with op in rank order, and hands every rank the result under tag
// result.
func allreduce[T int64 | float64](r *Rank, p *sim.Proc, val T, op func(T, T) T, arrive, result int) T {
	n := r.world.Size()
	if n == 1 {
		return val
	}
	if r.id != 0 {
		r.Send(p, 0, arrive, 8, val)
		return payload[T](r.RecvFrom(p, 0, result))
	}
	for src := 1; src < n; src++ {
		val = op(val, payload[T](r.RecvFrom(p, src, arrive)))
	}
	for dst := 1; dst < n; dst++ {
		r.Send(p, dst, result, 8, val)
	}
	return val
}

// payload asserts an allreduce payload, diagnosing tag collisions.
func payload[T int64 | float64](m Message) T {
	v, ok := m.Payload.(T)
	if !ok {
		panic(fmt.Sprintf("mpi: allreduce expected %T payload, got %T from src %d tag %d (reserved-tag collision?)",
			v, m.Payload, m.Src, m.Tag))
	}
	return v
}

// SendRing forwards a token to the next rank in the ring.
func (r *Rank) SendRing(p *sim.Proc, tag, size int, payload any) {
	next := (r.id + 1) % r.world.Size()
	if next == r.id {
		panic("mpi: ring of one rank")
	}
	r.Send(p, next, tag, size, payload)
}

// Prev returns the rank ring tokens arrive from.
func (r *Rank) Prev() int { return (r.id - 1 + r.world.Size()) % r.world.Size() }

// TryRecvRing polls for a ring token from the previous rank.
func (r *Rank) TryRecvRing(p *sim.Proc, tag int) (Message, bool) {
	return r.TryRecvFrom(p, r.Prev(), tag)
}
