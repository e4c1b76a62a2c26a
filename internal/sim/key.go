package sim

import (
	"fmt"
	"math"
)

// Key is an event's place in the kernel's one order: by the instant it is
// due, then the instant it was filed at, then Tie. Every filer works its
// keys out alone, and no two filings share one (DESIGN.md "Kernel
// scheduling", the key rule):
//
//   - a filing due d > 0 from now has Tie = perm(filer, now)<<16 | c, c the
//     filer's count of such filings at now. A filer is a process, or the
//     scheduler for callbacks and for filings made outside Run.
//   - a zero-delay filing (Spawn, a hand-off wake, Advance(0), After(0)) is
//     due at the instant it is filed at, so it follows every positive-delay
//     filing due then; its Tie counts the zero-delay filings made at that
//     instant, first come first served.
//
// Events are dispatched in key order, and a dispatch files only keys after
// its own, so the keys dispatched only grow.
type Key struct {
	At, Filed Time
	Tie       uint32
}

// Before reports whether k is ordered before o.
func (k Key) Before(o Key) bool {
	return k.At < o.At || k.At == o.At && (k.Filed < o.Filed || k.Filed == o.Filed && k.Tie < o.Tie)
}

// The positive-delay Tie's two fields: the filer's permuted id, then its
// count of filings at the instant.
const (
	countBits = 16
	maxFilers = 1 << (32 - countBits) // ids 0 … maxFilers-2 are processes'
	schedID   = maxFilers - 1         // the scheduler's
	maxCount  = 1<<countBits - 1
)

// A filer is what files an event: a process, or the scheduler. n is its
// count of positive-delay filings at instant at.
type filer struct {
	id uint32
	at Time
	n  uint32
}

// perm permutes the filer ids, a different way at every instant t, so that
// no filer's filings always come first among those due with them: each step
// is a bijection of the 16-bit ids.
func perm(id uint32, t Time) uint32 {
	h := uint32(uint64(t) * 0x9E3779B97F4A7C15 >> 32)
	x := (id ^ h) * 0x6D2B & (maxFilers - 1)
	x ^= x >> 7
	x = (x + h>>16) * 0x4A39 & (maxFilers - 1)
	return x ^ x>>8
}

// file is the key of a filing by f due d from now (f is not read if d is 0).
func (e *Env) file(f *filer, d Time) Key {
	k := Key{At: e.now + d, Filed: e.now}
	if d == 0 {
		if e.zeroAt != e.now {
			e.zeroAt, e.zeros = e.now, 0
		}
		if e.zeros == math.MaxUint32 {
			panic(fmt.Sprintf("sim: more than %d zero-delay filings at t=%v", uint64(math.MaxUint32), e.now))
		}
		k.Tie = e.zeros
		e.zeros++
		return k
	}
	if f.at != e.now {
		f.at, f.n = e.now, 0
	}
	if f.n > maxCount {
		panic(fmt.Sprintf("sim: %s filed more than %d events at t=%v", e.filerName(f), maxCount+1, e.now))
	}
	k.Tie = perm(f.id, e.now)<<countBits | f.n
	f.n++
	return k
}

// filer is who files now: the process in context, or the scheduler.
func (e *Env) filer() *filer {
	if e.cur != nil {
		return &e.cur.f
	}
	return &e.sched
}

func (e *Env) filerName(f *filer) string {
	if f.id == schedID {
		return "the scheduler"
	}
	return fmt.Sprintf("process %q", e.procs[f.id].name)
}
