// Package vtime defines the virtual-time stamps used by the Time Warp
// engine. A stamp is a model timestamp plus a deterministic tie-break
// (source LP, per-LP sequence number), giving a total order on events so
// that parallel execution commits events in exactly the order a sequential
// simulator would.
package vtime

import (
	"fmt"
	"math"
)

// Time is a model virtual time, as in ROSS (a double).
type Time = float64

// Inf is the virtual time "infinity" used for GVT reductions.
const Inf = math.MaxFloat64

// Stamp orders events totally: primary key is the receive time, then the
// sending LP, then the sender's per-LP sequence number. The tie-break
// fields are part of rolled-back LP state, so re-execution after a rollback
// regenerates identical stamps and the committed order is deterministic.
type Stamp struct {
	T   Time   // receive time
	Src uint32 // sending LP
	Seq uint64 // sender's per-LP event sequence number
}

// ZeroStamp is the minimal stamp.
var ZeroStamp = Stamp{}

// InfStamp is greater than every real stamp.
var InfStamp = Stamp{T: Inf, Src: math.MaxUint32, Seq: math.MaxUint64}

// Before reports whether s orders strictly before o.
func (s Stamp) Before(o Stamp) bool {
	if s.T != o.T {
		return s.T < o.T
	}
	if s.Src != o.Src {
		return s.Src < o.Src
	}
	return s.Seq < o.Seq
}

// After reports whether s orders strictly after o.
func (s Stamp) After(o Stamp) bool { return o.Before(s) }

// Equal reports whether the stamps are identical.
func (s Stamp) Equal(o Stamp) bool { return s == o }

// MinStamp returns the smaller of a and b.
func MinStamp(a, b Stamp) Stamp {
	if b.Before(a) {
		return b
	}
	return a
}

func (s Stamp) String() string {
	if s == InfStamp {
		return "∞"
	}
	return fmt.Sprintf("%.6g[%d.%d]", s.T, s.Src, s.Seq)
}

// Min returns the smaller time.
func Min(a, b Time) Time {
	if b < a {
		return b
	}
	return a
}
