// Package event defines the Time Warp event message: timestamps,
// anti-message matching identity, and the white/red coloring that Mattern's
// GVT algorithm (and CA-GVT) stamp onto messages in flight.
package event

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/vtime"
)

// LPID identifies a logical process globally.
type LPID uint32

// Color is the Mattern phase color carried by every message — generalized
// from the paper's two colors to the sender's GVT-epoch number mod 4. GVT
// round R drains (counts) the messages of epoch R-1; messages sent during
// the round belong to the new epoch and feed min_red. The generalization
// matters because round completion is staggered across nodes, so messages
// of three consecutive epochs can coexist; mod-4 keeps them distinct.
type Color uint8

const (
	// White is the initial epoch's color (paper terminology).
	White Color = iota
	// Red is the first round's in-progress color (paper terminology).
	Red
)

func (c Color) String() string {
	switch c {
	case White:
		return "white"
	case Red:
		return "red"
	default:
		return fmt.Sprintf("epoch%%4=%d", uint8(c))
	}
}

// Class describes a message's destination locality, which determines its
// transmission cost (paper §2: local, regional, remote).
type Class uint8

const (
	// Local messages are sent by an LP to itself: no interconnect crossing.
	Local Class = iota
	// Regional messages target a core in the same node: shared memory + lock.
	Regional
	// Remote messages cross the network to another node via MPI.
	Remote
)

func (c Class) String() string {
	switch c {
	case Local:
		return "local"
	case Regional:
		return "regional"
	default:
		return "remote"
	}
}

// Event is a time-stamped event message. The same structure represents
// positive messages and their anti-messages (Anti set, identical MatchID).
type Event struct {
	Stamp    vtime.Stamp // receive time + deterministic tie-break
	SendTime vtime.Time  // sender's LVT when the event was sent
	Src, Dst LPID
	MatchID  uint64 // engine-unique identity for anti-message annihilation
	AckID    uint64 // transport identity for Samadi acknowledgements (0 = none)
	Anti     bool
	Color    Color
	Kind     uint16 // model-defined discriminator
	Data     []byte // model payload (nil for PHOLD)

	freed bool // set while the event sits on a Pool free list
}

// Freed reports whether the event is currently on a pool free list. Any
// code holding a pointer for which this returns true has a use-after-
// recycle bug; the engine asserts this on every touch in PoolDebug mode.
func (e *Event) Freed() bool { return e.freed }

// Matches reports whether a and b are a positive/anti pair (or duplicates).
func (e *Event) Matches(o *Event) bool {
	return e.MatchID == o.MatchID && e.Src == o.Src
}

// AntiCopy returns the anti-message cancelling e.
func (e *Event) AntiCopy() *Event {
	a := *e
	a.Anti = true
	a.Data = nil
	return &a
}

// AntiCopyInto fills a (typically pool-recycled) with the anti-message
// cancelling e and returns it. Equivalent to AntiCopy without the heap
// allocation.
func (e *Event) AntiCopyInto(a *Event) *Event {
	*a = *e
	a.Anti = true
	a.Data = nil
	a.freed = false
	return a
}

func (e *Event) String() string {
	sign := "+"
	if e.Anti {
		sign = "-"
	}
	return fmt.Sprintf("%sev{%v %d->%d send=%.6g id=%d %v}",
		sign, e.Stamp, e.Src, e.Dst, e.SendTime, e.MatchID, e.Color)
}

// wireHeader is the fixed-size portion of the wire encoding.
const wireHeader = 8 + 4 + 8 + 8 + 4 + 4 + 8 + 8 + 1 + 1 + 2 + 4

// WireSize returns the encoded size in bytes, used by the network fabric to
// charge serialization and bandwidth costs.
func (e *Event) WireSize() int { return wireHeader + len(e.Data) }

// Encode appends the wire encoding of e to buf and returns the result.
// The engine moves events between simulated nodes by pointer (it is one
// process), but the codec exists so the fabric can charge realistic sizes
// and so traces can be written; it is exercised and round-trip tested.
func (e *Event) Encode(buf []byte) []byte {
	var tmp [wireHeader]byte
	b := tmp[:]
	binary.LittleEndian.PutUint64(b[0:], uint64(floatBits(e.Stamp.T)))
	binary.LittleEndian.PutUint32(b[8:], e.Stamp.Src)
	binary.LittleEndian.PutUint64(b[12:], e.Stamp.Seq)
	binary.LittleEndian.PutUint64(b[20:], uint64(floatBits(e.SendTime)))
	binary.LittleEndian.PutUint32(b[28:], uint32(e.Src))
	binary.LittleEndian.PutUint32(b[32:], uint32(e.Dst))
	binary.LittleEndian.PutUint64(b[36:], e.MatchID)
	binary.LittleEndian.PutUint64(b[44:], e.AckID)
	if e.Anti {
		b[52] = 1
	} else {
		b[52] = 0
	}
	b[53] = byte(e.Color)
	binary.LittleEndian.PutUint16(b[54:], e.Kind)
	binary.LittleEndian.PutUint32(b[56:], uint32(len(e.Data)))
	buf = append(buf, b...)
	return append(buf, e.Data...)
}

// Decode parses one event from buf, returning the event and the remaining
// bytes.
func Decode(buf []byte) (*Event, []byte, error) {
	if len(buf) < wireHeader {
		return nil, buf, fmt.Errorf("event: short buffer (%d bytes)", len(buf))
	}
	e := &Event{}
	e.Stamp.T = bitsFloat(binary.LittleEndian.Uint64(buf[0:]))
	e.Stamp.Src = binary.LittleEndian.Uint32(buf[8:])
	e.Stamp.Seq = binary.LittleEndian.Uint64(buf[12:])
	e.SendTime = bitsFloat(binary.LittleEndian.Uint64(buf[20:]))
	e.Src = LPID(binary.LittleEndian.Uint32(buf[28:]))
	e.Dst = LPID(binary.LittleEndian.Uint32(buf[32:]))
	e.MatchID = binary.LittleEndian.Uint64(buf[36:])
	e.AckID = binary.LittleEndian.Uint64(buf[44:])
	e.Anti = buf[52] != 0
	e.Color = Color(buf[53])
	e.Kind = binary.LittleEndian.Uint16(buf[54:])
	n := int(binary.LittleEndian.Uint32(buf[56:]))
	rest := buf[wireHeader:]
	if len(rest) < n {
		return nil, buf, fmt.Errorf("event: payload truncated (want %d, have %d)", n, len(rest))
	}
	if n > 0 {
		e.Data = append([]byte(nil), rest[:n]...)
	}
	return e, rest[n:], nil
}

func floatBits(f float64) uint64 { return math.Float64bits(f) }

func bitsFloat(b uint64) float64 { return math.Float64frombits(b) }
