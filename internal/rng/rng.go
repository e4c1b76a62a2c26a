// Package rng provides the deterministic pseudo-random number generation
// used by models and workload generators: xoshiro256** streams seeded via
// splitmix64, with long-jump support for carving independent per-LP
// streams from one master seed.
//
// Stream state is tiny (4 words) and exposed via Save/Restore so the Time
// Warp engine can checkpoint it with LP state: a rolled-back LP replays
// with exactly the random draws it used the first time.
package rng

import (
	"math"
	"math/bits"
)

// Stream is a xoshiro256** generator. The zero value is invalid until
// Restore gives it a saved state; use New, NewAt or a Sequence.
type Stream struct {
	s [4]uint64
}

// State is a snapshot of a Stream, suitable for rollback restore.
type State [4]uint64

// splitmix64 expands a seed into well-distributed state words.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a stream seeded from seed.
func New(seed uint64) *Stream {
	st := new(Stream)
	st.seed(seed)
	return st
}

func (st *Stream) seed(seed uint64) {
	x := seed
	for i := range st.s {
		st.s[i] = splitmix64(&x)
	}
	// xoshiro must not start at the all-zero state.
	if st.s[0]|st.s[1]|st.s[2]|st.s[3] == 0 {
		st.s[0] = 0x9e3779b97f4a7c15
	}
}

// NewAt returns the n-th independent substream of seed: a stream seeded
// from seed and long-jumped n times (each long jump skips 2^192 draws).
// For constructing many consecutive substreams, use Sequence — NewAt is
// O(n) per call.
func NewAt(seed uint64, n int) *Stream {
	s := New(seed)
	for i := 0; i < n; i++ {
		s.LongJump()
	}
	return s
}

// Sequence hands out the substreams of a seed in order: the i-th call to
// Next returns a stream identical to NewAt(seed, i), in O(1) jumps per
// stream instead of O(i).
type Sequence struct {
	cur Stream
}

// NewSequence starts the substream sequence of seed.
func NewSequence(seed uint64) *Sequence {
	q := new(Sequence)
	q.cur.seed(seed)
	return q
}

// Next returns the next substream, by value: the caller keeps it where it
// keeps the rest of its state (an engine's LP record), so a stream costs
// no allocation of its own.
func (q *Sequence) Next() Stream {
	out := q.cur
	q.cur.LongJump()
	return out
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits.
func (st *Stream) Uint64() uint64 {
	s := &st.s
	result := rotl(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

// Float64 returns a uniform draw in [0, 1).
func (st *Stream) Float64() float64 {
	return float64(st.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform draw in [0, n). It panics if n <= 0.
func (st *Stream) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with n <= 0")
	}
	// Lemire's nearly-divisionless bounded draw, with rejection to remove
	// modulo bias entirely.
	un := uint64(n)
	for {
		v := st.Uint64()
		hi, lo := bits.Mul64(v, un)
		if lo >= un || lo >= (-un)%un {
			return int(hi)
		}
	}
}

// Exp returns an exponential draw with the given mean.
func (st *Stream) Exp(mean float64) float64 {
	// 1 - Float64() is in (0, 1], so Log never sees zero.
	return -mean * math.Log(1.0-st.Float64())
}

// Save snapshots the stream state.
func (st *Stream) Save() State { return State(st.s) }

// Restore rewinds the stream to a saved state.
func (st *Stream) Restore(s State) { st.s = [4]uint64(s) }

// LongJump advances the stream by 2^192 draws; 2^64 non-overlapping
// substreams are available from one seed.
func (st *Stream) LongJump() {
	jump := [4]uint64{0x76e15d3efefdcbbf, 0xc5004e441c522fb3, 0x77710069854ee241, 0x39109bb02acbe635}
	var s0, s1, s2, s3 uint64
	for _, j := range jump {
		for b := uint(0); b < 64; b++ {
			if j&(1<<b) != 0 {
				s0 ^= st.s[0]
				s1 ^= st.s[1]
				s2 ^= st.s[2]
				s3 ^= st.s[3]
			}
			st.Uint64()
		}
	}
	st.s = [4]uint64{s0, s1, s2, s3}
}
