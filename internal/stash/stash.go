// Package stash keeps what a run's build made for the next build of its
// kind, as ROSS allocates a PE's memory once: a process that runs engine
// after engine (the job service, the harness's pool, a fuzz run) makes its
// arrays once. Each package declares its part of a build as one struct of
// Arrays and slices, takes one from its Keep when it builds and puts it
// back once the run has returned nil.
package stash

import (
	"sync"
	"unsafe"
)

// MaxBytes bounds what one Keep holds. The host benchmark's largest shape
// (tw-comp) leaves about 2 MB in the Time Warp engine's Keep, the job
// service's default spec 0.3 MB; a paper-width build (8 × 60 × 128: a
// Time Warp LP record array alone is 8.4 MB) is not kept.
const MaxBytes = 4 << 20

// Arrays carves a build's arrays of T end to end from one array it keeps
// from run to run. A build that carves past it gets new arrays, and Reset
// grows the kept one to all it carved and half again: a like build with
// another seed may carve a third more. A nil Arrays makes every array.
type Arrays[T any] struct {
	buf  []T
	used int // values Make has handed out since Reset
}

// Make returns n zero values of T, capped at n.
func (a *Arrays[T]) Make(n int) []T {
	if a == nil {
		return make([]T, n)
	}
	if a.used += n; a.used > cap(a.buf) {
		return make([]T, n)
	}
	return a.buf[a.used-n : a.used : a.used]
}

// Reset zeroes what Make handed out, all of which must be dead, and returns
// the bytes the kept array holds.
func (a *Arrays[T]) Reset() int {
	if a.used > cap(a.buf) {
		a.buf = make([]T, 0, a.used+a.used/2)
	}
	a.used = 0
	return Empty(&a.buf)
}

// Empty clears *s through its capacity, leaves it empty for the next run
// to grow from, and returns the bytes its array holds.
func Empty[S ~[]E, E any](s *S) int {
	*s = (*s)[:0]
	clear((*s)[:cap(*s)])
	return cap(*s) * int(unsafe.Sizeof(*new(E)))
}

// A Keep is the process-wide stash of one package's build structs: a list
// under a mutex, not a sync.Pool, which two collections empty.
type Keep[M any, P interface {
	*M
	Reset() int // clears every array and returns the bytes they hold
}] struct {
	mu    sync.Mutex
	kept  []P
	sizes []int
	bytes int
}

// all is every Keep, in the order NewKeep made them.
var all []interface{ Held(drop bool) int }

// NewKeep returns an empty Keep for a package-level variable.
func NewKeep[M any, P interface {
	*M
	Reset() int
}]() *Keep[M, P] {
	k := new(Keep[M, P])
	all = append(all, k)
	return k
}

// Take returns the struct a run handed back last, or a new one.
func (k *Keep[M, P]) Take() P {
	k.mu.Lock()
	defer k.mu.Unlock()
	n := len(k.kept)
	if n == 0 {
		return new(M)
	}
	m := k.kept[n-1]
	k.kept[n-1], k.kept, k.sizes, k.bytes = nil, k.kept[:n-1], k.sizes[:n-1], k.bytes-k.sizes[n-1]
	return m
}

// Put clears m and keeps it, if the Keep then holds at most MaxBytes.
func (k *Keep[M, P]) Put(m P) {
	b := m.Reset()
	k.mu.Lock()
	defer k.mu.Unlock()
	if k.bytes+b <= MaxBytes {
		k.kept, k.sizes, k.bytes = append(k.kept, m), append(k.sizes, b), k.bytes+b
	}
}

// Held returns the bytes of arrays k holds, emptying it first if drop is
// set, so that the next build makes every array, as a process's first.
func (k *Keep[M, P]) Held(drop bool) int {
	k.mu.Lock()
	defer k.mu.Unlock()
	if drop {
		k.kept, k.sizes, k.bytes = nil, nil, 0
	}
	return k.bytes
}

// Held returns Held(drop) of every Keep.
func Held(drop bool) []int {
	out := make([]int, len(all))
	for i, k := range all {
		out[i] = k.Held(drop)
	}
	return out
}
