package sim

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// TestPermIsAPermutation: at every instant perm maps the filer ids one to
// one, so filings by two filers at one instant never share a Tie.
func TestPermIsAPermutation(t *testing.T) {
	for _, at := range []Time{0, 1, 10, 120, 1 << 20, 45_109_394, math.MaxInt64} {
		seen := make([]bool, maxFilers)
		for id := uint32(0); id < maxFilers; id++ {
			x := perm(id, at)
			if x >= maxFilers || seen[x] {
				t.Fatalf("t=%d: perm(%d) = %d, taken or out of range", at, id, x)
			}
			seen[x] = true
		}
	}
}

// TestTiesAreFair: n processes sleep the same delay over and over, so at
// every instant they wake at their filings tie in all but the filer. Over
// many instants each is first about 1/n of the time: no id always wins a
// tie for a lock or an inbox.
func TestTiesAreFair(t *testing.T) {
	const rounds = 6000
	for _, n := range []int{2, 3, 8, 60} {
		env := NewEnv()
		first := make([]int, n)
		var last Time = -1
		for i := 0; i < n; i++ {
			env.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
				for range rounds {
					p.Advance(10)
					if p.Now() != last {
						last = p.Now()
						first[i]++
					}
				}
			})
		}
		if err := env.Run(); err != nil {
			t.Fatal(err)
		}
		want := rounds / n
		for i, c := range first {
			if c < want/2 || c > want*3/2 {
				t.Errorf("%d tied processes: p%d was first %d times of %d, want about %d", n, i, c, rounds, want)
			}
		}
	}
}

// mustPanic runs f and reports whether it panicked with a message
// containing what.
func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		t.Helper()
		r := recover()
		if r == nil || !strings.Contains(fmt.Sprint(r), what) {
			t.Errorf("got panic %v, want one saying %q", r, what)
		}
	}()
	f()
}

// TestKeyOverflowPanics: a filer id, a filer's count of filings at one
// instant or the count of zero-delay filings at one instant that its
// field of the key cannot hold panics; nothing is reordered silently.
func TestKeyOverflowPanics(t *testing.T) {
	env := NewEnv()
	env.procs = make([]*Proc, schedID) // as if that many were spawned
	mustPanic(t, "more than 65535 processes", func() { env.Spawn("one too many", func(*Proc) {}) })

	env = NewEnv()
	filed := 0
	env.Spawn("sender", func(p *Proc) {
		for {
			env.After(1, func() {})
			filed++
		}
	})
	mustPanic(t, `process "sender" filed more than 65536 events at t=0ns`, func() { env.Run() })
	if filed != maxCount+1 {
		t.Errorf("%d filings at one instant before the panic, want %d", filed, maxCount+1)
	}

	env = NewEnv()
	env.zeros = math.MaxUint32
	mustPanic(t, "zero-delay filings at t=0ns", func() { env.Spawn("late", func(*Proc) {}) })
}
