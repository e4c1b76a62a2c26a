package sim

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// pollTimes returns a step that lets each of ds pass in turn and then
// ends the Poll, logging when it is called.
func pollTimes(env *Env, calls *[]Time, ds ...Time) func() Time {
	return func() Time {
		*calls = append(*calls, env.Now())
		if len(ds) == 0 {
			return -1
		}
		d := ds[0]
		ds = ds[1:]
		return d
	}
}

// TestPollIsTheAdvanceLoop: Poll returns when its step says so, having let
// each returned duration pass, and Run took every step but the first
// without switching into the process.
func TestPollIsTheAdvanceLoop(t *testing.T) {
	env := NewEnv()
	var calls []Time
	var back Time
	env.Spawn("poller", func(p *Proc) {
		p.Poll(pollTimes(env, &calls, 5, 0, 7))
		back = p.Now()
		p.Poll(func() Time { return -1 }) // ends at once: no event, no yield
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(calls); got != "[0ns 5ns 5ns 12ns]" || back != 12 {
		t.Errorf("steps ran at %v and Poll returned at %v, want [0ns 5ns 5ns 12ns] and 12ns", got, back)
	}
	// Spawn, then three wake-ups: two stepped in the kernel, the last one
	// stepped and switched in.
	if c := env.Counters(); c != (Counters{Dispatches: 4, ProcSwitches: 2, Steps: 2}) {
		t.Errorf("counters %+v, want 4 dispatches = 2 switches + 2 steps", c)
	}
}

// TestPollStepMustNotBlock: every primitive that would park the process
// panics when a step reaches it, in the kernel's context as in the
// process's own, naming the process and the primitive.
func TestPollStepMustNotBlock(t *testing.T) {
	var held *Mutex
	for _, c := range []struct {
		primitive string
		reach     func(p *Proc)
	}{
		{"Advance", func(p *Proc) { p.Advance(1) }},
		{"Advance", func(p *Proc) { (&Mutex{Name: "costly", HoldCost: 3}).Lock(p) }},
		{"mutex held", func(p *Proc) { held.Lock(p) }},
		{"barrier pair", func(p *Proc) { NewBarrier("pair", 2).Wait(p) }},
		{"queue empty", func(p *Proc) { (&Queue{Name: "empty"}).Get(p) }},
		{"cond never", func(p *Proc) { (&Cond{Name: "never"}).Wait(p) }},
		{"Poll", func(p *Proc) { p.Poll(func() Time { return -1 }) }},
	} {
		for _, inKernel := range []bool{false, true} {
			env := NewEnv()
			held = &Mutex{Name: "held"}
			env.Spawn("holder", func(p *Proc) {
				held.Lock(p)
				p.Advance(100)
				held.Unlock(p)
			})
			env.Spawn("stepper", func(p *Proc) {
				first := true
				p.Poll(func() Time {
					if inKernel && first {
						first = false
						return 1
					}
					c.reach(p)
					return -1
				})
			})
			msg := runPanic(env)
			want := fmt.Sprintf(`sim: process "stepper" panicked: sim: process "stepper" reached %s inside a Poll step`, c.primitive)
			if !strings.HasPrefix(msg, want) {
				t.Errorf("%s, in kernel %v: Run panicked with %q, want prefix %q", c.primitive, inKernel, msg, want)
			}
			if env.Live() != 0 {
				t.Errorf("%s, in kernel %v: %d live processes after the panic", c.primitive, inKernel, env.Live())
			}
		}
	}
}

// runPanic runs env and returns what Run panicked with ("" if it did not).
func runPanic(env *Env) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	_ = env.Run()
	return ""
}

// TestPollStepPanicPropagatesToRun: a step Run takes in the process's
// stead panics on Run's stack; it still surfaces as that process's panic,
// with every process unwound.
func TestPollStepPanicPropagatesToRun(t *testing.T) {
	before := runtime.NumGoroutine()
	env := NewEnv()
	env.Spawn("bomb", func(p *Proc) {
		steps := 0
		p.Poll(func() Time {
			if steps++; steps == 3 {
				panic("boom")
			}
			return 5
		})
	})
	env.Spawn("bystander", func(p *Proc) { p.Poll(func() Time { return 4 }) })
	if msg := runPanic(env); msg != `sim: process "bomb" panicked: boom` {
		t.Errorf("Run panicked with %q", msg)
	}
	if env.Now() != 10 || env.Live() != 0 {
		t.Errorf("panic at t=%v with %d live processes, want t=10 and none", env.Now(), env.Live())
	}
	waitForGoroutines(t, before)
}

// TestCancelWhileAllInPoll: with every process inside Poll, Run switches
// into none of them and still observes Cancel and unwinds them all.
func TestCancelWhileAllInPoll(t *testing.T) {
	before := runtime.NumGoroutine()
	env := NewEnv()
	unwound := 0
	for i := 0; i < 8; i++ {
		env.Spawn("poller", func(p *Proc) {
			defer func() { unwound++ }()
			steps := 0
			p.Poll(func() Time {
				if steps++; steps == 1000 {
					env.Cancel()
				}
				return Microsecond
			})
			t.Error("Poll returned")
		})
	}
	if err := env.Run(); !errors.Is(err, ErrCancelled) {
		t.Fatalf("Run returned %v, want ErrCancelled", err)
	}
	if unwound != 8 || env.Live() != 0 {
		t.Errorf("%d of 8 process bodies unwound, %d still live", unwound, env.Live())
	}
	if c := env.Counters(); c.ProcSwitches != 8 || c.Steps != c.Dispatches-8 {
		t.Errorf("counters %+v: want the 8 spawn switches and steps for the rest", c)
	}
	waitForGoroutines(t, before)
}

// TestLivelockDetectionInPoll: a step that lets no time pass, forever, is
// the same virtual livelock as the Advance(0) loop it stands for.
func TestLivelockDetectionInPoll(t *testing.T) {
	env := NewEnv()
	env.LivelockLimit = 1000
	env.Spawn("spinner", func(p *Proc) { p.Poll(func() Time { return 0 }) })
	msg := runPanic(env)
	if !strings.Contains(msg, "virtual livelock") || !strings.Contains(msg, `"spinner"`) {
		t.Errorf("Run panicked with %q, want a virtual livelock naming the spinner", msg)
	}
}
