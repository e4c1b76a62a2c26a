package sim

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
)

// runProbe runs an Env whose "probe" process exercises what a coroutine
// could carry from one body to the next — yields, a block on a queue, a
// panic recovered inside the body, a deferred call — and returns what it
// recorded and the coroutine it ran on.
func runProbe(t *testing.T) ([]string, *coro) {
	t.Helper()
	env := NewEnv()
	q := &Queue{Name: "q"}
	var log []string
	p := env.Spawn("probe", func(p *Proc) {
		defer func() { log = append(log, fmt.Sprintf("deferred at %v", p.Now())) }()
		p.Advance(5)
		func() {
			defer func() { log = append(log, fmt.Sprintf("recovered %v", recover())) }()
			panic("inner")
		}()
		v := q.Get(p)
		log = append(log, fmt.Sprintf("%s %d got %v at %v", p.Name(), p.ID(), v, p.Now()))
	})
	co := p.co
	env.Spawn("feeder", func(p *Proc) {
		p.Advance(7)
		q.Put(p, 42)
	})
	if err := env.Run(); err != nil {
		t.Fatalf("probe run: %v", err)
	}
	if env.Live() != 0 {
		t.Fatalf("probe run left %d live processes", env.Live())
	}
	return log, co
}

// idleHas reports whether c is on the idle list.
func idleHas(c *coro) bool {
	idle.Lock()
	defer idle.Unlock()
	for _, d := range idle.list {
		if d == c {
			return true
		}
	}
	return false
}

// TestRecycledCoroutineIsClean: however a process's body ended, its
// coroutine goes on the idle list and runs the next Env's process exactly
// as a fresh coroutine does.
func TestRecycledCoroutineIsClean(t *testing.T) {
	stopIdle()
	want, _ := runProbe(t)
	for _, c := range []struct {
		name string
		body func(p *Proc)
		run  func(env *Env) error
	}{
		{"returned", func(p *Proc) { p.Advance(1) }, (*Env).Run},
		{"panicked", func(p *Proc) {
			p.Advance(1)
			panic("first body")
		}, func(env *Env) (err error) {
			defer func() {
				if recover() == nil {
					err = errors.New("the body's panic did not reach Run")
				}
			}()
			return env.Run()
		}},
		{"cancelled mid-Advance", func(p *Proc) {
			for i := 0; ; i++ {
				if i == 10 {
					p.env.Cancel()
				}
				p.Advance(Microsecond)
			}
		}, func(env *Env) error {
			if err := env.Run(); !errors.Is(err, ErrCancelled) {
				return fmt.Errorf("Run returned %v, want ErrCancelled", err)
			}
			return nil
		}},
		{"blocked by a deadlock", func(p *Proc) { (&Queue{Name: "never"}).Get(p) }, func(env *Env) error {
			var de *DeadlockError
			if err := env.Run(); !errors.As(err, &de) {
				return fmt.Errorf("Run returned %v, want a DeadlockError", err)
			}
			return nil
		}},
		{"never started", func(p *Proc) { t.Error("a body ran past a cancellation before Run") }, func(env *Env) error {
			env.Cancel()
			if err := env.Run(); !errors.Is(err, ErrCancelled) {
				return fmt.Errorf("Run returned %v, want ErrCancelled", err)
			}
			return nil
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			stopIdle()
			env := NewEnv()
			co := env.Spawn("first", c.body).co
			if err := c.run(env); err != nil {
				t.Fatal(err)
			}
			if env.Live() != 0 || IdleCoroutines() != 1 || !idleHas(co) {
				t.Fatalf("%d live processes, %d idle coroutines, its own listed: %v; want 0, 1, true", env.Live(), IdleCoroutines(), idleHas(co))
			}
			got, reused := runProbe(t)
			if reused != co {
				t.Fatal("the next Spawn did not take the idle coroutine")
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("recycled coroutine ran the probe as %q, a fresh one as %q", got, want)
			}
			if !idleHas(co) {
				t.Error("the coroutine is not listed again after its second body")
			}
		})
	}
}

// TestGoexitPropagatesAndIsNotListed: a body that calls runtime.Goexit
// ends the goroutine that called Run, as it would without the idle list,
// and its dead coroutine never goes on the list; the process Run unwinds
// on the way out does.
func TestGoexitPropagatesAndIsNotListed(t *testing.T) {
	before := baselineGoroutines()
	env := NewEnv()
	quitter := env.Spawn("quitter", func(p *Proc) {
		p.Advance(1)
		runtime.Goexit()
	})
	bystander := env.Spawn("bystander", func(p *Proc) { p.Advance(Second) })
	quit, other := quitter.co, bystander.co
	returned, done := false, make(chan struct{})
	go func() {
		defer close(done)
		env.Run()
		returned = true
	}()
	<-done
	if returned {
		t.Fatal("Run returned: the body's Goexit did not propagate")
	}
	if env.Live() != 0 {
		t.Errorf("%d live processes, want 0", env.Live())
	}
	if idleHas(quit) || !idleHas(other) {
		t.Errorf("the Goexit's coroutine listed: %v, the unwound one's: %v; want false, true", idleHas(quit), idleHas(other))
	}
	waitForGoroutines(t, before)
}

// TestConcurrentEnvsShareIdleList: Envs run on two goroutines at once take
// from and return to the one list, and make no more coroutines than they
// ever run at once. Run with -race.
func TestConcurrentEnvsShareIdleList(t *testing.T) {
	const goroutines, envs, procs = 2, 20, 8
	stopIdle()
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < envs; i++ {
				env := NewEnv()
				sum := Time(0)
				for j := 0; j < procs; j++ {
					j := j
					env.Spawn("p", func(p *Proc) {
						p.Advance(Time(j + 1))
						sum += p.Now()
					})
				}
				if err := env.Run(); err != nil || sum != procs*(procs+1)/2 {
					t.Errorf("run %d: err %v, sum of wake times %v", i, err, sum)
				}
			}
		}()
	}
	wg.Wait()
	if n := IdleCoroutines(); n < procs || n > goroutines*procs {
		t.Errorf("%d idle coroutines after %d runs of %d processes on %d goroutines, want %d to %d",
			n, goroutines*envs, procs, goroutines, procs, goroutines*procs)
	}
}

// TestFinishedEnvCollectable: an idle coroutine holds no Env, so a
// finished Env is collected while the coroutines its processes ran on sit
// on the list. The finalizer is on a value the bodies hold, not on the Env:
// the Env and its processes point at each other, and a finalizer on a
// cycle never runs.
func TestFinishedEnvCollectable(t *testing.T) {
	stopIdle()
	collected := make(chan struct{})
	func() {
		type held struct{ _ [64]byte }
		h := new(held)
		runtime.SetFinalizer(h, func(*held) { close(collected) })
		env := NewEnv()
		q := &Queue{Name: "never"}
		env.Spawn("done", func(p *Proc) {
			p.Advance(1)
			_ = h
		})
		env.Spawn("stuck", func(p *Proc) {
			q.Get(p)
			_ = h
		})
		env.Spawn("panics", func(p *Proc) {
			defer func() { recover() }()
			panic(h)
		})
		var de *DeadlockError
		if err := env.Run(); !errors.As(err, &de) {
			t.Fatalf("Run returned %v, want a DeadlockError", err)
		}
	}()
	if n := IdleCoroutines(); n != 3 {
		t.Fatalf("%d idle coroutines, want 3", n)
	}
	deadline := time.After(2 * time.Second)
	for {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-deadline:
			t.Fatal("the finished Env was not collected: an idle coroutine still reaches it")
		case <-time.After(time.Millisecond):
		}
	}
}
