package sim

import (
	"errors"
	"runtime"
	"testing"
	"time"
)

// TestCancelUnwindsProcesses cancels a run mid-flight and verifies Run
// returns ErrCancelled with every process coroutine terminated.
func TestCancelUnwindsProcesses(t *testing.T) {
	before := baselineGoroutines()
	env := NewEnv()
	started := make(chan struct{}, 1)
	var after []string
	for i := 0; i < 8; i++ {
		env.Spawn("looper", func(p *Proc) {
			for {
				p.Advance(Microsecond)
				select {
				case started <- struct{}{}:
				default:
				}
			}
		})
	}
	env.Spawn("never-runs-after-cancel", func(p *Proc) {
		p.Advance(Second)
		after = append(after, "ran")
	})
	go func() {
		<-started
		env.Cancel()
	}()
	err := env.Run()
	if !errors.Is(err, ErrCancelled) {
		t.Fatalf("Run returned %v, want ErrCancelled", err)
	}
	if env.Live() != 0 {
		t.Fatalf("%d live processes after cancellation, want 0", env.Live())
	}
	if len(after) != 0 {
		t.Fatalf("process body ran past cancellation: %v", after)
	}
	waitForGoroutines(t, before)
}

// TestCancelBeforeRun verifies a pre-cancelled environment aborts
// immediately, including processes that never started.
func TestCancelBeforeRun(t *testing.T) {
	before := baselineGoroutines()
	env := NewEnv()
	ran := false
	env.Spawn("unstarted", func(p *Proc) { ran = true })
	env.Cancel()
	if err := env.Run(); !errors.Is(err, ErrCancelled) {
		t.Fatalf("Run returned %v, want ErrCancelled", err)
	}
	if ran {
		t.Fatal("process body ran despite pre-run cancellation")
	}
	if env.Live() != 0 {
		t.Fatalf("%d live processes, want 0", env.Live())
	}
	waitForGoroutines(t, before)
}

// TestCancelBlockedOnPrimitives verifies processes parked on kernel
// primitives (queue get, barrier) unwind cleanly too.
func TestCancelBlockedOnPrimitives(t *testing.T) {
	before := baselineGoroutines()
	env := NewEnv()
	q := &Queue{Name: "q"}
	bar := NewBarrier("bar", 3)
	env.Spawn("getter", func(p *Proc) { q.Get(p) })
	env.Spawn("waiter", func(p *Proc) { bar.Wait(p) })
	env.Spawn("ticker", func(p *Proc) {
		for {
			p.Advance(Millisecond)
		}
	})
	go func() {
		time.Sleep(time.Millisecond)
		env.Cancel()
	}()
	if err := env.Run(); !errors.Is(err, ErrCancelled) {
		t.Fatalf("Run returned %v, want ErrCancelled", err)
	}
	if env.Live() != 0 {
		t.Fatalf("%d live processes, want 0", env.Live())
	}
	waitForGoroutines(t, before)
}

// TestCancelAfterCompletionIsNoop cancels after a run drained normally.
func TestCancelAfterCompletionIsNoop(t *testing.T) {
	env := NewEnv()
	env.Spawn("quick", func(p *Proc) { p.Advance(10) })
	if err := env.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	env.Cancel() // must not panic or leak
}

// TestDeadlockDoesNotLeak: a run that ends in a DeadlockError names its
// stuck processes and then unwinds them, as a cancelled run does, instead
// of leaving each parked forever.
func TestDeadlockDoesNotLeak(t *testing.T) {
	before := baselineGoroutines()
	env := NewEnv()
	q := &Queue{Name: "never"}
	bar := NewBarrier("short", 9)
	unwound := 0
	for i := 0; i < 8; i++ {
		i := i
		env.Spawn("stuck", func(p *Proc) {
			defer func() { unwound++ }()
			p.Advance(Microsecond)
			if i%2 == 0 {
				q.Get(p)
			}
			bar.Wait(p)
		})
	}
	err := env.Run()
	var de *DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("Run returned %v, want a DeadlockError", err)
	}
	if len(de.Procs) != 8 || de.Procs[0] != "stuck: blocked (barrier short)" || de.Procs[7] != "stuck: blocked (queue never)" {
		t.Errorf("deadlocked procs = %q, want 4 blocked on the barrier and 4 on the queue", de.Procs)
	}
	if unwound != 8 || env.Live() != 0 {
		t.Errorf("%d of 8 process bodies unwound, %d still live", unwound, env.Live())
	}
	waitForGoroutines(t, before)
}

// baselineGoroutines is the goroutine count a test starts from: idle
// coroutines, which earlier runs left, are stopped first.
func baselineGoroutines() int {
	stopIdle()
	return runtime.NumGoroutine()
}

// TestSpawnWhileUnwinding: a process a body spawns while Run unwinds it is
// unwound too, never started, instead of being left live on a parked
// coroutine.
func TestSpawnWhileUnwinding(t *testing.T) {
	before := baselineGoroutines()
	env := NewEnv()
	ran := false
	env.Spawn("stuck", func(p *Proc) {
		defer p.env.Spawn("late", func(*Proc) { ran = true })
		(&Queue{Name: "never"}).Get(p)
	})
	var de *DeadlockError
	if err := env.Run(); !errors.As(err, &de) {
		t.Fatalf("Run returned %v, want a DeadlockError", err)
	}
	if ran || env.Live() != 0 {
		t.Errorf("late body ran: %v; %d live processes, want 0", ran, env.Live())
	}
	waitForGoroutines(t, before)
}

// waitForGoroutines polls until the goroutine count drops back to (or
// below) the pre-test baseline, failing after a deadline. The coroutines
// the test's runs left idle are stopped first; a body still running after
// Run is not idle and fails the check. Exact counts are racy under
// parallel tests, so allow a small slack.
func waitForGoroutines(t *testing.T, baseline int) {
	t.Helper()
	stopIdle()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline+2 {
			return
		}
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("goroutines leaked: %d now vs %d at start", runtime.NumGoroutine(), baseline)
}
