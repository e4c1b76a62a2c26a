package sim

import (
	"fmt"
	"testing"
)

// Microbenchmarks of the kernel's hot operations, one op per b.N. `make
// microbench` and CI run them; TestKernelHotPathAllocs is the gate on
// their allocation counts.

// benchRun spawns procs processes running body and runs them to
// completion on the benchmark's clock.
func benchRun(b *testing.B, procs int, body func(p *Proc, id int)) {
	b.ReportAllocs()
	env := NewEnv()
	for i := 0; i < procs; i++ {
		i := i
		env.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) { body(p, i) })
	}
	b.ResetTimer()
	if err := env.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkAdvance: one process alone, whose wake-up is always the heap
// minimum, and twenty interleaving as a cluster of workers does.
func BenchmarkAdvance(b *testing.B) {
	for _, procs := range []int{1, 20} {
		b.Run(fmt.Sprintf("procs=%d", procs), func(b *testing.B) {
			benchRun(b, procs, func(p *Proc, id int) {
				for i := id; i < b.N; i += procs {
					p.Advance(Time(100 + 7*id))
				}
			})
		})
	}
}

// BenchmarkPoll: BenchmarkAdvance's sleeps taken as Poll steps, which is
// what an idle worker's polls cost once no process is switched into.
func BenchmarkPoll(b *testing.B) {
	for _, procs := range []int{1, 20} {
		b.Run(fmt.Sprintf("procs=%d", procs), func(b *testing.B) {
			benchRun(b, procs, func(p *Proc, id int) {
				i := id
				p.Poll(func() Time {
					if i >= b.N {
						return -1
					}
					i += procs
					return Time(100 + 7*id)
				})
			})
		})
	}
}

// BenchmarkPollRing: BenchmarkPoll with the delays an idle thread's steps
// really return — every process cycles the same three constants (a lock
// hold, an MPI poll, IdlePoll), so a wake-up's delay says which FIFO lane
// it belongs in — at the default cluster's process count and at the
// paper-scale one (8 nodes × 61 threads). One op is one step.
func BenchmarkPollRing(b *testing.B) {
	delays := [...]Time{120, 500, 150}
	for _, procs := range []int{20, 488} {
		b.Run(fmt.Sprintf("procs=%d", procs), func(b *testing.B) {
			benchRun(b, procs, func(p *Proc, id int) {
				i := id
				p.Poll(func() Time {
					if i >= b.N {
						return -1
					}
					i += procs
					return delays[(i/procs+id)%len(delays)]
				})
			})
		})
	}
}

func BenchmarkMutexUncontended(b *testing.B) {
	m := &Mutex{Name: "m"}
	benchRun(b, 1, func(p *Proc, _ int) {
		for i := 0; i < b.N; i++ {
			m.Lock(p)
			m.Unlock(p)
		}
	})
}

// BenchmarkMutexContended: four processes hold the lock across a yield,
// so every Lock but the first queues and every Unlock hands over.
func BenchmarkMutexContended(b *testing.B) {
	m := &Mutex{Name: "m"}
	benchRun(b, 4, func(p *Proc, id int) {
		for i := id; i < b.N; i += 4 {
			m.Lock(p)
			p.Advance(100)
			m.Unlock(p)
		}
	})
}

// BenchmarkBarrier: four processes meet once per op.
func BenchmarkBarrier(b *testing.B) {
	bar := NewBarrier("b", 4)
	benchRun(b, 4, func(p *Proc, id int) {
		for i := 0; i < b.N; i++ {
			p.Advance(Time(50 + id))
			bar.Wait(p)
		}
	})
}

// TestKernelHotPathAllocs: in steady state the operations the engines
// make millions of times per run allocate nothing — not in the caller,
// not in the kernel's dispatch, not in the processes it switches through
// on the way. Each case measures from inside one process while its peers
// keep running the same loop.
func TestKernelHotPathAllocs(t *testing.T) {
	const runs = 200
	measure := func(name string, procs int, op func(p *Proc, id int)) {
		env := NewEnv()
		env.Spawn("measurer", func(p *Proc) {
			if avg := testing.AllocsPerRun(runs, func() { op(p, 0) }); avg != 0 {
				t.Errorf("%s: %v allocations per operation, want 0", name, avg)
			}
		})
		for i := 1; i < procs; i++ {
			i := i
			env.Spawn(fmt.Sprintf("peer%d", i), func(p *Proc) {
				// As many ops as AllocsPerRun makes, warm-up included:
				// the barrier's peers must leave in step with the measurer.
				for n := 0; n < runs+1; n++ {
					op(p, i)
				}
			})
		}
		if err := env.Run(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}

	measure("Advance", 20, func(p *Proc, id int) { p.Advance(Time(100 + 7*id)) })

	// Poll: each operation is one whole Poll of four steps built once, as a
	// worker builds its idle step, three of them taken by Run.
	steps := make([]func() Time, 20)
	for id := range steps {
		id, n := id, 0
		steps[id] = func() Time {
			if n++; n%4 == 0 {
				return -1
			}
			return Time(100 + 7*id)
		}
	}
	measure("Poll", 20, func(p *Proc, id int) { p.Poll(steps[id]) })

	// After: the callback slab reuses the slot each callback vacates.
	noop := func() {}
	measure("After", 4, func(p *Proc, id int) {
		p.Env().After(Time(10+id), noop)
		p.Advance(Time(50 + 7*id))
	})

	var free Mutex
	measure("Mutex uncontended", 1, func(p *Proc, _ int) {
		free.Lock(p)
		free.Unlock(p)
	})

	held := Mutex{Name: "held", HoldCost: 3}
	measure("Mutex contended", 4, func(p *Proc, _ int) {
		held.Lock(p)
		p.Advance(100)
		held.Unlock(p)
	})
	if held.Contended == 0 {
		t.Error("Mutex contended: no Lock ever queued")
	}

	bar := NewBarrier("bar", 4)
	measure("Barrier", 4, func(p *Proc, id int) {
		p.Advance(Time(50 + id))
		bar.Wait(p)
	})
}
