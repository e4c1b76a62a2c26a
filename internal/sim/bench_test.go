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
				p.Poll(stepFunc(func() Time {
					if i >= b.N {
						return -1
					}
					i += procs
					return Time(100 + 7*id)
				}))
			})
		})
	}
}

// BenchmarkPollRing: BenchmarkPoll with the delays an idle thread's steps
// really return — every process cycles the same three constants (a lock
// hold, an MPI poll, IdlePoll) — at the default cluster's process count
// and at the paper-scale one (8 nodes × 61 threads). One op is one step.
func BenchmarkPollRing(b *testing.B) {
	delays := [...]Time{120, 500, 150}
	for _, procs := range []int{20, 488} {
		b.Run(fmt.Sprintf("procs=%d", procs), func(b *testing.B) {
			benchRun(b, procs, func(p *Proc, id int) {
				i := id
				p.Poll(stepFunc(func() Time {
					if i >= b.N {
						return -1
					}
					i += procs
					return delays[(i/procs+id)%len(delays)]
				}))
			})
		})
	}
}

// BenchmarkAdvanceEach: a run of three charges among twenty processes,
// as one AdvanceEach and as the three Advances it stands for. One op is
// one run of charges.
func BenchmarkAdvanceEach(b *testing.B) {
	for _, form := range []string{"each", "loop"} {
		b.Run(form, func(b *testing.B) {
			const procs = 20
			benchRun(b, procs, func(p *Proc, id int) {
				d := Time(100 + 7*id)
				for i := id; i < b.N; i += procs {
					if form == "each" {
						p.AdvanceEach(d, 2*d, 3*d)
					} else {
						p.Advance(d)
						p.Advance(2 * d)
						p.Advance(3 * d)
					}
				}
			})
		})
	}
}

// BenchmarkParkedDispatch: what parking costs a dispatch that runs. Twenty
// and a hundred sleepers (park_test.go), half of them on a worker's idle
// cycle and half on an MPI thread's, park beside one busy process whose
// sleeps fall on their instants and which takes a sleeper's lock every
// 64th step, waking it. One op is one of the busy process's steps;
// ns/dispatch is the time per dispatch that was not skipped.
func BenchmarkParkedDispatch(b *testing.B) {
	cycles := [][]Time{{120, 150}, {120, 300, 500, 150}}
	for _, n := range []int{20, 100} {
		b.Run(fmt.Sprintf("parked=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			env := NewEnv()
			bumps, active := 0, 1
			sleepers := make([]*sleeper, n)
			for i := range sleepers {
				s := &sleeper{name: fmt.Sprintf("s%d", i), park: true, cycle: cycles[i%2], bumps: &bumps, active: &active}
				s.mu = &Mutex{Name: s.name, HoldCost: s.cycle[0]}
				s.rec = Parked{Cycle: s.cycle, Locks: []*Mutex{s.mu}, Owner: s}
				sleepers[i] = s
				env.Spawn(s.name, func(p *Proc) {
					s.p = p
					for {
						s.idle(p, idlePark)
						if active == 0 {
							return
						}
						s.at, s.handled = 0, bumps
						p.Advance(s.cycle[0])
					}
				})
			}
			env.Spawn("busy", func(p *Proc) {
				for i := 0; i < b.N; i++ {
					if i%64 == 63 {
						s := sleepers[i/64%n]
						s.mu.Lock(p)
						p.Advance(30)
						s.mu.Unlock(p)
						continue
					}
					p.Advance(Time(30 + 10*(i%4)))
				}
				for _, s := range sleepers {
					s.rec.Wake()
				}
				active = 0 // read by the sleepers' predicate: after the wake
			})
			b.ResetTimer()
			if err := env.Run(); err != nil {
				b.Fatal(err)
			}
			c := env.Counters()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(c.Dispatches-c.Skipped), "ns/dispatch")
		})
	}
}

// BenchmarkSpawn: an Env of the cons-nullmsg shape's 21 threads, each
// spawned, switched into once and run to its end. One op is one Env; in a
// warm process its allocs/op are the Env's and its record chunks', no
// coroutine's.
func BenchmarkSpawn(b *testing.B) {
	b.ReportAllocs()
	body := func(p *Proc) { p.Advance(Time(100 + p.ID())) }
	for i := 0; i < b.N; i++ {
		env := NewEnv()
		for j := 0; j < 21; j++ {
			env.Spawn("thread", body)
		}
		if err := env.Run(); err != nil {
			b.Fatal(err)
		}
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
// keep running the same loop. A spawn is the exception: its record comes
// from a chunk, and a chunk is allocated once per doubling.
func TestKernelHotPathAllocs(t *testing.T) {
	const runs = 200
	measureUpTo := func(name string, bound float64, procs int, op func(p *Proc, id int)) {
		env := NewEnv()
		env.Spawn("measurer", func(p *Proc) {
			if avg := testing.AllocsPerRun(runs, func() { op(p, 0) }); avg > bound {
				t.Errorf("%s: %v allocations per operation, want at most %v", name, avg, bound)
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
	measure := func(name string, procs int, op func(p *Proc, id int)) { measureUpTo(name, 0, procs, op) }

	// Spawn: a thread spawned from a running process and run to its end,
	// in a warm process: its coroutine is the one the thread before ended.
	child := func(p *Proc) { p.Advance(1) }
	measureUpTo("Spawn", 0.1, 1, func(p *Proc, _ int) {
		p.env.Spawn("child", child)
		p.Advance(10)
	})

	measure("Advance", 20, func(p *Proc, id int) { p.Advance(Time(100 + 7*id)) })
	measure("AdvanceEach", 20, func(p *Proc, id int) {
		d := Time(100 + 7*id)
		p.AdvanceEach(d, 2*d, 3*d)
	})

	// Poll: each operation is one whole Poll of four steps built once, as a
	// worker builds its idle step, three of them taken by Run.
	steps := make([]stepFunc, 20)
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
		p.env.After(Time(10+id), noop)
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

	chained := Mutex{Name: "chained", HoldCost: 3}
	measure("Mutex LockFor", 4, func(p *Proc, _ int) {
		chained.LockFor(p, 100)
		chained.Unlock(p)
	})
	if chained.Contended == 0 {
		t.Error("Mutex LockFor: no LockFor ever queued")
	}

	bar := NewBarrier("bar", 4)
	measure("Barrier", 4, func(p *Proc, id int) {
		p.Advance(Time(50 + id))
		bar.Wait(p)
	})
}
