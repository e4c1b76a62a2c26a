package harness

import (
	"sync"
	"sync/atomic"
	"testing"
)

func TestPoolRunsEverything(t *testing.T) {
	p := NewPool(4, 64)
	var n atomic.Int64
	for i := 0; i < 64; i++ {
		if !p.TrySubmit(func() { n.Add(1) }) {
			t.Fatalf("submit %d rejected with room in the queue", i)
		}
	}
	p.Close()
	if n.Load() != 64 {
		t.Fatalf("ran %d tasks, want 64", n.Load())
	}
	if st := p.Stats(); st.QueueLen != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestPoolAdmissionControl(t *testing.T) {
	// One worker parked on a gate; queue of 2. The 4th submission (1
	// running + 2 queued) must be rejected, not block.
	gate := make(chan struct{})
	p := NewPool(1, 2)
	p.TrySubmit(func() { <-gate })
	// Wait for the worker to pick up the gate task so queue slots free.
	for p.Stats().QueueLen != 0 {
	}
	ok1 := p.TrySubmit(func() {})
	ok2 := p.TrySubmit(func() {})
	full := p.TrySubmit(func() {})
	if !ok1 || !ok2 {
		t.Fatal("queue-capacity submissions rejected")
	}
	if full {
		t.Fatal("over-capacity submission accepted")
	}
	close(gate)
	p.Close()
}

func TestPoolCloseDrainsQueueAndRefusesNewWork(t *testing.T) {
	p := NewPool(2, 16)
	var n atomic.Int64
	for i := 0; i < 16; i++ {
		p.TrySubmit(func() { n.Add(1) })
	}
	p.Close()
	if n.Load() != 16 {
		t.Fatalf("drain ran %d of 16 queued tasks", n.Load())
	}
	if p.TrySubmit(func() { n.Add(1) }) {
		t.Fatal("closed pool accepted work")
	}
	p.Close() // double close is safe
}

func TestPoolConcurrentSubmitAndClose(t *testing.T) {
	p := NewPool(4, 8)
	var wg sync.WaitGroup
	var ran atomic.Int64
	var accepted atomic.Int64
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if p.TrySubmit(func() { ran.Add(1) }) {
					accepted.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	p.Close()
	if ran.Load() != accepted.Load() {
		t.Fatalf("accepted %d but ran %d", accepted.Load(), ran.Load())
	}
}
