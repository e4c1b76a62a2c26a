//go:build go1.23

package sim

import (
	"iter"
	"sync"
)

// A coro is the coroutine a process runs on: one iter.Pull whose body runs
// one process body after another. Between bodies it waits on the idle
// list, holding no Env, for the next Spawn of any Env. The build constraint
// raises this file's language version to one that has package iter, while
// go.mod stays at go 1.22.
type coro struct {
	next  func() (struct{}, bool)
	stop  func() // only ever called on an idle coroutine: it ends the loop
	yield func(struct{}) bool
	p     *Proc // the process it runs; nil while idle
}

// maxIdle bounds the idle list: room for two paper-width runs (488
// threads each) at once. A coroutine ended past it is stopped.
const maxIdle = 1024

// idle is every coroutine whose last body has ended, process-wide: an
// explicit stack, not a sync.Pool, since an entry the collector dropped
// would leave its parked goroutine behind for good.
var idle struct {
	sync.Mutex
	list []*coro
}

// IdleCoroutines returns how many goroutines the process keeps parked on
// the idle list for the next Spawn: a goroutine count meant to show only
// the work in flight subtracts them.
func IdleCoroutines() int {
	idle.Lock()
	defer idle.Unlock()
	return len(idle.list)
}

// takeCoro returns an idle coroutine, or a new one if none is.
func takeCoro() *coro {
	idle.Lock()
	defer idle.Unlock()
	if n := len(idle.list); n > 0 {
		c := idle.list[n-1]
		idle.list = idle.list[:n-1]
		return c
	}
	c := new(coro)
	c.next, c.stop = iter.Pull(c.loop)
	return c
}

// release puts the coroutine of p, whose body has ended, on the idle list.
// It runs in Run's context, once the coroutine has switched back.
func (p *Proc) release() {
	c := p.co
	c.p, p.co = nil, nil
	idle.Lock()
	full := len(idle.list) == maxIdle
	if !full {
		idle.list = append(idle.list, c)
	}
	idle.Unlock()
	if full {
		c.stop()
	}
}

// loop is the coroutine's body. A body that calls runtime.Goexit ends the
// loop and its goroutine, and iter.Pull re-raises the Goexit in Run before
// Run reaches release: a dead coroutine is never listed.
func (c *coro) loop(yield func(struct{}) bool) {
	c.yield = yield
	for {
		c.p.run()
		if !yield(struct{}{}) {
			return // stopped while idle
		}
	}
}
