package sim

// stopIdle stops every idle coroutine, so that a goroutine count taken
// next sees only the goroutines a test left running: a body still running
// after Run among them.
func stopIdle() {
	idle.Lock()
	list := idle.list
	idle.list = nil
	idle.Unlock()
	for _, c := range list {
		c.stop()
	}
}
