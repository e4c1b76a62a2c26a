package core

import "repro/internal/event"

// Poisoned swaps eng's node pools, still empty before Run, for debug ones
// reserved as newNode reserves them: every event freed is poisoned and the
// poison is checked when the event is handed out again, so a write through
// a stale pointer panics. A test seam only; no Config field asks for it.
func Poisoned(eng *Engine) *Engine {
	top := eng.cfg.Topology
	for _, n := range eng.nodes {
		n.pool = *event.NewPool(true)
		n.pool.Reserve(top.WorkersPerNode*top.LPsPerWorker, &eng.kept.events)
	}
	return eng
}
