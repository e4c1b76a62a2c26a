package simd

import (
	"fmt"

	"repro/internal/run"
)

// JobSpec is the service's name for the run descriptor: a job is one
// run.Spec, content-addressed by its canonical hash.
type JobSpec = run.Spec

// Service-side admission caps: the job server refuses specs that would
// monopolize a worker for an unreasonable time. Generous enough for
// every experiment in EXPERIMENTS.md. They are service policy, not part
// of what a spec means, so the CLIs are not bound by them.
const (
	maxTotalLPs = 1 << 16
	maxNodes    = 64
	maxEndTime  = 1e5
)

// admissible checks an already-canonical spec against the caps.
func admissible(c JobSpec) error {
	if c.Nodes > maxNodes {
		return fmt.Errorf("simd: %d nodes exceeds the service cap of %d", c.Nodes, maxNodes)
	}
	if n := c.Topology().TotalLPs(); n > maxTotalLPs {
		return fmt.Errorf("simd: %d total LPs exceeds the service cap of %d", n, maxTotalLPs)
	}
	if c.EndTime > maxEndTime {
		return fmt.Errorf("simd: end_time %v exceeds the service cap of %v", c.EndTime, float64(maxEndTime))
	}
	return nil
}
