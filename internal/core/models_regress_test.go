package core_test

import (
	"fmt"
	"testing"

	core "repro/internal/core"
)

// TestCheckpointIntervalsAcrossModels extends the infrequent-snapshot
// coverage (TestCheckpointIntervals exercises PHOLD) to the remaining
// benchmark models: coast-forward replay after a rollback re-executes
// model code, so every model's event handler must be replay-safe.
func TestCheckpointIntervalsAcrossModels(t *testing.T) {
	for _, m := range balanceModels(balanceTopology()) {
		if m.name == "phold" {
			continue
		}
		for _, k := range []int{2, 4} {
			t.Run(fmt.Sprintf("%s/k=%d", m.name, k), func(t *testing.T) {
				cfg := balanceConfig(m, "", core.GVTMattern)
				cfg.CheckpointInterval = k
				checkOracle(t, cfg)
			})
		}
	}
}
