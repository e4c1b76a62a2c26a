package sim

import (
	"math/rand"
	"strings"
	"testing"
)

// checkAdvanceEach runs one program with its runs of charges made as the
// literal Advance loop and with AdvanceEach, its sleepers idling in mode:
// the log, the clock, every lock's statistics and the dispatches must be
// the loop's, and each chained filing must stand in for one of its
// process switches.
func checkAdvanceEach(t *testing.T, prog []byte, mode int) (chained uint64) {
	t.Helper()
	loop, each := runChainProgram(prog, mode, chainLoop), runChainProgram(prog, mode, chainEach)
	if a, b := strings.Join(loop.log, "\n"), strings.Join(each.log, "\n"); a != b {
		i := 0
		for i < len(loop.log) && i < len(each.log) && loop.log[i] == each.log[i] {
			i++
		}
		t.Fatalf("program %v, mode %d: logs differ from entry %d: loop %q, AdvanceEach %q", prog, mode, i, at(loop.log, i), at(each.log, i))
	}
	if loop.now != each.now || loop.stats != each.stats {
		t.Fatalf("program %v, mode %d: loop ended at %v with\n%s\nAdvanceEach at %v with\n%s", prog, mode, loop.now, loop.stats, each.now, each.stats)
	}
	lc, ec := loop.ctr, each.ctr
	if ec.Dispatches != lc.Dispatches || ec.Callbacks != lc.Callbacks || ec.Steps != lc.Steps || ec.Skipped != lc.Skipped ||
		lc.Chained != 0 || ec.ProcSwitches+ec.Chained != lc.ProcSwitches {
		t.Fatalf("program %v, mode %d: counters loop %+v, AdvanceEach %+v", prog, mode, lc, ec)
	}
	return ec.Chained
}

// TestAdvanceEachMatchesAdvanceLoop: over seeded programs — interactors
// making runs of one to six charges drawn from their own delays, alone and
// behind the locks others take at the same instants, beside sleepers that
// idle the literal way or park — AdvanceEach and LockFor change nothing
// but how many dispatches switch into a process.
func TestAdvanceEachMatchesAdvanceLoop(t *testing.T) {
	var chained uint64
	for seed := int64(1); seed <= 1000; seed++ {
		rng := rand.New(rand.NewSource(seed))
		prog := make([]byte, 64+rng.Intn(512))
		rng.Read(prog)
		for _, mode := range []int{idleLoop, idlePark} {
			chained += checkAdvanceEach(t, prog, mode)
		}
	}
	if chained == 0 {
		t.Error("no dispatch was chained: the programs make no runs of charges")
	}

	// A run longer than a switch's chain takes one switch per chainCap+1.
	env := NewEnv()
	env.Spawn("long", func(p *Proc) {
		ds := make([]Time, 3*chainCap)
		for i := range ds {
			ds[i] = Time(i % 3)
		}
		p.AdvanceEach(ds...)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if c := env.Counters(); env.Now() != Time(3*chainCap) || c.ProcSwitches != 1+3 || c.Chained != 3*chainCap-3 {
		t.Errorf("a run of %d charges ended at %v with %+v", 3*chainCap, env.Now(), c)
	}
}

// FuzzAdvanceEach searches the programs for one where AdvanceEach moves
// anything.
func FuzzAdvanceEach(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0})
	f.Add([]byte{2, 1, 0, 1, 3, 2, 1, 2, 3, 0, 6, 9, 4, 5, 2, 7, 1, 0, 5, 6, 2, 3, 7, 3})
	f.Add([]byte("a longer program, with three sleepers and many runs of charges of each kind"))
	f.Fuzz(func(t *testing.T, prog []byte) {
		checkAdvanceEach(t, prog, idleLoop)
		checkAdvanceEach(t, prog, idlePark)
	})
}
