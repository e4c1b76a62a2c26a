package conservative

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/event"
	"repro/internal/metrics"
	"repro/internal/models/tandem"
	"repro/internal/pe"
	"repro/internal/phold"
	"repro/internal/seq"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vtime"
)

// TestNullMessageDeadlockRegression pins the protocol's deadlock-freedom
// on the adversarial shape for CMB: a feed-forward chain split across
// nodes where every cross-node delay equals the lookahead exactly, and
// the lookahead is near zero. Without lookahead-stamped null messages
// (or with a promise that fails to ratchet), the downstream node would
// wait forever for the upstream one. The run must terminate, exchange
// real null traffic, and still match the oracle bit for bit.
func TestNullMessageDeadlockRegression(t *testing.T) {
	top := cluster.Topology{Nodes: 4, WorkersPerNode: 1, LPsPerWorker: 2}
	params := tandem.Params{HopDelay: 0.002} // zero-lookahead-adjacent
	factory := func() Config {
		return Config{
			Topology:  top,
			Sync:      SyncNullMsg,
			Lookahead: vtime.Time(params.Lookahead()),
			EndTime:   3.0,
			Seed:      11,
			Model:     tandem.New(params),
		}
	}
	ref := seq.New(tandem.New(params), top.TotalLPs(), 3.0, 11).Run()
	if ref.Processed == 0 {
		t.Fatal("oracle processed nothing; the regression would be vacuous")
	}

	done := make(chan struct{})
	var r *statsRun
	go func() {
		defer close(done)
		run, err := New(factory()).Run()
		if err != nil {
			t.Errorf("run failed: %v", err)
			return
		}
		r = &statsRun{run.CommitChecksum, run.Workers.Committed, run.NullMessages}
	}()
	select {
	case <-done:
	case <-time.After(120 * time.Second):
		t.Fatal("null-message run deadlocked (timed out)")
	}
	if r == nil {
		return
	}
	if r.checksum != ref.Checksum || r.committed != ref.Processed {
		t.Errorf("checksum %016x/%d events, oracle %016x/%d", r.checksum, r.committed, ref.Checksum, ref.Processed)
	}
	if r.nulls == 0 {
		t.Error("no null messages exchanged on a 4-node chain — the protocol cannot have synchronized conservatively")
	}
}

type statsRun struct {
	checksum  uint64
	committed int64
	nulls     int64
}

// TestZeroLookaheadRejected pins the validation error: a conservative
// configuration without positive lookahead must be refused, with an
// error explaining why.
func TestZeroLookaheadRejected(t *testing.T) {
	for _, la := range []vtime.Time{0, -0.5} {
		cfg := Config{
			Topology: cluster.Topology{Nodes: 1, WorkersPerNode: 2, LPsPerWorker: 2},
			Sync:     SyncNullMsg,
			EndTime:  1,
			Model:    tandem.New(tandem.Params{}),
		}
		cfg.Lookahead = la
		cfg.Defaults()
		err := cfg.Validate()
		if err == nil {
			t.Fatalf("lookahead %v accepted", la)
		}
		if !strings.Contains(err.Error(), "deadlock") {
			t.Errorf("lookahead %v: error %q does not explain the deadlock risk", la, err)
		}
	}
}

// TestLookaheadViolationPanics pins the runtime guard: declaring a
// larger lookahead than the model honors must fail loudly, not corrupt
// the committed stream.
func TestLookaheadViolationPanics(t *testing.T) {
	top := cluster.Topology{Nodes: 1, WorkersPerNode: 2, LPsPerWorker: 2}
	params := phold.Params{Topology: top, Base: phold.ComputationDominated()}
	params.Base.RemotePct = 0
	params.Base.RegionalPct = 1 // every send crosses workers, so the guard must trip
	eng := New(Config{
		Topology:  top,
		Sync:      SyncNullMsg,
		Lookahead: 5.0, // far above phold's actual 0.1 floor
		EndTime:   4,
		Seed:      1,
		Model:     phold.New(params),
	})
	defer func() {
		msg, ok := recover().(string)
		if !ok {
			t.Fatal("no panic despite a lookahead the model violates")
		}
		if !strings.Contains(msg, "lookahead") {
			t.Errorf("panic %q does not name the lookahead violation", msg)
		}
	}()
	_, _ = eng.Run()
	t.Fatal("run completed despite a lookahead the model violates")
}

// TestObservability pins the engine's trace and metrics surface: commit
// records for every committed event, round records from both protocols,
// sampled round series, and the run report's identity fields.
func TestObservability(t *testing.T) {
	top := cluster.Topology{Nodes: 2, WorkersPerNode: 2, LPsPerWorker: 2}
	for _, sync := range []SyncKind{SyncNullMsg, SyncWindow} {
		var buf bytes.Buffer
		tw := trace.NewWriter(&buf)
		rec := metrics.NewRecorder()
		params := phold.Params{Topology: top, Base: phold.ComputationDominated()}
		params.Base.RemotePct = 0.3 // enough cross-node traffic to guarantee MPI records
		eng := New(Config{
			Topology: top, Sync: sync, Lookahead: 0.1,
			EndTime: 4, Seed: 1, Model: phold.New(params),
			Trace: tw, Metrics: rec,
		})
		r, err := eng.Run()
		if err != nil {
			t.Fatalf("%v: %v", sync, err)
		}
		if err := tw.Flush(); err != nil {
			t.Fatalf("%v: flush: %v", sync, err)
		}
		var commits, rounds, mpiSends int64
		if err := trace.NewReader(bytes.NewReader(buf.Bytes())).ForEach(trace.Visitor{
			Commit:  func(trace.Commit) { commits++ },
			Round:   func(trace.Round) { rounds++ },
			MPISend: func(trace.MPISend) { mpiSends++ },
		}); err != nil {
			t.Fatalf("%v: reading trace: %v", sync, err)
		}
		if commits != r.Workers.Committed {
			t.Errorf("%v: %d commit records for %d committed events", sync, commits, r.Workers.Committed)
		}
		if rounds == 0 {
			t.Errorf("%v: no round records", sync)
		}
		if rounds != r.GVTRounds {
			t.Errorf("%v: %d round records but %d recorded rounds", sync, rounds, r.GVTRounds)
		}
		if mpiSends == 0 {
			t.Errorf("%v: no MPI send records on a 2-node run", sync)
		}
		if len(rec.Rounds()) == 0 {
			t.Errorf("%v: metrics recorder sampled no rounds", sync)
		}
		if sync == SyncNullMsg && r.NullMessages == 0 {
			t.Errorf("nullmsg: no null messages on a 2-node run")
		}
		if sync == SyncWindow && r.SyncRounds == 0 {
			t.Errorf("window: no sync rounds recorded")
		}

		rep := eng.Report(r)
		if rep.Config.Engine != "conservative" || rep.Config.Sync != sync.String() {
			t.Errorf("%v: report identity engine=%q sync=%q", sync, rep.Config.Engine, rep.Config.Sync)
		}
		if rep.Config.Lookahead != 0.1 {
			t.Errorf("%v: report lookahead %v", sync, rep.Config.Lookahead)
		}
		if rep.Stats.Efficiency != 1 {
			t.Errorf("%v: conservative efficiency %v, want exactly 1", sync, rep.Stats.Efficiency)
		}
		if want := metrics.Checksum(r.CommitChecksum); rep.Stats.CommitChecksum != want {
			t.Errorf("%v: report checksum %s, want %s", sync, rep.Stats.CommitChecksum, want)
		}
	}
}

// TestCancel pins that a running conservative simulation unwinds on
// Cancel with sim.ErrCancelled.
func TestCancel(t *testing.T) {
	top := cluster.Topology{Nodes: 2, WorkersPerNode: 2, LPsPerWorker: 4}
	params := phold.Params{Topology: top, Base: phold.ComputationDominated()}
	eng := New(Config{
		Topology: top, Sync: SyncNullMsg, Lookahead: 0.1,
		EndTime: 1e4, Seed: 1, Model: phold.New(params),
	})
	done := make(chan error, 1)
	go func() {
		_, err := eng.Run()
		done <- err
	}()
	eng.Cancel()
	select {
	case err := <-done:
		if !errors.Is(err, sim.ErrCancelled) {
			t.Fatalf("got %v, want sim.ErrCancelled", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("cancel did not unwind the run")
	}
}

// cancelAt is a model that, at its k-th event, asks another goroutine to
// cancel the run and waits until it has, noting the kernel's counters.
type cancelAt struct {
	pe.Model
	seen *int
	k    int
	ask  chan<- struct{}
	done <-chan struct{}
	eng  **Engine
	at   *sim.Counters
}

func (m cancelAt) OnEvent(ctx pe.Context, ev *event.Event) {
	if *m.seen++; *m.seen == m.k {
		*m.at = (*m.eng).Env.Counters()
		m.ask <- struct{}{}
		<-m.done
	}
	m.Model.OnEvent(ctx, ev)
}

// TestCancelParkedRun: a null-message run cancelled from another goroutine
// while its idle threads are parked returns sim.ErrCancelled within one
// cancellation stride of real dispatches. A wake adds the skipped steps to
// Dispatches at once, so a poll of the stop flag at every stride-th count
// would be jumped over again and again; the poll is a threshold.
func TestCancelParkedRun(t *testing.T) {
	top := cluster.Topology{Nodes: 4, WorkersPerNode: 4, LPsPerWorker: 16}
	inner := phold.New(phold.Params{Topology: top, Base: phold.ComputationDominated()})
	for k := 100; k < 1800; k += 100 {
		var eng *Engine
		var at sim.Counters
		seen := 0
		ask, done := make(chan struct{}), make(chan struct{})
		eng = New(Config{
			Topology: top, Sync: SyncNullMsg, Lookahead: 0.1, EndTime: 8, Seed: 1,
			Model: func(id event.LPID, total int) pe.Model {
				return cancelAt{Model: inner(id, total), seen: &seen, k: k, ask: ask, done: done, eng: &eng, at: &at}
			},
		})
		go func() {
			<-ask
			eng.Cancel()
			close(done)
		}()
		start := time.Now()
		if _, err := eng.Run(); !errors.Is(err, sim.ErrCancelled) {
			t.Fatalf("cancel at event %d: Run returned %v, want sim.ErrCancelled", k, err)
		}
		end := eng.Env.Counters()
		real := (end.Dispatches - end.Skipped) - (at.Dispatches - at.Skipped)
		if at.Skipped == 0 || real > 64 || time.Since(start) > 10*time.Second {
			t.Errorf("cancel at event %d, %d steps skipped by then: %d real dispatches until Run returned (stride 64), after %v",
				k, at.Skipped, real, time.Since(start))
		}
	}
}
