// Command phold runs one PHOLD configuration on the simulated cluster and
// prints the run's statistics — the quickest way to poke at the engine.
//
// Examples:
//
//	phold                                  # defaults: 2 nodes, Mattern
//	phold -nodes 8 -gvt barrier -scenario comm
//	phold -gvt ca -scenario mixed -mix 10,15 -v
//	phold -sync window -seq                # conservative engine + oracle check
//	phold -seq                             # sequential baseline + oracle check
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/balance"
	"repro/internal/fabric"
	"repro/internal/metrics"
	"repro/internal/run"
	"repro/internal/sim"
	tracepkg "repro/internal/trace"
)

// flagSpec turns the flags (s, sync, mix) into the run spec. Spec reads a
// zero size, end time, interval, threshold or mix part as "the default",
// which a flag never means, so they are rejected here; the rest is
// Canonical's.
func flagSpec(s run.Spec, sync, mix string) (run.Spec, error) {
	names := []string{"nodes", "workers", "lps", "end", "interval"}
	for i, v := range []float64{float64(s.Nodes), float64(s.WorkersPerNode), float64(s.LPsPerWorker), s.EndTime, float64(s.GVTInterval)} {
		if !(v > 0) {
			return s, fmt.Errorf("-%s must be positive, got %v", names[i], v)
		}
	}
	if !(s.CAThreshold > 0 && s.CAThreshold <= 1) {
		return s, fmt.Errorf("-threshold must be in (0,1], got %v", s.CAThreshold)
	}
	if sync != "timewarp" {
		s.Engine, s.Sync = "conservative", sync
	}
	if s.Scenario == "mixed" {
		parts := strings.Split(mix, ",")
		if len(parts) != 2 {
			return s, fmt.Errorf("-mix wants X,Y")
		}
		var err1, err2 error
		s.MixComp, err1 = strconv.ParseFloat(strings.TrimSpace(parts[0]), 64)
		s.MixComm, err2 = strconv.ParseFloat(strings.TrimSpace(parts[1]), 64)
		if err1 != nil || err2 != nil {
			return s, fmt.Errorf("bad -mix %q", mix)
		}
		if !(s.MixComp > 0 && s.MixComm > 0) {
			return s, fmt.Errorf("-mix parts must be positive, got %q", mix)
		}
	}
	return s, nil
}

func main() {
	var s run.Spec
	flag.IntVar(&s.Nodes, "nodes", 2, "cluster nodes")
	flag.IntVar(&s.WorkersPerNode, "workers", 8, "worker threads per node")
	flag.IntVar(&s.LPsPerWorker, "lps", 32, "LPs per worker")
	flag.StringVar(&s.GVT, "gvt", "mattern", "GVT algorithm: barrier | mattern | ca | samadi")
	syncF := flag.String("sync", "timewarp", "engine synchronization: timewarp (optimistic) | nullmsg | window (conservative)")
	flag.StringVar(&s.Comm, "comm", "dedicated", "comm-thread mode: dedicated | combined | shared")
	flag.StringVar(&s.Scenario, "scenario", "comp", "workload: comp | comm | mixed")
	mix := flag.String("mix", "10,15", "mixed model X,Y percentages")
	flag.Float64Var(&s.EndTime, "end", 40, "simulation end time")
	flag.IntVar(&s.GVTInterval, "interval", 4, "GVT interval, in 16-event batches per worker")
	flag.Float64Var(&s.CAThreshold, "threshold", 0.80, "CA-GVT efficiency threshold")
	flag.Uint64Var(&s.Seed, "seed", 1, "master RNG seed")
	flag.StringVar(&s.Faults, "faults", "", "fault scenario: "+strings.Join(fabric.ScenarioNames(), " | ")+" (empty: fault-free)")
	flag.StringVar(&s.Balance, "balance", "", "LP load-balancing policy: "+strings.Join(balance.Names(), " | ")+" (empty: static placement)")
	var (
		seqCheck = flag.Bool("seq", false, "also run the sequential oracle and verify the commit stream")
		traceTo  = flag.String("traceout", "", "write a binary v2 run trace (commits, rounds, rollbacks, MPI, phases, migrations) to this file")
		reportTo = flag.String("report", "", "write the JSON run report (config, stats, sampled time series) to this file")
		capN     = flag.Int("samplecap", 0, "max samples per telemetry series (0: default 512)")
		verbose  = flag.Bool("v", false, "print per-GVT-round trace")
	)
	flag.Parse()

	spec, err := flagSpec(s, *syncF, *mix)
	if err != nil {
		fail("%v", err)
	}
	// Canonical rejects what the chosen engine cannot honour (-faults,
	// -balance on a conservative run) instead of ignoring it.
	c, err := spec.Canonical()
	if err != nil {
		fail("%v", err)
	}
	conservative := c.Engine == "conservative"

	var at run.Attach
	var traceFile *os.File
	if *traceTo != "" {
		f, err := os.Create(*traceTo)
		if err != nil {
			fail("%v", err)
		}
		traceFile = f
		at.Trace = tracepkg.NewWriter(f)
	}
	if *reportTo != "" || *verbose {
		at.Metrics = &metrics.Recorder{MaxSamples: *capN}
	}
	var rounds []metrics.ProgressUpdate
	if *verbose {
		at.Metrics.OnProgress = func(u metrics.ProgressUpdate) { rounds = append(rounds, u) }
	}

	eng, err := run.New(c, at)
	if err != nil {
		fail("%v", err)
	}
	r, err := eng.Run()
	if err != nil {
		fail("%v", err)
	}

	if conservative {
		fmt.Printf("phold: %d nodes x %d workers x %d LPs, conservative/%s, lookahead %v, %s scenario\n",
			c.Nodes, c.WorkersPerNode, c.LPsPerWorker, c.Sync, c.Lookahead, c.Scenario)
	} else {
		fmt.Printf("phold: %d nodes x %d workers x %d LPs, %s GVT, %s comm, %s scenario\n",
			c.Nodes, c.WorkersPerNode, c.LPsPerWorker, c.GVT, c.Comm, c.Scenario)
	}
	fmt.Println(r)
	if conservative {
		fmt.Printf("conservative: %d null messages, %d sync rounds\n", r.NullMessages, r.SyncRounds)
	}
	if c.Balance != "" {
		fmt.Printf("balance: policy %q — %d LP migrations, %d pending events shipped\n",
			c.Balance, r.Migrations, r.MigratedEvents)
	}
	if c.Faults != "" {
		fmt.Printf("faults: scenario %q — injected %d drops, %d dups, %d jitters, %d window drops\n",
			c.Faults, r.FaultDrops, r.FaultDups, r.FaultJitters, r.FaultWindowDrops)
		fmt.Printf("transport: %d retransmits, %d dup frames suppressed\n",
			r.Retransmits, r.TransportDups)
	}
	if t := at.Trace; t != nil {
		if err := t.Flush(); err != nil {
			fail("trace: %v", err)
		}
		if err := traceFile.Close(); err != nil {
			fail("trace: %v", err)
		}
		fmt.Printf("trace: wrote v%d trace to %s (%d commits, %d rounds, %d rollbacks, %d/%d mpi send/recv, %d phase transitions)\n",
			tracepkg.Version, *traceTo, t.Commits, t.Rounds, t.Rollbacks, t.MPISends, t.MPIRecvs, t.Phases)
	}
	if *reportTo != "" {
		rep := eng.Report(r)
		rep.Config.Label = "phold/" + c.Scenario
		f, err := os.Create(*reportTo)
		if err != nil {
			fail("report: %v", err)
		}
		if err := rep.WriteJSON(f); err != nil {
			fail("report: %v", err)
		}
		if err := f.Close(); err != nil {
			fail("report: %v", err)
		}
		fmt.Printf("report: wrote %s (%d round samples, stride %d)\n",
			*reportTo, len(rep.Rounds), rep.SampleStride)
	}
	if *verbose {
		fmt.Println("\nGVT rounds:")
		for _, u := range rounds {
			mode := "async"
			if u.Sync {
				mode = "SYNC"
			}
			fmt.Printf("  #%3d at %-12v gvt=%-10.4g eff=%5.1f%% %s\n",
				u.Round, sim.Time(u.AtNanos), u.GVT, 100*u.Efficiency, mode)
		}
	}

	if *seqCheck {
		ref, err := c.Oracle()
		if err != nil {
			fail("%v", err)
		}
		fmt.Printf("\nsequential oracle: %d events, checksum %x\n", ref.Processed, ref.Checksum)
		if ref.Checksum == r.CommitChecksum && ref.Processed == r.Workers.Committed {
			kind := "parallel"
			if conservative {
				kind = "conservative"
			}
			fmt.Printf("oracle check: OK — %s run committed the identical event stream\n", kind)
		} else {
			fmt.Println("oracle check: MISMATCH — this is an engine bug")
			os.Exit(1)
		}
	}
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "phold: "+format+"\n", args...)
	os.Exit(2)
}
