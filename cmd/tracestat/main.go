// Command tracestat analyzes a binary run trace produced with
// `phold -traceout` (or any engine run with a trace writer): GVT
// progress, commit-rate timeline, per-LP activity spread, efficiency
// timeline with CA-GVT switch points, rollback-cascade depth
// distribution, per-node MPI bandwidth timeline, worker phase
// breakdown, and — on multi-node traces — per-node load imbalance
// (committed-event share, commit-frontier lag) with LP migrations. The
// analysis is trace.Analyze; this command reads the file and prints it.
//
//	go run ./cmd/phold -gvt ca -scenario mixed -traceout run.trace
//	go run ./cmd/tracestat run.trace
//	go run ./cmd/tracestat -json run.trace > analysis.json
//
// Malformed traces exit with status 1 and the byte offset of the
// failure.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/trace"
)

func main() {
	buckets := flag.Int("buckets", 20, "timeline resolution (virtual-time buckets, at least 1)")
	asJSON := flag.Bool("json", false, "emit the analyses as one JSON document")
	flag.Parse()
	if flag.NArg() != 1 || *buckets < 1 {
		fmt.Fprintln(os.Stderr, "usage: tracestat [-buckets n] [-json] <trace-file>")
		os.Exit(2)
	}
	f, err := os.Open(flag.Arg(0))
	if err != nil {
		fmt.Fprintf(os.Stderr, "tracestat: %v\n", err)
		os.Exit(1)
	}
	defer f.Close()

	a, err := trace.Analyze(f, *buckets)
	if err != nil {
		// The reader's errors carry the byte offset of the failure.
		fmt.Fprintf(os.Stderr, "tracestat: %v\n", err)
		os.Exit(1)
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", " ")
		if err := enc.Encode(a); err != nil {
			fmt.Fprintf(os.Stderr, "tracestat: %v\n", err)
			os.Exit(1)
		}
		return
	}
	render(os.Stdout, a)
}

// render prints the human-readable report.
func render(w io.Writer, a *trace.Analysis) {
	fmt.Fprintf(w, "trace: format v%d, %d committed events, %d GVT rounds, virtual time span [0, %.4g]\n",
		a.TraceVersion, a.Commits, len(a.Rounds), a.MaxT)

	if len(a.CommitTimeline) > 0 {
		fmt.Fprintln(w, "\ncommit timeline (virtual time buckets):")
		var peak int64
		for _, b := range a.CommitTimeline {
			if b.Count > peak {
				peak = b.Count
			}
		}
		for _, b := range a.CommitTimeline {
			bar := ""
			if peak > 0 {
				bar = strings.Repeat("#", int(b.Count*50/peak))
			}
			fmt.Fprintf(w, "  [%6.4g, %6.4g) %7d %s\n", b.T0, b.T1, b.Count, bar)
		}
	}
	if a.PerLP != nil {
		fmt.Fprintf(w, "\nper-LP committed events: min=%d p50=%d p90=%d max=%d mean=%.1f\n",
			a.PerLP.Min, a.PerLP.P50, a.PerLP.P90, a.PerLP.Max, a.PerLP.Mean)
	}

	if len(a.Rounds) > 0 {
		sync := 0
		for _, rd := range a.Rounds {
			if rd.Sync {
				sync++
			}
		}
		last := a.Rounds[len(a.Rounds)-1]
		fmt.Fprintf(w, "\nefficiency timeline: %d rounds (%d synchronous), final GVT %.6g at %.3fms virtual\n",
			len(a.Rounds), sync, last.GVT, float64(last.AtNanos)/1e6)
		stride := len(a.Rounds)/10 + 1
		for i := 0; i < len(a.Rounds); i += stride {
			rd := a.Rounds[i]
			mode := "async"
			if rd.Sync {
				mode = "SYNC"
			}
			fmt.Fprintf(w, "  round %4d: gvt=%-10.4g eff=%5.1f%% %s\n",
				rd.Round, rd.GVT, 100*rd.Efficiency, mode)
		}
	}
	if len(a.SwitchPoints) > 0 {
		fmt.Fprintf(w, "\nCA-GVT switch points (%d):\n", len(a.SwitchPoints))
		for _, sp := range a.SwitchPoints {
			fmt.Fprintf(w, "  round %4d at %9.3fms: -> %s\n", sp.Round, float64(sp.AtNanos)/1e6, sp.To)
		}
	}

	if a.Rollbacks.Episodes > 0 {
		rb := &a.Rollbacks
		fmt.Fprintf(w, "\nrollback cascades: %d episodes (%d straggler, %d anti), %d events undone, depth mean=%.1f max=%d\n",
			rb.Episodes, rb.Stragglers, rb.Anti, rb.Undone, rb.MeanDepth, rb.MaxDepth)
		fmt.Fprintln(w, "  depth distribution (episodes with depth <= N):")
		for _, b := range rb.Depths {
			fmt.Fprintf(w, "    <=%6d: %6d straggler, %6d anti\n", b.Le, b.Straggler, b.Anti)
		}
	}

	if a.Faults != nil {
		fmt.Fprintf(w, "\nfaults: %d injected/observed over [%.3f, %.3f]ms virtual\n",
			a.Faults.Total, float64(a.Faults.FirstNs)/1e6, float64(a.Faults.LastNs)/1e6)
		for _, fc := range a.Faults.ByKind {
			fmt.Fprintf(w, "  %-18s %7d\n", fc.Kind, fc.Count)
		}
	}

	if len(a.MPI) > 0 {
		fmt.Fprintln(w, "\nper-node MPI bandwidth (outbound data plane):")
		for _, nb := range a.MPI {
			fmt.Fprintf(w, "  node %2d: %d msgs, %d bytes\n", nb.Node, nb.Messages, nb.Bytes)
			if len(nb.Timeline) > 0 {
				var peak int64
				for _, b := range nb.Timeline {
					if b.Bytes > peak {
						peak = b.Bytes
					}
				}
				for _, b := range nb.Timeline {
					if b.Bytes == 0 {
						continue
					}
					fmt.Fprintf(w, "    [%8.3f, %8.3f)ms %9d B %s\n",
						float64(b.T0Nanos)/1e6, float64(b.T1Nanos)/1e6, b.Bytes,
						strings.Repeat("#", int(b.Bytes*40/peak)))
				}
			}
		}
	}

	if a.Imbalance != nil {
		im := a.Imbalance
		fmt.Fprintf(w, "\nper-node load imbalance (share spread %.1f%%..%.1f%%):\n",
			100*im.MinShare, 100*im.MaxShare)
		fmt.Fprintln(w, "  node  committed   share   mean-lag    max-lag  lps-in  lps-out")
		for _, n := range im.Nodes {
			fmt.Fprintf(w, "  %4d  %9d  %5.1f%%  %9.4g  %9.4g  %6d  %7d\n",
				n.Node, n.Committed, 100*n.Share, n.MeanLag, n.MaxLag, n.LPsIn, n.LPsOut)
		}
		if im.Migrations > 0 {
			fmt.Fprintf(w, "  migrations: %d LPs moved, %d pending events shipped\n",
				im.Migrations, im.MigratedEvents)
			for _, mv := range im.Moves {
				fmt.Fprintf(w, "    round %4d at %9.3fms: LP %4d node %d -> %d (%d events)\n",
					mv.Round, float64(mv.AtNanos)/1e6, mv.LP, mv.SrcNode, mv.DstNode, mv.Events)
			}
		} else {
			fmt.Fprintln(w, "  migrations: none")
		}
	}

	if a.Utilization != nil {
		ut := a.Utilization
		fmt.Fprintf(w, "\nper-node utilization over %d observation rounds (min %.1f%%, mean %.1f%%):\n",
			ut.Rounds, 100*ut.MinUtilization, 100*ut.MeanUtilization)
		fmt.Fprintln(w, "  node  active-rounds  utilization")
		for _, n := range ut.Nodes {
			fmt.Fprintf(w, "  %4d  %13d  %10.1f%%\n", n.Node, n.ActiveRounds, 100*n.Utilization)
		}
		fmt.Fprintf(w, "  horizon roughness: mean width %.4g, mean stddev %.4g (virtual time)\n",
			ut.MeanHorizonWidth, ut.MeanHorizonStddev)
	}

	if len(a.Phases) > 0 {
		fmt.Fprintln(w, "\nworker phase breakdown (virtual time):")
		fmt.Fprintln(w, "  worker  processing      idle   barrier       gvt")
		for _, ph := range a.Phases {
			total := ph.ProcessingNs + ph.IdleNs + ph.BarrierNs + ph.GVTNs
			if total == 0 {
				total = 1
			}
			fmt.Fprintf(w, "  %6d  %9.1f%% %8.1f%% %8.1f%% %8.1f%%\n", ph.Worker,
				100*float64(ph.ProcessingNs)/float64(total),
				100*float64(ph.IdleNs)/float64(total),
				100*float64(ph.BarrierNs)/float64(total),
				100*float64(ph.GVTNs)/float64(total))
		}
	}
}
