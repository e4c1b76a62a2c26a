package harness

import "repro/internal/run"

// tw is the Time Warp PHOLD spec most series start from: a dedicated MPI
// thread and the scaled default GVT interval (see Options.GVTInterval).
func tw(scenario string) run.Spec {
	return run.Spec{Comm: "dedicated", Scenario: scenario, GVTInterval: 4}
}

// mixed is tw on the paper's X–Y mixed model.
func mixed(comp, comm float64) run.Spec {
	sp := tw("mixed")
	sp.MixComp, sp.MixComm = comp, comm
	return sp
}

var gvtLabel = map[string]string{"mattern": "Mattern", "barrier": "Barrier", "ca-gvt": "CA-GVT", "samadi": "Samadi"}

// perGVT is one series per GVT algorithm over the same spec, labelled
// with the algorithm's name.
func perGVT(sp run.Spec, gvts ...string) []series {
	var out []series
	for _, g := range gvts {
		sp.GVT = g
		out = append(out, series{gvtLabel[g], sp})
	}
	return out
}

// commThreads is the Figure 3–4 grid: Mattern and Barrier, each with a
// dedicated and a combined MPI thread.
func commThreads(scenario string) []series {
	var out []series
	for _, g := range []string{"mattern", "barrier"} {
		for _, comm := range []string{"dedicated", "combined"} {
			out = append(out, series{gvtLabel[g] + " " + comm,
				run.Spec{GVT: g, Comm: comm, Scenario: scenario, GVTInterval: 8}})
		}
	}
	return out
}

// scenarios is the x axis of the tables that quote one number per
// workload.
var scenarios = axisOf("scenario", "%s", []string{"comp", "comm"},
	func(c *cell, s string) { c.spec.Scenario = s })

// Registry returns all experiments, ordered as in the paper.
func Registry() []Experiment {
	return []Experiment{
		{
			ID:     "fig3",
			Title:  "Dedicated MPI thread, computation-dominated workload",
			Paper:  "Dedicated beats combined for both algorithms at every node count; at 8 nodes Mattern +51%, Barrier +17%.",
			series: commThreads("comp"),
		},
		{
			ID:     "fig4",
			Title:  "Dedicated MPI thread, communication-dominated workload",
			Paper:  "Dedicated wins much bigger under communication load: Mattern 14.59x, Barrier 4.29x at 8 nodes.",
			series: commThreads("comm"),
		},
		{
			ID:     "fig5",
			Title:  "Mattern vs Barrier, computation-dominated workload",
			Paper:  "Mattern wins when computation dominates: 27.9% faster than Barrier at 8 nodes.",
			series: perGVT(tw("comp"), "mattern", "barrier"),
		},
		{
			ID:     "fig6",
			Title:  "Mattern vs Barrier, communication-dominated workload",
			Paper:  "Barrier wins when communication dominates: 14.5% faster at 8 nodes; Mattern efficiency collapses (64.3% vs 94.2%).",
			series: perGVT(tw("comm"), "mattern", "barrier"),
		},
		{
			ID:     "fig8",
			Title:  "Three-way comparison, computation-dominated workload",
			Paper:  "CA-GVT 8% slower than Mattern, 19% faster than Barrier at 8 nodes (stays asynchronous; efficiency ~93%).",
			series: perGVT(tw("comp"), "mattern", "barrier", "ca-gvt"),
		},
		{
			ID:     "fig9",
			Title:  "Three-way comparison, communication-dominated workload",
			Paper:  "CA-GVT 2% slower than Barrier, 13% faster than Mattern at 8 nodes (switches to synchronous mode).",
			series: perGVT(tw("comm"), "mattern", "barrier", "ca-gvt"),
		},
		{
			ID:     "fig10",
			Title:  "Mixed 10-15 model (10% comp, 15% comm, repeating)",
			Paper:  "CA-GVT beats Mattern by 8.3% and Barrier by 6.4% at 8 nodes.",
			series: perGVT(mixed(10, 15), "mattern", "barrier", "ca-gvt"),
		},
		{
			ID:     "fig11",
			Title:  "Mixed 15-10 model (15% comp, 10% comm, repeating)",
			Paper:  "CA-GVT beats Mattern by 6.9% and Barrier by 12.7% at 8 nodes.",
			series: perGVT(mixed(15, 10), "mattern", "barrier", "ca-gvt"),
		},
		{
			ID:     "fig12",
			Title:  "Mixed 5-5 model (5% comp, 5% comm, repeating)",
			Paper:  "CA-GVT beats Mattern by 7.8% and Barrier by 8.3% at 8 nodes.",
			series: perGVT(mixed(5, 5), "mattern", "barrier", "ca-gvt"),
		},
		{
			// The efficiency numbers quoted in §4 and §6.
			ID:     "efficiency",
			Title:  "Simulation efficiency at the largest node count",
			Paper:  "Paper (8 nodes): Mattern comp 92.1%, comm 64.2%; Barrier comp ~91.5%, comm 94.2%; CA comm ~80% (threshold-driven).",
			x:      scenarios,
			series: perGVT(tw(""), "mattern", "barrier", "ca-gvt"),
		},
		{
			// The §4 LVT disparity comparison.
			ID:     "disparity",
			Title:  "Average per-round stddev of worker LVTs, communication-dominated",
			Paper:  "Paper (8 nodes, comm-dominated): Barrier 0.31 vs Mattern 0.43 — synchronization narrows the spread.",
			x:      axisOf("algorithm", "%s", []string{"value"}, func(*cell, string) {}),
			series: perGVT(tw("comm"), "mattern", "barrier"),
		},
		{
			ID:    "interval",
			Title: "GVT interval sensitivity (8-node comm-dominated unless overridden)",
			Paper: "Paper picks 25/50 as 'best overall performance'; too-small intervals pay protocol overhead, too-large ones delay fossil collection and grow rollback depth.",
			x: axisOf("interval", "%d", []int{2, 4, 8, 16, 32},
				func(c *cell, iv int) { c.spec.GVTInterval = iv }),
			series: perGVT(tw("comm"), "mattern", "barrier"),
		},
		{
			ID:    "threshold",
			Title: "CA-GVT efficiency threshold sweep (mixed 10-15 model)",
			Paper: "The paper fixes 80%; the sweep shows the async/sync trade the threshold controls.",
			x: axisOf("threshold", "%.2f", []float64{0.5, 0.7, 0.8, 0.9, 0.99},
				func(c *cell, th float64) { c.spec.CAThreshold = th }),
			series: perGVT(mixed(10, 15), "ca-gvt"),
		},
		{
			ID:    "epg",
			Title: "EPG sweep on the communication-heavy mix: Barrier/Mattern crossover",
			Paper: "§4: higher EPG favors Mattern (asynchrony amortizes), lower EPG favors Barrier (rollback control); the crossover shifts with EPG.",
			x: axisOf("EPG", "%d", []int{500, 1000, 2500, 5000, 10000, 20000},
				func(c *cell, epg int) { c.epg = epg }),
			series: perGVT(tw("comm"), "mattern", "barrier"),
		},
		{
			ID:    "shared",
			Title: "Comm-thread modes: dedicated vs combined vs every-thread-does-MPI",
			Paper: "§1 motivates the dedicated thread with the lock contention of fully threaded MPI; 'shared' is that worst case.",
			series: []series{
				{"dedicated", run.Spec{GVT: "mattern", Comm: "dedicated", Scenario: "comm", GVTInterval: 8}},
				{"combined", run.Spec{GVT: "mattern", Comm: "combined", Scenario: "comm", GVTInterval: 8}},
				{"shared", run.Spec{GVT: "mattern", Comm: "shared", Scenario: "comm", GVTInterval: 8}},
			},
		},
		{
			ID:    "checkpoint",
			Title: "State-saving interval: snapshot every k-th event + coast-forward",
			Paper: "Engine ablation (standard Time Warp trade-off, not a paper figure): sparse snapshots save copy cost but pay re-execution on rollback; the committed stream is identical either way.",
			x: axisOf("interval", "%d", []int{1, 2, 4, 8, 16},
				func(c *cell, k int) { c.spec.CheckpointInterval = k }),
			series: []series{
				{"comp-dominated", run.Spec{GVT: "mattern", Comm: "dedicated", Scenario: "comp", GVTInterval: 4}},
				{"comm-dominated", run.Spec{GVT: "mattern", Comm: "dedicated", Scenario: "comm", GVTInterval: 4}},
			},
		},
		{
			ID:     "samadi",
			Title:  "Samadi's acknowledgement-based GVT against the paper's algorithms",
			Paper:  "Related work (§7): Samadi's algorithm 'requires that acknowledgement messages be sent, causing extra communication overhead' — here that overhead is measured on both scenarios.",
			x:      scenarios,
			series: perGVT(tw(""), "mattern", "barrier", "ca-gvt", "samadi"),
		},
		{
			// Every series pins the straggler fault plan: the policies are
			// compared on the imbalance they exist to correct.
			ID:    "rebalance",
			Title: "LP migration policies under a 4x straggler node, computation-dominated",
			Paper: "Engine extension (not in the paper): telemetry-driven LP migration at GVT commit points. With one node's cores 4x slower, migrating hot LPs off it shrinks virtual time-to-completion; the committed stream is oracle-identical under every policy.",
			series: []series{
				{"static", run.Spec{GVT: "ca-gvt", Comm: "dedicated", Scenario: "comp", GVTInterval: 4, Balance: "static", Faults: "straggler"}},
				{"greedy", run.Spec{GVT: "ca-gvt", Comm: "dedicated", Scenario: "comp", GVTInterval: 4, Balance: "greedy", Faults: "straggler"}},
				{"straggler", run.Spec{GVT: "ca-gvt", Comm: "dedicated", Scenario: "comp", GVTInterval: 4, Balance: "straggler", Faults: "straggler"}},
			},
		},
		{
			// The optimistic engine against both conservative protocols on
			// the same PHOLD workload and committed event stream.
			ID:    "crossover",
			Title: "Optimistic (Time Warp/Mattern) vs conservative (nullmsg, window), computation-dominated PHOLD",
			Paper: "Engine extension (not in the paper): all three engines commit the identical oracle stream; the conservative engines trade rollback risk for blocking, so their relative rate tracks how much safe work the 0.1 lookahead exposes per round.",
			series: []series{
				{"Time Warp/Mattern", run.Spec{GVT: "mattern", Comm: "dedicated", Scenario: "comp", GVTInterval: 4}},
				{"Conservative/nullmsg", run.Spec{Engine: "conservative", Sync: "nullmsg", Scenario: "comp"}},
				{"Conservative/window", run.Spec{Engine: "conservative", Sync: "window", Scenario: "comp"}},
			},
		},
		{
			// The full cross-paradigm grid: every model under every engine
			// configuration, at the largest node count.
			ID:    "matrix",
			Title: "Cross-paradigm scenario matrix: {phold, pcs, epidemic, tandem} x {Time Warp x 4 GVT algorithms, conservative x 2 protocols}",
			Paper: "Engine extension (not in the paper): one deterministic grid over both paradigms. Every cell of a column commits the same oracle event stream, so the rate differences are pure synchronization cost.",
			x: axisOf("model", "%s", []string{"phold", "pcs", "epidemic", "tandem"},
				func(c *cell, m string) { c.spec.Model = m }),
			series: []series{
				{"TW/Barrier", run.Spec{GVT: "barrier", Comm: "dedicated", GVTInterval: 4}},
				{"TW/Mattern", run.Spec{GVT: "mattern", Comm: "dedicated", GVTInterval: 4}},
				{"TW/CA-GVT", run.Spec{GVT: "ca-gvt", Comm: "dedicated", GVTInterval: 4}},
				{"TW/Samadi", run.Spec{GVT: "samadi", Comm: "dedicated", GVTInterval: 4}},
				{"Cons/nullmsg", run.Spec{Engine: "conservative", Sync: "nullmsg", Comm: "dedicated", GVTInterval: 4}},
				{"Cons/window", run.Spec{Engine: "conservative", Sync: "window", Comm: "dedicated", GVTInterval: 4}},
			},
		},
	}
}

// Find returns the experiment with the given ID.
func Find(id string) (Experiment, bool) {
	for _, e := range Registry() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// IDs returns all experiment IDs.
func IDs() []string {
	var ids []string
	for _, e := range Registry() {
		ids = append(ids, e.ID)
	}
	return ids
}
