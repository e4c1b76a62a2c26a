// Command benchmark measures what the engines and the job service cost
// on the host, end to end and layer by layer. It drives every layer from
// outside, through public functions and seams, and checks each result
// against the sequential oracle or the service's own determinism rules.
//
//	bash benchmark/run.sh --workload tw-comp --seed 1 --seconds 20 --trace 0
//	bash benchmark/run.sh --workload svc-cold --trace 1   # per-layer metrics, out/trace.json
//	bash benchmark/run.sh                                  # all five workloads
//	bash benchmark/run.sh -compare out/setA out/setB       # two result sets, row by row
//
// BENCHMARK.json at the repository root declares the workloads, the
// metrics and their regression bounds; README.md in this directory says
// what each is for. Host time and virtual time are never mixed: a name
// starting with virt_ (or containing _virt_) is on the simulated clock,
// every other time is the host's.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// options are the flags of one invocation.
type options struct {
	workload string    // one workload's name, or "all"
	seed     uint64    // every generated input derives from it
	seconds  float64   // length of the measured region; sets repetition and job counts
	trace    bool      // the traced run: per-layer metrics, spans, probes
	smoke    bool      // tiny sizes: every code path and check in a few seconds
	outDir   string    // where results, traces and temp stores go
	corrupt  bool      // tests only: corrupt the first expected result so the checks must fire
	tracer   *tracer   // the invocation's span recorder; nil when tracing is off
	started  time.Time // when the current workload began, for overBudget
}

// minReps is how many timed repetitions a run makes however slow the
// host is.
const minReps = 3

// overBudget reports that the current workload has run a quarter longer
// than -seconds. Repetition counts are fixed by the flags so that counts
// repeat exactly; this only keeps a much slower host from multiplying
// the run time, at the price of a shorter seed list there.
func (o options) overBudget() bool {
	return time.Since(o.started).Seconds() > 1.25*o.seconds
}

// value is one reported metric: the median over a run's repetitions with
// its quartiles, or an exact total (Q1 = Q3 = Value) for counts.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
	N     int     `json:"n"` // samples behind the value
}

func medianValue(vals []float64, unit string) value {
	if len(vals) == 0 {
		return value{Unit: unit}
	}
	s := summarize(vals)
	return value{Value: s.Median, Unit: unit, Q1: s.Q1, Q3: s.Q3, N: s.N}
}

// exactValue is a total or ratio of counts. A ratio whose denominator a
// failed run left at zero reads 0, which JSON can carry; the run is
// already marked failed.
func exactValue(v float64, unit string, n int) value {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	return value{Value: v, Unit: unit, Q1: v, Q3: v, N: n}
}

// workloadResult is everything one workload's run produced.
type workloadResult struct {
	Workload  string           `json:"workload"`
	Seed      uint64           `json:"seed"`
	Seconds   float64          `json:"seconds"`
	Attempted int              `json:"attempted"` // repetitions (engines) or jobs (service) checked
	Failed    int              `json:"failed"`
	Failures  []string         `json:"failures,omitempty"` // the first few, for the log
	Note      string           `json:"note,omitempty"`     // set when the run was cut short
	EndToEnd  map[string]value `json:"end_to_end,omitempty"`
	PerLayer  map[string]value `json:"per_layer,omitempty"`
}

func newResult(name string, o options) workloadResult {
	return workloadResult{Workload: name, Seed: o.seed, Seconds: o.seconds}
}

// fail keeps the first few failure messages.
func (r *workloadResult) fail(msg string) {
	if len(r.Failures) < 8 {
		r.Failures = append(r.Failures, msg)
	}
}

// workload names one entry of BENCHMARK.json's workloads and how to run it.
type workload struct {
	name string
	run  func(o options) workloadResult
}

// workloads lists the five workloads in the order "all" runs them.
func workloads(smoke bool) []workload {
	var ws []workload
	for _, e := range engineSpecs(smoke) {
		ws = append(ws, workload{e.name, func(o options) workloadResult { return runEngine(e, o) }})
	}
	for _, s := range serviceSpecs(smoke) {
		ws = append(ws, workload{s.name, func(o options) workloadResult { return runService(s, o) }})
	}
	return ws
}

// hostInfo records where the numbers were taken.
type hostInfo struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Platform   string `json:"platform"`
}

func thisHost() hostInfo {
	return hostInfo{runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS + "/" + runtime.GOARCH}
}

// resultFile is out/result-<seed>.json: the latest untraced and traced
// result of each workload for that seed.
type resultFile struct {
	Schema    string                    `json:"schema"`
	Host      hostInfo                  `json:"host"`
	Seed      uint64                    `json:"seed"`
	Workloads map[string]workloadResult `json:"workloads"`
	Traced    map[string]workloadResult `json:"traced,omitempty"`
}

const resultSchema = "cagvt.benchmark-result/1"

// saveResult merges res into the result file for its seed.
func saveResult(dir string, res workloadResult, traced bool) error {
	path := filepath.Join(dir, fmt.Sprintf("result-%d.json", res.Seed))
	doc := resultFile{Schema: resultSchema, Seed: res.Seed}
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &doc); err != nil || doc.Schema != resultSchema {
			doc = resultFile{Schema: resultSchema, Seed: res.Seed}
		}
	}
	doc.Host = thisHost()
	if doc.Workloads == nil {
		doc.Workloads = make(map[string]workloadResult)
	}
	if traced {
		if doc.Traced == nil {
			doc.Traced = make(map[string]workloadResult)
		}
		doc.Traced[res.Workload] = res
	} else {
		doc.Workloads[res.Workload] = res
	}
	data, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// repoRoot finds the directory holding BENCHMARK.json, from the working
// directory upwards: the benchmark is started from the root or from
// benchmark/.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("BENCHMARK.json not found in the working directory or above it")
		}
		dir = parent
	}
}

// printResult writes the human-readable table: every metric by name
// with its unit, quartiles and sample count.
func printResult(w io.Writer, res workloadResult, metrics map[string]value) {
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%s  seed=%d  attempted=%d  failed=%d  failed_frac=%.4g\n",
		res.Workload, res.Seed, res.Attempted, res.Failed, float64(res.Failed)/float64(max(res.Attempted, 1)))
	for _, n := range names {
		v := metrics[n]
		fmt.Fprintf(w, "  %-34s %14.6g %-6s q1=%-12.6g q3=%-12.6g n=%d\n", n, v.Value, v.Unit, v.Q1, v.Q3, v.N)
	}
	for _, f := range res.Failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
	if res.Note != "" {
		fmt.Fprintf(w, "  note: %s\n", res.Note)
	}
}

// printShares prints, from a traced run, the share of the blocking path
// each layer holds: with nothing else contending, a faster layer saves
// at most its share, so a later change can size its claim beforehand.
func printShares(w io.Writer, res workloadResult) {
	pl := res.PerLayer
	if v := pl["phold.share"]; v.N > 0 {
		fmt.Fprintf(w, "  share of Engine.Run inside the model (phold.share): %.3f; engine+kernel+fabric: %.3f\n",
			v.Value, pl["core.run_self_share"].Value)
	}
	if p50 := pl["client.run_ms_p50"]; p50.Value > 0 {
		fsync := pl["store.fsync_us_p50"].Value * pl["store.fsyncs_per_job"].Value / (p50.Value * 1e3)
		fmt.Fprintf(w, "  share of client.run_ms_p50 in fsync (fsync_us_p50 x fsyncs_per_job): %.3f; in client+HTTP (client.overhead_us): %.3f\n",
			fsync, pl["client.overhead_us"].Value/(p50.Value*1e3))
	}
}

// contractLine is the last line of standard output: the one JSON object
// the benchmark driver reads.
type contractLine struct {
	Correct   bool                      `json:"correct"`
	Attempted int                       `json:"attempted"`
	Failed    int                       `json:"failed"`
	Metrics   map[string]contractMetric `json:"metrics"`
}

type contractMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	var compare bool
	fs.StringVar(&o.workload, "workload", "all", "workload to run: tw-comp | tw-comm | cons-nullmsg | svc-hot | svc-cold | all")
	fs.Uint64Var(&o.seed, "seed", 1, "seed every generated input derives from")
	fs.Float64Var(&o.seconds, "seconds", 20, "length of the measured region in host seconds")
	fs.IntVar(&trace, "trace", 0, "1: the traced run (per-layer metrics, probes, out/trace.json); 0: end-to-end metrics, tracing off")
	fs.BoolVar(&o.smoke, "smoke", false, "tiny sizes: every path and check in a few seconds")
	fs.StringVar(&o.outDir, "out", "", "directory for results, traces and temp stores (default <root>/benchmark/out)")
	fs.BoolVar(&compare, "compare", false, "compare two result sets: -compare A B, each a result file or a directory of them")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = trace != 0

	root, err := repoRoot()
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	if compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare needs two result files or directories")
			return 2
		}
		return runCompare(filepath.Join(root, "BENCHMARK.json"), fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 || o.seconds <= 0 {
		fmt.Fprintln(stderr, "benchmark: unexpected arguments:", strings.Join(fs.Args(), " "))
		return 2
	}
	if o.outDir == "" {
		o.outDir = filepath.Join(root, "benchmark", "out")
	}
	return runWorkloads(o, stdout, stderr)
}

// runWorkloads runs the selected workloads, prints their metrics, writes
// the result and trace files and returns the exit code: 1 when any
// correctness check failed.
func runWorkloads(o options, stdout, stderr io.Writer) int {
	fatal := func(err error) int {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return fatal(err)
	}
	var selected []workload
	for _, w := range workloads(o.smoke) {
		if o.workload == "all" || o.workload == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		return fatal(fmt.Errorf("unknown workload %q", o.workload))
	}
	if o.trace {
		o.tracer = newTracer()
	}

	h := thisHost()
	fmt.Fprintf(stdout, "host: nproc=%d gomaxprocs=%d %s %s\n", h.NumCPU, h.GOMAXPROCS, h.GoVersion, h.Platform)
	line := contractLine{Metrics: make(map[string]contractMetric)}
	for _, w := range selected {
		o.started = time.Now()
		res := execute(w, o)
		metrics := res.EndToEnd
		if o.trace {
			metrics = res.PerLayer
		}
		printResult(stdout, res, metrics)
		if o.trace {
			printShares(stdout, res)
		}
		if !o.smoke {
			if err := saveResult(o.outDir, res, o.trace); err != nil {
				return fatal(err)
			}
		}
		line.Attempted += res.Attempted
		line.Failed += res.Failed
		for n, v := range metrics {
			if len(selected) > 1 {
				n = w.name + ":" + n // "all" is for people; the driver runs one workload
			}
			line.Metrics[n] = contractMetric{v.Value, v.Unit}
		}
	}
	if o.trace {
		spans := o.tracer.snapshot()
		path := filepath.Join(o.outDir, "trace.json")
		if err := writeTrace(path, o.workload, o.seed, spans); err != nil {
			return fatal(err)
		}
		fmt.Fprintf(stdout, "%d spans written to %s\n", len(spans), path)
	}
	line.Correct = line.Failed == 0 && line.Attempted > 0
	out, err := json.Marshal(line)
	if err != nil {
		return fatal(err)
	}
	fmt.Fprintln(stdout, string(out))
	if !line.Correct {
		return 1
	}
	return 0
}

// execute runs one workload; in a traced run it adds the layer probes
// and fills in, as 0, the layers the workload never enters, so every
// traced run reports the whole per-layer list.
func execute(w workload, o options) workloadResult {
	res := w.run(o)
	if !o.trace {
		return res
	}
	probes, err := runProbes(o)
	if err != nil {
		res.Attempted++
		res.Failed++
		res.fail("probes: " + err.Error())
	}
	for n, v := range probes {
		res.PerLayer[n] = v
	}
	for _, m := range layerMetrics {
		if _, ok := res.PerLayer[m.Name]; !ok {
			res.PerLayer[m.Name] = value{Unit: m.Unit}
		}
	}
	return res
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}
