// Command perfbench is the repository's end-to-end benchmark. It runs
// one workload for a fixed time, checks that every output is correct,
// and prints its metrics as one JSON line on stdout:
//
//	perfbench --workload d1|figs|serve --seed N --seconds S --trace 0|1
//
// Workloads d1 and figs drive the experiment runner one experiment job
// at a time, as paperfigs does, each untraced pass in a fresh process.
// Workload serve starts a mixtimed daemon and drives it over loopback
// HTTP with api.Client.
// With --trace 0 the line carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics of a traced run, whose
// spans are recorded around calls into each layer's public functions
// from this package. A human-readable table of every metric goes to
// stderr. See README.md for the metric glossary.
//
// Any correctness mismatch sets "correct" to false and makes the exit
// status 1; a run that cannot be measured at all exits 2 without a
// result line.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

// metricKind says which output a metric belongs to.
type metricKind int

const (
	kindE2E   metricKind = iota // JSON line with --trace 0
	kindLayer                   // JSON line with --trace 1
	kindInfo                    // stderr table only
)

// e2eMetrics and layerMetrics are the names and units BENCHMARK.json
// declares; every workload reports each of them (a test keeps the two
// files in step).
var e2eMetrics = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"ops_per_s", "1/s"},
	{"peak_rss_mib", "MiB"},
}

var layerMetrics = []metricDef{
	{"datasets.generate_s", "s"},
	{"graph.components_s", "s"},
	{"spectral.slem_s", "s"},
	{"spectral.matvecs", "count"},
	{"spectral.iterations", "count"},
	{"spectral.converged_frac", "frac"},
	{"markov.trace_s", "s"},
	{"markov.edges_scanned", "count"},
	{"markov.source_steps", "count"},
	{"markov.steps_after_mixed_frac", "frac"},
	{"distmix.share", "frac"},
	{"distmix.rounds", "count"},
	{"distmix.messages", "count"},
	{"distmix.offshard_frac", "frac"},
	{"evolve.epochs", "count"},
	{"service.solves", "count"},
	{"service.hits", "count"},
	{"service.joins", "count"},
	{"service.shed", "count"},
	{"service.evictions", "count"},
	{"service.solve_efficiency", "frac"},
	{"trace.coverage", "frac"},
	{"trace.overhead_frac", "frac"},
}

type metricDef struct{ Name, Unit string }

// metric is one measured value.
type metric struct {
	Name  string
	Unit  string
	Value float64
	Kind  metricKind
}

// report is what a workload run hands back to main.
type report struct {
	attempted int
	failed    int
	// mismatches names every correctness failure; each is also
	// counted in failed.
	mismatches []string
	metrics    []metric
}

func (r *report) add(kind metricKind, name, unit string, v float64) {
	r.metrics = append(r.metrics, metric{Name: name, Unit: unit, Value: v, Kind: kind})
}

// mismatch records a correctness failure of one operation.
func (r *report) mismatch(format string, args ...any) {
	r.failed++
	r.mismatches = append(r.mismatches, fmt.Sprintf(format, args...))
}

// options are the command-line settings every workload receives.
type options struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	stateDir string
	binDir   string
}

type workloadFunc func(ctx context.Context, o options) (*report, error)

var workloads = map[string]workloadFunc{
	"d1":    func(ctx context.Context, o options) (*report, error) { return runBatch(ctx, d1Workload, o) },
	"figs":  func(ctx context.Context, o options) (*report, error) { return runBatch(ctx, figsWorkload, o) },
	"serve": runServe,
}

var batchWorkloads = map[string]batchWorkload{d1Workload.name: d1Workload, figsWorkload.name: figsWorkload}

func main() { os.Exit(run()) }

func run() int {
	var o options
	var seconds, trace int
	pass := flag.Bool("pass", false, "internal: run one pass of a batch workload at --seed and print it as JSON")
	flag.StringVar(&o.workload, "workload", "", "workload to run: d1, figs or serve")
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	flag.IntVar(&seconds, "seconds", 30, "how long to measure")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced per-layer variant")
	flag.StringVar(&o.stateDir, "state-dir", ".bench_build", "directory for run state (digests, daemon address files)")
	flag.StringVar(&o.binDir, "bin-dir", ".bench_build", "directory holding the mixtimed binary")
	flag.Parse()

	if *pass {
		return passChild(o.workload, o.seed)
	}
	wf, ok := workloads[o.workload]
	if !ok || seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload d1|figs|serve, --seconds >= 1 and --trace 0|1\n")
		return 2
	}
	o.seconds = time.Duration(seconds) * time.Second
	o.trace = trace == 1
	if err := os.MkdirAll(o.stateDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}

	rep, err := wf(context.Background(), o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", o.workload, err)
		return 2
	}
	want := kindE2E
	if o.trace {
		want = kindLayer
	}
	out, err := resultLine(rep, want)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", o.workload, err)
		return 2
	}
	printTable(rep, o)
	fmt.Println(string(out))
	if len(rep.mismatches) > 0 || rep.failed > 0 {
		return 1
	}
	return 0
}

// resultLine renders the final JSON object, insisting that the
// workload reported exactly the declared metrics of the wanted kind.
func resultLine(rep *report, want metricKind) ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs := e2eMetrics
	if want == kindLayer {
		defs = layerMetrics
	}
	got := map[string]value{}
	for _, m := range rep.metrics {
		if m.Kind == want {
			got[m.Name] = value{m.Value, m.Unit}
		}
	}
	if len(got) != len(defs) {
		return nil, fmt.Errorf("reported %d metrics, BENCHMARK.json declares %d", len(got), len(defs))
	}
	for _, d := range defs {
		v, ok := got[d.Name]
		if !ok || v.Unit != d.Unit {
			return nil, fmt.Errorf("metric %s (%s) missing or in the wrong unit", d.Name, d.Unit)
		}
	}
	if rep.attempted < 1 {
		return nil, fmt.Errorf("no operation attempted")
	}
	return json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{len(rep.mismatches) == 0 && rep.failed == 0, rep.attempted, rep.failed, got})
}

// printTable writes every metric, by name with its unit, to stderr.
func printTable(rep *report, o options) {
	var b strings.Builder
	mode := "untraced"
	if o.trace {
		mode = "traced"
	}
	fmt.Fprintf(&b, "perfbench %s seed=%d seconds=%.0f %s\n", o.workload, o.seed, o.seconds.Seconds(), mode)
	ms := append([]metric(nil), rep.metrics...)
	sort.SliceStable(ms, func(i, j int) bool { return ms[i].Kind < ms[j].Kind })
	label := map[metricKind]string{kindE2E: "end-to-end", kindLayer: "per-layer", kindInfo: "detail"}
	for _, m := range ms {
		fmt.Fprintf(&b, "  %-10s %-34s %14.6g %s\n", label[m.Kind], m.Name, m.Value, m.Unit)
	}
	fmt.Fprintf(&b, "  attempted %d, failed %d (failed_frac %.4g)\n",
		rep.attempted, rep.failed, ratio(float64(rep.failed), float64(rep.attempted)))
	for _, s := range rep.mismatches {
		fmt.Fprintf(&b, "  MISMATCH: %s\n", s)
	}
	fmt.Fprint(os.Stderr, b.String())
}
