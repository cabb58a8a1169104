// Command perfbench is the repository's benchmark. It runs one named
// workload in this single process, checks that the workload's output is
// correct, and prints one JSON result line:
//
//	perfbench -workload crawl|analyze|serve -seed N -seconds S -trace 0|1
//
// crawl is the paper's Figure-1 collection against the self-hosted serve
// stack, analyze is ensanalyze over a binary snapshot, and serve is
// seeded open-loop traffic against the stack. With -trace 0 the result
// holds the end-to-end metrics; with -trace 1 the workload runs once
// untraced and once traced, and the result holds the per-layer metrics
// derived from the traced pass's spans and counters. METRICS.md maps
// each per-layer metric to the end-to-end metric it should move.
//
// Every listener binds loopback :0, every goroutine and connection is
// closed before the command returns, and the whole run has a hard
// deadline.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"time"
)

// deadline bounds a whole run, set-up included.
const deadline = 170 * time.Second

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd is what a user of the system sees; printed with -trace 0.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"p50_ms", "ms"},
	{"max_rps", "req/s"},
	{"peak_rss_mb", "MiB"},
}

// routes are the serve stack's routes, in ensload's mix order.
var routes = []string{"subgraph", "etherscan", "opensea", "rpc", "healthz"}

// perLayer is the traced run's ledger; printed with -trace 1. A layer a
// workload never calls reads 0 there.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"world.generate_s", "s"},
		{"subgraph.build_index_s", "s"},
		{"subgraph.page_all_s", "s"},
		{"subgraph.page_all_calls", "count"},
		{"etherscan.txlist_calls", "count"},
		{"etherscan.txlist_busy_s", "s"},
		{"etherscan.txlist_p50_ms", "ms"},
		{"etherscan.txlist_p99_ms", "ms"},
		{"etherscan.labels_s", "s"},
		{"opensea.events_calls", "count"},
		{"opensea.events_busy_s", "s"},
		{"crawler.retry_attempts", "count"},
		{"crawler.retry_exhausted", "count"},
		{"crawler.breaker_rejections", "count"},
		{"crawler.budget_denied", "count"},
		{"crawler.first_try_ratio", "ratio"},
		{"dataset.stage.events_s", "s"},
		{"dataset.stage.subdomains_s", "s"},
		{"dataset.stage.labels_s", "s"},
		{"dataset.stage.transactions_s", "s"},
		{"dataset.stage.market_s", "s"},
		{"dataset.txs_outside_fetch_s", "s"},
		{"dataset.spool_snapshot_writes", "count"},
		{"dataset.save_s", "s"},
		{"dataset.saved_mb", "MiB"},
		{"dataset.load_s", "s"},
		{"dataset.reindex_s", "s"},
		{"dataset.decode_s", "s"},
		{"dataset.load_allocs", "count"},
		{"dataset.load_alloc_mb", "MiB"},
		{"core.new_analyzer_s", "s"},
		{"core.table1_s", "s"},
		{"core.losses_s", "s"},
		{"core.survival_s", "s"},
		{"core.hijack_s", "s"},
		{"core.monthly_s", "s"},
		{"core.delays_s", "s"},
		{"core.cdf_s", "s"},
		{"core.resale_s", "s"},
		{"report.render_s", "s"},
		{"report.bytes", "bytes"},
	}
	for _, r := range routes {
		defs = append(defs,
			metricDef{"serve." + r + ".server_p50_ms", "ms"},
			metricDef{"serve." + r + ".server_p99_ms", "ms"},
			metricDef{"serve." + r + ".requests", "count"})
	}
	return append(defs,
		metricDef{"serve.client_minus_server_p50_ms", "ms"},
		metricDef{"pagecache.hit_ratio", "ratio"},
		metricDef{"pagecache.evictions", "count"},
		metricDef{"overload.queue_wait_p99_ms", "ms"},
		metricDef{"overload.shed", "count"},
		metricDef{"loadgen.late_p99_ms", "ms"},
		metricDef{"loadgen.sent", "count"},
		metricDef{"loadgen.backlog_max", "count"},
		metricDef{"runtime.gc_cycles", "count"},
		metricDef{"runtime.gc_pause_ms", "ms"},
		metricDef{"runtime.heap_peak_mb", "MiB"},
		metricDef{"runtime.sched_latency_p99_ms", "ms"},
		metricDef{"trace.overhead_frac", "ratio"},
	)
}()

// options is one invocation. Zero sizes take the workload's defaults;
// tests shrink them.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	workdir  string
	domains  int // world size (0 = workload default)
	setups   int // set-up repetitions; setup_s is their median
	// onListen, when set, is told every address the run listens on.
	onListen func(addr string)
}

// pass is what one measured pass of a workload yields.
type pass struct {
	e2e       map[string]float64 // wall_s, p50_ms, max_rps
	layers    map[string]float64 // traced passes only
	primary   float64            // the figure trace.overhead_frac compares
	attempted int64
	failed    int64
	checkErr  error
	// output digests the checked output (crawl fingerprint, report
	// bytes, answered statuses and sampled bodies), so tests can show
	// tracing never changes it.
	output uint64
	spans  []span
}

// bench is a workload: set up once per repetition, then measured in
// passes. A pass closes every listener and connection it opens.
type bench interface {
	setup(ctx context.Context) (layers map[string]float64, err error)
	measure(ctx context.Context, seconds float64, traced bool) (*pass, error)
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	// The context deadline stops every loop that watches it; this stops
	// the process if something does not.
	time.AfterFunc(deadline+10*time.Second, func() {
		fmt.Fprintln(os.Stderr, "perfbench: hard deadline passed")
		os.Exit(1)
	})
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var traceFlag int
	fs.StringVar(&o.workload, "workload", "", "crawl, analyze or serve")
	fs.Int64Var(&o.seed, "seed", 1, "seed for every generated input")
	fs.Float64Var(&o.seconds, "seconds", 20, "length of the measured part")
	fs.IntVar(&traceFlag, "trace", 0, "1 prints the per-layer ledger instead of the end-to-end metrics")
	fs.StringVar(&o.workdir, "workdir", ".bench_build", "directory for run files and span dumps")
	fs.IntVar(&o.setups, "setups", 3, "set-up repetitions (setup_s is their median)")
	fs.IntVar(&o.domains, "domains", 0, "world size (0 = the workload's default)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintln(stderr, "perfbench: -trace must be 0 or 1")
		return 2
	}
	o.trace = traceFlag == 1

	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	res, err := execute(ctx, o, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

func newBench(o options, dir string, log io.Writer) (bench, error) {
	switch o.workload {
	case "crawl":
		return newCrawlBench(o, dir), nil
	case "analyze":
		return newAnalyzeBench(o, dir), nil
	case "serve":
		return newServeBench(o, log), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want crawl, analyze or serve)", o.workload)
}

// execute sets the workload up o.setups times, then measures it. A
// failed output check yields a result with correct=false and no
// metrics; any other failure is an error.
func execute(ctx context.Context, o options, stderr io.Writer) (*result, error) {
	if o.seconds <= 0 {
		return nil, errors.New("-seconds must be positive")
	}
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(o.workdir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	b, err := newBench(o, dir, stderr)
	if err != nil {
		return nil, err
	}

	var setupTimes []float64
	setupLayers := map[string][]float64{}
	for i := 0; i < max(o.setups, 1); i++ {
		t0 := time.Now()
		layers, err := b.setup(ctx)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
		for k, v := range layers {
			setupLayers[k] = append(setupLayers[k], v)
		}
	}
	// Drop what set-up left behind, so peak_rss_mb is the measured
	// part's own peak.
	runtime.GC()
	debug.FreeOSMemory()
	if err := resetPeakRSS(); err != nil {
		return nil, err
	}

	// A traced run measures an untraced and a traced half.
	seconds := o.seconds
	if o.trace {
		seconds /= 2
	}
	measured, err := b.measure(ctx, seconds, false)
	if err != nil {
		return nil, err
	}
	res := &result{Attempted: measured.attempted, Failed: measured.failed, Metrics: map[string]metricValue{}}
	if measured.checkErr != nil {
		fmt.Fprintf(stderr, "perfbench: %s output check failed: %v\n", o.workload, measured.checkErr)
		return res, nil
	}
	defs, values := endToEnd, measured.e2e
	if !o.trace {
		values["setup_s"] = median(setupTimes)
		if values["peak_rss_mb"], err = peakRSSMiB(); err != nil {
			return nil, err
		}
	} else {
		rm := startRuntimeMeter()
		traced, err := b.measure(ctx, seconds, true)
		rt := rm.stop()
		if err != nil {
			return nil, err
		}
		res.Attempted += traced.attempted
		res.Failed += traced.failed
		if traced.checkErr != nil {
			fmt.Fprintf(stderr, "perfbench: traced %s output check failed: %v\n", o.workload, traced.checkErr)
			return res, nil
		}
		defs, values = perLayer, traced.layers
		for k, v := range setupLayers {
			values[k] = median(v)
		}
		for k, v := range rt {
			values[k] = v
		}
		values["trace.overhead_frac"] = traced.primary/measured.primary - 1
		writeLedger(stderr, traced.spans)
		if err := dumpSpans(filepath.Join(o.workdir, "spans", o.workload+"-seed"+strconv.FormatInt(o.seed, 10)+".jsonl"), traced.spans); err != nil {
			return nil, err
		}
	}
	res.Correct = true
	for _, d := range defs {
		res.Metrics[d.name] = metricValue{Value: values[d.name], Unit: d.unit}
	}
	return res, nil
}

// median returns the middle value (mean of the two middle values for an
// even count); 0 for none.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile returns the q-quantile of v by the nearest-rank rule; 0 for
// none.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	i := int(q*float64(len(s))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}
