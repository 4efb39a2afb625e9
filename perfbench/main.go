// Command perfbench is the repository's benchmark. It runs one workload
// per process and prints one JSON result object as the last line of its
// standard output:
//
//	perfbench -workload signoff_bus|fixpoint_fabric|serve_mixed -seed N -seconds S -trace 0|1
//
// Every layer is measured from outside, by timing calls into its public
// functions. With -trace 0 the result carries the end-to-end metrics;
// with -trace 1 the calls run inside recorded spans and the result
// carries the per-layer metrics, and the spans are written as Chrome
// trace-event JSON. The line before the result is the full report: host
// and build, seed, and every workload-specific figure by name and unit.
//
//	perfbench compare OLD.json NEW.json
//
// prints per-metric ratios of two saved reports, and refuses reports from
// different hosts.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one run's settings.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	// dir holds the run's generated inputs and outputs.
	dir string
	// outDir receives the saved report and, when tracing, the trace.
	outDir string
	snad   string
	// self is the benchmark's own binary, run as `self prep` to generate
	// inputs in a separate process.
	self string
	sizes
}

// sizes are the workload dimensions; tests shrink them.
type sizes struct {
	busNets                 int
	fabricWidth, fabricLevs int
	iterRounds              int
	shardWorkers, shards    int
	whatifCalls, whatifNets int
	serveBits               int
	// rates are the serve_mixed offered rates, ascending; the first is
	// the nominal rate. Each rate is more than 25% below the next, the
	// bound on throughput_per_s, so falling one rung is a regression.
	rates []float64
	// tailLimit is the serve_mixed tail-latency limit behind serve_max_rps.
	tailLimit time.Duration
}

var fullSizes = sizes{
	busNets:     100_000,
	fabricWidth: 200, fabricLevs: 40,
	iterRounds:   3,
	shardWorkers: 2, shards: 4,
	whatifCalls: 4, whatifNets: 8,
	serveBits: 8,
	rates:     []float64{200, 280, 400},
	tailLimit: 200 * time.Millisecond,
}

var workloads = map[string]func(context.Context, *config) (*outcome, error){
	"signoff_bus":     runSignoff,
	"fixpoint_fabric": runFixpoint,
	"serve_mixed":     runServe,
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "prep" {
		return runPrep(args[1:], stderr)
	}
	if len(args) > 0 && args[0] == "compare" {
		if len(args) != 3 {
			fmt.Fprintln(stderr, "usage: perfbench compare OLD.json NEW.json")
			return 2
		}
		out, err := compareReports(args[1], args[2])
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		fmt.Fprint(stdout, out)
		return 0
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		wl      = fs.String("workload", "", "signoff_bus | fixpoint_fabric | serve_mixed")
		seed    = fs.Int64("seed", 1, "workload seed")
		seconds = fs.Float64("seconds", 20, "length of the timed window")
		trace   = fs.Int("trace", 0, "1 records spans and reports per-layer metrics")
		snad    = fs.String("snad", "", "snad binary (serve_mixed)")
		outDir  = fs.String("out-dir", ".bench_build/perfbench", "directory for saved reports and traces")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, ok := workloads[*wl]; !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload (one of %v), -seconds > 0 and -trace 0|1\n", workloadNames())
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(*outDir, *wl+"-")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	cfg := &config{
		workload: *wl, seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)),
		trace: *trace == 1, dir: dir, outDir: *outDir, snad: *snad, self: self, sizes: fullSizes,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := emit(ctx, cfg, stdout, stderr); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *wl, err)
		return 1
	}
	return 0
}

// emit runs the configured workload and prints its report line and its
// result line, saving the report under cfg.outDir.
func emit(ctx context.Context, cfg *config, stdout, stderr io.Writer) error {
	out, err := workloads[cfg.workload](ctx, cfg)
	if err != nil {
		return err
	}
	line, err := json.Marshal(out.report(cfg))
	if err != nil {
		return err
	}
	for _, m := range out.mismatches {
		fmt.Fprintf(stderr, "perfbench: %s: output check failed: %s\n", cfg.workload, m)
	}
	name := fmt.Sprintf("result-%s-seed%d-trace%d.json", cfg.workload, cfg.seed, b01(cfg.trace))
	if err := os.WriteFile(filepath.Join(cfg.outDir, name), line, 0o644); err != nil {
		return err
	}
	res, err := json.Marshal(out.result(cfg.trace))
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n%s\n", line, res)
	return err
}

func b01(v bool) int {
	if v {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// metricDef names one metric of the result object.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of a -trace 0 result, on every workload. Each
// workload defines its unit of work in its why line.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"work_ms", "ms"},
	{"throughput_per_s", "1/s"},
}

// perLayer are the metrics of a -trace 1 result, on every workload; a
// layer a workload does not call reads 0. Durations ending in _s are the
// median per call unless the name says otherwise; server.* figures are
// deltas of snad's /metrics across the load window.
var perLayer = []metricDef{
	{"vlog.parse_s", "s"}, {"vlog.parse_allocs_per_net", "allocs/net"},
	{"spef.parse_s", "s"}, {"spef.parse_allocs_per_net", "allocs/net"},
	{"sta.read_timing_s", "s"},
	{"bind.new_s", "s"}, {"bind.allocs_per_net", "allocs/net"},
	{"lint.run_s", "s"},
	{"report.write_json_s", "s"}, {"report.json_bytes", "bytes"},
	{"sta.run_s", "s"},
	{"core.analyze_s", "s"}, {"core.analyze_allocs_per_net", "allocs/net"},
	{"core.delay_s", "s"},
	{"core.victims", "count"}, {"core.aggressor_pairs", "count"}, {"core.propagated", "count"},
	{"core.iterations", "count"}, {"core.violations", "count"},
	{"core.iterate_s", "s"}, {"core.iterate.rounds", "count"}, {"core.iterate.round_s", "s"},
	{"core.session_new_s", "s"},
	{"core.reanalyze_s", "s"}, {"core.reanalyze.changed_nets", "count"},
	{"shard.run_s", "s"}, {"shard.rounds", "count"}, {"shard.reassigns", "count"},
	{"shard.op.init.calls", "count"}, {"shard.op.init_s", "s"},
	{"shard.op.eval.calls", "count"}, {"shard.op.eval_s", "s"},
	{"shard.op.round.calls", "count"}, {"shard.op.round_s", "s"},
	{"shard.op.delay.calls", "count"}, {"shard.op.delay_s", "s"},
	{"shard.op.collect.calls", "count"}, {"shard.op.collect_s", "s"},
	{"shard.overhead_ratio", "ratio"}, {"shard.overhead_base_s", "s"},
	{"client.analyze_p50_ms", "ms"}, {"client.analyze_tail_ms", "ms"},
	{"client.report_p50_ms", "ms"}, {"client.report_tail_ms", "ms"},
	{"client.reanalyze_p50_ms", "ms"}, {"client.reanalyze_tail_ms", "ms"},
	{"client.create_p50_ms", "ms"}, {"client.create_tail_ms", "ms"},
	{"client.delete_p50_ms", "ms"}, {"client.delete_tail_ms", "ms"},
	{"client.job_submit_p50_ms", "ms"}, {"client.job_submit_tail_ms", "ms"},
	{"server.admission_wait_s", "s"}, {"server.sheds", "count"}, {"server.analysis_s", "s"},
	{"server.cache_hits", "count"}, {"server.cache_misses", "count"},
	{"server.cache_hit_ratio", "ratio"}, {"server.cache_lookups", "count"},
	{"server.cache_evictions", "count"},
	{"wal.fsync_s", "s"}, {"wal.fsync_count", "count"},
	{"jobs.run_s", "s"}, {"jobs.done", "count"}, {"jobs.failed", "count"},
	{"intern.bytes_growth", "bytes"}, {"intern.symbols_growth", "count"},
	{"go.gc_cycles", "count"}, {"go.gc_pause_s", "s"}, {"go.alloc_bytes", "bytes"},
	{"loadgen.late_ms", "ms"},
	{"layers.calls", "count"}, {"layers.failures", "count"},
	{"trace.overhead_ms", "ms"}, {"trace.signoff_coverage", "ratio"},
}

// outcome is what a workload measured.
type outcome struct {
	why                  string
	attempted, failed    int
	mismatches           []string
	setup                samples // seconds, one per repetition
	peakRSSMB            float64
	work                 samples // ms per unit of work, untraced
	workMs               float64 // the gated figure of work
	throughput           float64
	details              []detail
	layers               map[string]float64
	traceFile            string
	gcCycles, gcPauseSec float64
	allocBytes           float64
}

// detail is one named figure of the full report.
type detail struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// N is the sample count behind a timing; Q the percentile of a tail.
	N int     `json:"n,omitempty"`
	Q float64 `json:"q,omitempty"`
}

// addTiming records the median of s, and its highest percentile with ten
// samples beyond it, as name_p50_ms and name_tail_ms. s is in seconds.
func (o *outcome) addTiming(name string, s samples) {
	o.details = append(o.details, detail{Name: name + "_p50_ms", Value: s.median() * 1e3, Unit: "ms", N: len(s)})
	if q, v, ok := s.tail(); ok {
		o.details = append(o.details, detail{Name: name + "_tail_ms", Value: v * 1e3, Unit: "ms", N: len(s), Q: q})
	}
}

func (o *outcome) add(name string, v float64, unit string) {
	o.details = append(o.details, detail{Name: name, Value: v, Unit: unit})
}

func (o *outcome) mismatch(err error) {
	o.failed++
	o.mismatches = append(o.mismatches, err.Error())
}

// runReport is the full per-run document, printed before the result line
// and saved under the output directory.
type runReport struct {
	Workload string   `json:"workload"`
	Why      string   `json:"why"`
	Seed     int64    `json:"seed"`
	Seconds  float64  `json:"seconds"`
	Trace    bool     `json:"trace"`
	Host     host     `json:"host"`
	Metrics  []detail `json:"metrics"`
	Checks   []string `json:"check_failures"`
	TraceOut string   `json:"trace_file,omitempty"`
}

func (o *outcome) report(cfg *config) runReport {
	r := runReport{
		Workload: cfg.workload, Why: o.why, Seed: cfg.seed, Seconds: cfg.seconds.Seconds(),
		Trace: cfg.trace, Host: thisHost(), Checks: o.mismatches, TraceOut: o.traceFile,
	}
	if r.Checks == nil {
		r.Checks = []string{}
	}
	r.Metrics = append(r.Metrics,
		detail{Name: "setup_s", Value: o.setup.median(), Unit: "s", N: len(o.setup)},
		detail{Name: "peak_rss_mb", Value: o.peakRSSMB, Unit: "MB"},
		detail{Name: "work_ms", Value: o.workMs, Unit: "ms", N: len(o.work)},
		detail{Name: "throughput_per_s", Value: o.throughput, Unit: "1/s"},
	)
	r.Metrics = append(r.Metrics, o.details...)
	for i := range r.Metrics {
		r.Metrics[i].Value = finite(r.Metrics[i].Value)
	}
	if cfg.trace {
		for _, m := range perLayer {
			r.Metrics = append(r.Metrics, detail{Name: m.name, Value: o.layers[m.name], Unit: m.unit})
		}
	}
	return r
}

type resultMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]resultMetric `json:"metrics"`
}

// result is the last output line: the end-to-end metrics untraced, the
// per-layer metrics traced.
func (o *outcome) result(traced bool) result {
	r := result{
		Correct: len(o.mismatches) == 0 && o.failed == 0, Attempted: o.attempted, Failed: o.failed,
		Metrics: map[string]resultMetric{},
	}
	if traced {
		for _, m := range perLayer {
			r.Metrics[m.name] = resultMetric{Value: finite(o.layers[m.name]), Unit: m.unit}
		}
		return r
	}
	vals := map[string]float64{
		"setup_s": o.setup.median(), "peak_rss_mb": o.peakRSSMB,
		"work_ms": o.workMs, "throughput_per_s": o.throughput,
	}
	for _, m := range endToEnd {
		r.Metrics[m.name] = resultMetric{Value: finite(vals[m.name]), Unit: m.unit}
	}
	return r
}

// runtimeWindow snapshots the benchmark process's Go runtime counters
// and the host's CPU time; close fills the outcome's go.* figures with
// the deltas since, and records the share of CPU time the hypervisor
// stole, so a slow run on a busy host can be told from a regression.
type runtimeWindow struct {
	ms  runtime.MemStats
	cpu [2]float64
}

func startRuntimeWindow() *runtimeWindow {
	w := &runtimeWindow{cpu: hostCPU()}
	runtime.ReadMemStats(&w.ms)
	return w
}

func (w *runtimeWindow) close(o *outcome) {
	var now runtime.MemStats
	runtime.ReadMemStats(&now)
	o.gcCycles = float64(now.NumGC - w.ms.NumGC)
	o.gcPauseSec = float64(now.PauseTotalNs-w.ms.PauseTotalNs) / 1e9
	o.allocBytes = float64(now.TotalAlloc - w.ms.TotalAlloc)
	cpu := hostCPU()
	if total := cpu[0] - w.cpu[0]; total > 0 {
		o.add("host.steal_pct", 100*(cpu[1]-w.cpu[1])/total, "%")
	}
}

// hostCPU returns the host's total and stolen CPU ticks from the first
// line of /proc/stat; zeros where it is unavailable.
func hostCPU() [2]float64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return [2]float64{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	var out [2]float64
	for i, f := range fields[1:] {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return [2]float64{}
		}
		// user nice system idle iowait irq softirq steal guest guest_nice:
		// guest time is already counted in user.
		if i < 8 {
			out[0] += v
		}
		if i == 7 {
			out[1] = v
		}
	}
	return out
}

// finishLayers fills the per-layer metrics every workload shares.
func (o *outcome) finishLayers(tr *tracer) {
	if o.layers == nil {
		o.layers = map[string]float64{}
	}
	o.layers["go.gc_cycles"] = o.gcCycles
	o.layers["go.gc_pause_s"] = o.gcPauseSec
	o.layers["go.alloc_bytes"] = o.allocBytes
	tr.mu.Lock()
	defer tr.mu.Unlock()
	for _, ls := range tr.layers {
		o.layers["layers.calls"] += float64(ls.calls)
		o.layers["layers.failures"] += float64(ls.failures)
	}
}

// writeTrace saves the spans next to the reports.
func (o *outcome) writeTrace(cfg *config, tr *tracer) error {
	if !cfg.trace {
		return nil
	}
	path := filepath.Join(cfg.outDir, fmt.Sprintf("trace-%s-seed%d.json", cfg.workload, cfg.seed))
	if err := tr.writeChrome(path); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	o.traceFile = path
	return nil
}

// timedLoop runs op until the window is spent: it starts another
// operation only while the median operation so far still fits, so a run
// overshoots its window by at most about one operation. It always runs
// at least min operations. Each op returns its own measured duration,
// which excludes the output check it may run after the timed part.
func timedLoop(ctx context.Context, window time.Duration, min int, op func(i int) (time.Duration, error)) (samples, error) {
	var durs samples
	start := time.Now()
	for i := 0; ; i++ {
		if err := ctx.Err(); err != nil {
			return durs, err
		}
		if i >= min {
			med := time.Duration(durs.median() * float64(time.Second))
			if time.Since(start)+med > window {
				return durs, nil
			}
		}
		d, err := op(i)
		if err != nil {
			return durs, err
		}
		durs = append(durs, d.Seconds())
	}
}

// finite keeps a figure encodable: a latency of a failed request is
// +Inf, which JSON cannot carry, so it reads as the largest float.
func finite(v float64) float64 {
	switch {
	case math.IsNaN(v):
		return 0
	case math.IsInf(v, 1):
		return math.MaxFloat64
	case math.IsInf(v, -1):
		return -math.MaxFloat64
	}
	return v
}
