package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/bind"
	"repro/internal/core"
	"repro/internal/liberty"
	"repro/internal/lint"
	"repro/internal/netlist"
	"repro/internal/report"
	"repro/internal/spef"
	"repro/internal/sta"
	"repro/internal/vlog"
)

const signoffWhy = "cold sign-off of a seed-inert 100k-net coupled bus: parse, lint, bind, STA, JSON report and delay dominate; unit of work = one sign-off pass from files"

// signoffStages are the sequential stage spans of one pass, in order.
var signoffStages = []string{
	"vlog.parse", "spef.parse", "sta.read_timing", "lint.run",
	"bind.new", "core.analyze", "report.write_json", "core.delay",
}

// signoffOptions are the options `sna -delay -json` analyses with, plus
// one engine worker per CPU.
func signoffOptions(inputs map[string]*sta.Timing) core.Options {
	return core.Options{
		Mode:     core.ModeNoiseWindows,
		Workers:  runtime.NumCPU(),
		FailSoft: true,
		STA:      sta.Options{InputTiming: inputs},
	}
}

// Set-up is loading the cell library: libraryWarmups untimed loads, then
// libraryLoads timed ones before the window and as many again before each
// pass, and setup_s is the median. One load takes about half a
// millisecond, and on a shared host its time drifts by 20% or more from
// one second to the next; loads spread over the run follow that drift
// less than loads taken at once.
const (
	libraryLoads   = 100
	libraryWarmups = 10
)

// runSignoff times whole sign-off passes: files on disk to the JSON report
// plus the delay result, as `sna -delay -json` runs them. The unit of work
// is one pass.
func runSignoff(ctx context.Context, cfg *config) (*outcome, error) {
	o := &outcome{why: signoffWhy}
	if err := generate(ctx, cfg); err != nil {
		return nil, err
	}
	ref, err := os.ReadFile(filepath.Join(cfg.dir, fileRef))
	if err != nil {
		return nil, err
	}
	var lib *liberty.Library
	loadLibs := func(n int, timed bool) (err error) {
		for i := 0; i < n && err == nil; i++ {
			start := time.Now()
			lib, err = loadLibrary(filepath.Join(cfg.dir, fileLib))
			if timed {
				o.setup = append(o.setup, time.Since(start).Seconds())
			}
		}
		return err
	}
	runtime.GC()
	if err := loadLibs(libraryWarmups, false); err != nil {
		return nil, err
	}
	if err := loadLibs(libraryLoads, true); err != nil {
		return nil, err
	}

	off, tr := newTracer(false), newTracer(cfg.trace)
	var traced, untraced, rss samples
	// last keeps only scalars: holding a pass's design into the next pass
	// would add it to that pass's peak RSS.
	var last passFigures
	rw := startRuntimeWindow()
	_, err = timedLoop(ctx, cfg.seconds, 2, func(i int) (time.Duration, error) {
		// A traced run alternates traced and untraced passes, so the two
		// medians give the tracing overhead.
		t := off
		if cfg.trace && i%2 == 0 {
			t = tr
		}
		// The loads follow the collection resetPeakRSS runs, so no
		// collection of the last pass's garbage runs beside them.
		resetPeakRSS()
		if err := loadLibs(libraryLoads, true); err != nil {
			return 0, err
		}
		o.attempted++
		start := time.Now()
		p, err := runSignoffPass(t.op(ctx), t, cfg.dir, lib)
		d := time.Since(start)
		rss = append(rss, peakRSSMB(os.Getpid()))
		// Deleting the report drops its dirty pages, so their writeback
		// does not run into the next pass.
		os.Remove(filepath.Join(cfg.dir, fileReport))
		if err != nil {
			o.failed++
			return d, err
		}
		if err := checkDigest(fmt.Sprintf("pass %d", i), digestCore(p.res, p.dres), string(ref)); err != nil {
			o.mismatch(err)
		}
		last = passFigures{nets: p.nets, jsonBytes: p.jsonBytes, stats: p.res.Stats, violations: len(p.res.Violations)}
		if !t.on {
			untraced = append(untraced, d.Seconds())
			return d, nil
		}
		traced = append(traced, d.Seconds())
		// The STA probe: core.AnalyzeCtx runs STA inside, so it is timed
		// standalone on the pass's bound design and kept out of stage sums.
		return d, t.do(t.op(ctx), "sta.run", func(ctx context.Context) error {
			_, err := sta.RunCtx(ctx, p.b, signoffOptions(p.inputs).STA)
			return err
		})
	})
	rw.close(o)
	if err != nil {
		return nil, err
	}
	o.peakRSSMB = rss.median()
	for _, s := range untraced {
		o.work = append(o.work, s*1e3)
	}
	o.workMs = o.work.median()
	o.throughput = float64(len(untraced)) / untraced.sum()
	o.add("signoff_s", untraced.median(), "s")
	o.add("signoff_passes", float64(len(untraced)), "count")
	o.add("nets", float64(last.nets), "count")
	if !cfg.trace {
		return o, nil
	}

	o.finishLayers(tr)
	nets := float64(last.nets)
	perNet := func(layer string) float64 { return tr.layer(layer).allocs.median() / nets }
	for _, stage := range signoffStages {
		o.layers[stage+"_s"] = tr.layer(stage).secs.median()
	}
	o.layers["sta.run_s"] = tr.layer("sta.run").secs.median()
	o.layers["vlog.parse_allocs_per_net"] = perNet("vlog.parse")
	o.layers["spef.parse_allocs_per_net"] = perNet("spef.parse")
	o.layers["bind.allocs_per_net"] = perNet("bind.new")
	o.layers["core.analyze_allocs_per_net"] = perNet("core.analyze")
	o.layers["report.json_bytes"] = float64(last.jsonBytes)
	st := last.stats
	o.layers["core.victims"] = float64(st.Victims)
	o.layers["core.aggressor_pairs"] = float64(st.AggressorPairs)
	o.layers["core.propagated"] = float64(st.Propagated)
	o.layers["core.iterations"] = float64(st.Iterations)
	o.layers["core.violations"] = float64(last.violations)
	o.layers["trace.overhead_ms"] = (traced.median() - untraced.median()) * 1e3
	// Stage coverage: how much of each traced pass the sequential stage
	// spans account for.
	var cover samples
	for _, pass := range tr.named("signoff.pass") {
		var sum time.Duration
		for _, c := range tr.children(pass.id) {
			sum += c.end - c.start
		}
		cover = append(cover, float64(sum)/float64(pass.end-pass.start))
	}
	o.layers["trace.signoff_coverage"] = cover.median()
	return o, o.writeTrace(cfg, tr)
}

// passFigures are the scalars a run keeps from its last pass.
type passFigures struct {
	nets, violations int
	jsonBytes        int64
	stats            core.Stats
}

// signoffPass is what one pass produced.
type signoffPass struct {
	b         *bind.Design
	inputs    map[string]*sta.Timing
	res       *core.Result
	dres      *core.DelayResult
	nets      int
	jsonBytes int64
}

// runSignoffPass is one sign-off from the files in dir, each stage a span
// under one "signoff.pass" span.
func runSignoffPass(ctx context.Context, tr *tracer, dir string, lib *liberty.Library) (*signoffPass, error) {
	p := &signoffPass{}
	err := tr.do(ctx, "signoff.pass", func(ctx context.Context) error {
		in, err := parseInputs(ctx, tr, dir, lib)
		if err != nil {
			return err
		}
		p.nets, p.inputs = in.design.NumNets(), in.timing
		if err := tr.do(ctx, "lint.run", func(context.Context) error {
			lres := lint.Run(&lint.Input{Design: in.design, Lib: lib, Paras: in.paras, Inputs: in.timing}, lint.Config{})
			if lres.HasErrors() {
				return fmt.Errorf("design rejected by lint")
			}
			return nil
		}); err != nil {
			return err
		}
		if err := tr.do(ctx, "bind.new", func(context.Context) (err error) {
			p.b, err = bind.New(in.design, lib, in.paras)
			return err
		}); err != nil {
			return err
		}
		opts := signoffOptions(p.inputs)
		if err := tr.do(ctx, "core.analyze", func(ctx context.Context) (err error) {
			p.res, err = core.AnalyzeCtx(ctx, p.b, opts)
			return err
		}); err != nil {
			return err
		}
		if err := tr.do(ctx, "report.write_json", func(context.Context) error {
			f, err := os.Create(filepath.Join(dir, fileReport))
			if err != nil {
				return err
			}
			if err := report.WriteJSON(f, p.res); err != nil {
				f.Close()
				return err
			}
			if p.jsonBytes, err = f.Seek(0, 1); err != nil {
				f.Close()
				return err
			}
			return f.Close()
		}); err != nil {
			return err
		}
		return tr.do(ctx, "core.delay", func(ctx context.Context) (err error) {
			p.dres, err = core.AnalyzeDelayCtx(ctx, p.b, opts)
			return err
		})
	})
	return p, err
}

// inputs are a design's parsed files.
type inputs struct {
	design *netlist.Design
	paras  *spef.Parasitics
	timing map[string]*sta.Timing
}

// parseInputs parses the .v/.spef/.win files in dir, one span per parser.
func parseInputs(ctx context.Context, tr *tracer, dir string, lib *liberty.Library) (*inputs, error) {
	in := &inputs{}
	if err := tr.do(ctx, "vlog.parse", func(context.Context) error {
		return readFile(filepath.Join(dir, fileVerilog), func(f *os.File) (err error) {
			in.design, err = vlog.Parse(f, lib)
			return err
		})
	}); err != nil {
		return nil, err
	}
	if err := tr.do(ctx, "spef.parse", func(context.Context) error {
		return readFile(filepath.Join(dir, fileSPEF), func(f *os.File) (err error) {
			in.paras, err = spef.Parse(f)
			return err
		})
	}); err != nil {
		return nil, err
	}
	if err := tr.do(ctx, "sta.read_timing", func(context.Context) error {
		return readFile(filepath.Join(dir, fileTiming), func(f *os.File) (err error) {
			in.timing, err = sta.ParseInputTiming(f)
			return err
		})
	}); err != nil {
		return nil, err
	}
	return in, nil
}

func readFile(path string, fn func(*os.File) error) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return fn(f)
}

func loadLibrary(path string) (lib *liberty.Library, err error) {
	err = readFile(path, func(f *os.File) error {
		lib, err = liberty.Parse(f)
		return err
	})
	return lib, err
}
