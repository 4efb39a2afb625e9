package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"time"

	"repro/internal/bind"
	"repro/internal/core"
	"repro/internal/liberty"
	"repro/internal/shard"
	"repro/internal/units"
)

const fixpointWhy = "warm noise-delay fixpoint on a fixed 8.4k-net fabric; unit of work = local 3-round fixpoint + same via shard.Run (2 workers, 4 shards) + 4 incremental what-ifs"

// setupRepeats is how often fixpoint_fabric repeats its set-up; setup_s
// is the median.
const setupRepeats = 9

// shardOps are the shard.Worker operations the benchmark's wrapper times.
var shardOps = []string{shard.OpInit, shard.OpEval, shard.OpRound, shard.OpDelay, shard.OpCollect}

// runFixpoint times cycles of three operations on one loaded fabric: the
// local fixpoint, the same fixpoint through shard.Run, and a batch of
// incremental what-if re-analyses. The unit of work is one cycle.
func runFixpoint(ctx context.Context, cfg *config) (*outcome, error) {
	o := &outcome{why: fixpointWhy}
	if err := generate(ctx, cfg); err != nil {
		return nil, err
	}
	rec := newTracer(cfg.trace)
	var (
		b    *bind.Design
		opts core.Options
		sess *core.Session
	)
	for i := 0; i < setupRepeats; i++ {
		runtime.GC()
		start := time.Now()
		var err error
		if b, opts, err = loadFabric(ctx, rec, cfg.dir); err != nil {
			return nil, err
		}
		if err := rec.do(ctx, "core.session_new", func(ctx context.Context) (err error) {
			sess, err = core.NewSession(ctx, b, opts)
			return err
		}); err != nil {
			return nil, err
		}
		o.setup = append(o.setup, time.Since(start).Seconds())
	}

	// What-if padding: each call pads the next few nets of a seeded
	// permutation by a seeded 1-5 ps. Every net is padded at most once per
	// session, so every call grows the padding and so does real work.
	nets := make([]string, 0, len(sess.Noise().Nets))
	for n := range sess.Noise().Nets {
		nets = append(nets, n)
	}
	sort.Strings(nets)
	rng := rand.New(rand.NewSource(cfg.seed))
	rng.Shuffle(len(nets), func(i, j int) { nets[i], nets[j] = nets[j], nets[i] })
	next := 0

	var iterS, shardS, whatifS samples
	var changed, shardRounds, rss samples
	var reassigns int
	// Only scalars outlive a cycle, so no result adds to the next cycle's
	// peak RSS.
	var rounds, violations int
	var stats core.Stats
	rw := startRuntimeWindow()
	off := newTracer(false)
	var traced, untraced samples
	work, err := timedLoop(ctx, cfg.seconds, 2, func(i int) (time.Duration, error) {
		// A traced run alternates traced and untraced cycles, so the two
		// medians give the tracing overhead.
		tr := off
		if cfg.trace && i%2 == 0 {
			tr = rec
		}
		resetPeakRSS()
		defer func() { rss = append(rss, peakRSSMB(os.Getpid())) }()
		var cycle time.Duration
		o.attempted++
		start := time.Now()
		var local *core.IterativeResult
		if err := tr.do(tr.op(ctx), "core.iterate", func(ctx context.Context) (err error) {
			local, err = core.AnalyzeIterativeCtx(ctx, b, opts, cfg.iterRounds)
			return err
		}); err != nil {
			o.failed++
			return 0, err
		}
		d := time.Since(start)
		iterS = append(iterS, d.Seconds())
		cycle += d
		rounds, stats, violations = local.Rounds, local.Noise.Stats, len(local.Noise.Violations)
		// Keep the local outcome serialized, not as objects, while the
		// sharded run builds its engines.
		localRep, err := newFixpointReport(local.Rounds, local.Converged, local.Noise, local.Delay)
		if err != nil {
			return 0, err
		}
		local = nil

		o.attempted++
		workers := make([]shard.Worker, cfg.shardWorkers)
		for w := range workers {
			workers[w] = &timedWorker{inner: shard.NewInProc(fmt.Sprintf("w%d", w),
				func(context.Context) (*bind.Design, error) { return b, nil }, opts), tr: tr}
		}
		var out *shard.Outcome
		start = time.Now()
		if err := tr.do(tr.op(ctx), "shard.run", func(ctx context.Context) (err error) {
			out, err = shard.Run(ctx, shard.Config{
				B: b, Opts: opts, Workers: workers, Shards: cfg.shards,
				Seed: fabricSeed, Token: fmt.Sprintf("cycle-%d", i), MaxRounds: cfg.iterRounds,
			})
			return err
		}); err != nil {
			o.failed++
			return 0, err
		}
		d = time.Since(start)
		shardS = append(shardS, d.Seconds())
		cycle += d
		if err := checkSharded(localRep, out); err != nil {
			o.mismatch(err)
		}
		shardRounds = append(shardRounds, float64(out.Rounds))
		reassigns += out.Reassigns

		for k := 0; k < cfg.whatifCalls; k++ {
			if next+cfg.whatifNets > len(nets) {
				// Every net is padded: start a fresh session, untimed.
				var err error
				if sess, err = core.NewSession(ctx, b, opts); err != nil {
					return 0, err
				}
				next = 0
			}
			pad := make(map[string]float64, cfg.whatifNets)
			for _, n := range nets[next : next+cfg.whatifNets] {
				pad[n] = (1 + 4*rng.Float64()) * units.Pico
			}
			next += cfg.whatifNets
			o.attempted++
			var n int
			start = time.Now()
			if err := tr.do(tr.op(ctx), "core.reanalyze", func(ctx context.Context) (err error) {
				_, n, err = sess.Reanalyze(ctx, pad)
				return err
			}); err != nil {
				o.failed++
				return 0, err
			}
			d = time.Since(start)
			whatifS = append(whatifS, d.Seconds())
			changed = append(changed, float64(n))
			cycle += d
		}
		if tr.on {
			traced = append(traced, cycle.Seconds())
		} else {
			untraced = append(untraced, cycle.Seconds())
		}
		return cycle, nil
	})
	rw.close(o)
	if err != nil {
		return nil, err
	}
	// Once per run, outside the window: the incremental state must equal a
	// from-scratch analysis under the same padding.
	o.attempted++
	if err := checkWhatIf(ctx, b, opts, sess); err != nil {
		o.mismatch(err)
	}
	o.peakRSSMB = rss.median()
	for _, s := range work {
		o.work = append(o.work, s*1e3)
	}
	o.workMs = o.work.median()
	o.throughput = float64(len(work)) / work.sum()
	o.add("iterate_s", iterS.median(), "s")
	o.add("iterate_sharded_s", shardS.median(), "s")
	o.addTiming("whatif", whatifS)
	o.add("fixpoint_cycles", float64(len(work)), "count")
	o.add("nets", float64(b.Net.NumNets()), "count")
	if !cfg.trace {
		return o, nil
	}
	o.finishLayers(rec)
	o.layers["trace.overhead_ms"] = (traced.median() - untraced.median()) * 1e3
	o.layers["core.iterate_s"] = rec.layer("core.iterate").secs.median()
	o.layers["core.iterate.rounds"] = float64(rounds)
	o.layers["core.iterate.round_s"] = o.layers["core.iterate_s"] / float64(rounds)
	o.layers["core.session_new_s"] = rec.layer("core.session_new").secs.median()
	o.layers["core.reanalyze_s"] = rec.layer("core.reanalyze").secs.median()
	o.layers["core.reanalyze.changed_nets"] = changed.median()
	runs := float64(rec.layer("shard.run").calls)
	o.layers["shard.run_s"] = rec.layer("shard.run").secs.median()
	o.layers["shard.rounds"] = shardRounds.median()
	o.layers["shard.reassigns"] = float64(reassigns) / float64(len(shardRounds))
	for _, op := range shardOps {
		ls := rec.layer("shard.op." + op)
		o.layers["shard.op."+op+".calls"] = float64(ls.calls) / runs
		o.layers["shard.op."+op+"_s"] = ls.secs.sum() / runs
	}
	o.layers["shard.overhead_base_s"] = o.layers["core.iterate_s"]
	o.layers["shard.overhead_ratio"] = o.layers["shard.run_s"] / o.layers["core.iterate_s"]
	for _, stage := range []string{"vlog.parse", "spef.parse", "sta.read_timing", "bind.new"} {
		o.layers[stage+"_s"] = rec.layer(stage).secs.median()
	}
	nf := float64(b.Net.NumNets())
	o.layers["vlog.parse_allocs_per_net"] = rec.layer("vlog.parse").allocs.median() / nf
	o.layers["spef.parse_allocs_per_net"] = rec.layer("spef.parse").allocs.median() / nf
	o.layers["bind.allocs_per_net"] = rec.layer("bind.new").allocs.median() / nf
	st := stats
	o.layers["core.victims"] = float64(st.Victims)
	o.layers["core.aggressor_pairs"] = float64(st.AggressorPairs)
	o.layers["core.propagated"] = float64(st.Propagated)
	o.layers["core.iterations"] = float64(st.Iterations)
	o.layers["core.violations"] = float64(violations)
	return o, o.writeTrace(cfg, rec)
}

// loadFabric parses the fabric's files and binds it, as sna does.
func loadFabric(ctx context.Context, tr *tracer, dir string) (*bind.Design, core.Options, error) {
	lib := liberty.Generic()
	in, err := parseInputs(ctx, tr, dir, lib)
	if err != nil {
		return nil, core.Options{}, err
	}
	var b *bind.Design
	if err := tr.do(ctx, "bind.new", func(context.Context) (err error) {
		b, err = bind.New(in.design, lib, in.paras)
		return err
	}); err != nil {
		return nil, core.Options{}, err
	}
	return b, signoffOptions(in.timing), nil
}

// timedWorker times every operation a shard coordinator sends a worker.
type timedWorker struct {
	inner shard.Worker
	tr    *tracer
}

func (w *timedWorker) Name() string                   { return w.inner.Name() }
func (w *timedWorker) Ping(ctx context.Context) error { return w.inner.Ping(ctx) }

func (w *timedWorker) Do(ctx context.Context, op string, req, resp any) error {
	return w.tr.do(ctx, "shard.op."+op, func(ctx context.Context) error {
		return w.inner.Do(ctx, op, req, resp)
	})
}
