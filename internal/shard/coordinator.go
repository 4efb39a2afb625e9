package shard

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bind"
	"repro/internal/core"
)

// Config parameterizes one coordinated distributed analysis.
type Config struct {
	// B is the bound design. The coordinator uses it only to derive the
	// shard plan and the effective supply voltage; the analysis itself runs
	// on the workers.
	B *bind.Design
	// Opts are the analysis options, shared verbatim with every engine.
	// MaxIter, NoPropagation, Mode, and RoundBudget also steer the
	// coordinator's within-round fixpoint and its core.RoundLoop exactly
	// as they steer AnalyzeIterative.
	Opts core.Options
	// Workers are the execution backends. Shards are assigned round-robin
	// and reassigned to surviving workers when one is lost.
	Workers []Worker
	// Shards is the partition size (default: one per worker).
	Shards int
	// Seed steers the pseudo-random partition growth (deterministic per
	// seed).
	Seed int64
	// Token names the run; it routes requests on shared workers and keys
	// the checkpoint.
	Token string
	// Design is the design source shipped to remote workers in init
	// requests; in-process workers ignore it.
	Design *DesignSpec
	// MaxRounds bounds the outer noise–delay loop (default 8).
	MaxRounds int
	// Plan and Assignment override the derived schedule and partition
	// (tests); nil derives both from B, Shards, and Seed.
	Plan       *core.ShardPlan
	Assignment *Assignment
	// DispatchTimeout bounds each dispatch attempt (0 = only the run
	// context limits it).
	DispatchTimeout time.Duration
	// Attempts is how many times one dispatch is tried on a worker before
	// the worker is declared lost (default 2).
	Attempts int
	// Backoff is the base delay between attempts on the same worker,
	// growing linearly (0 = immediate retry).
	Backoff time.Duration
	// Checkpointer persists round state for crash resume (nil = off).
	Checkpointer Checkpointer
	// Logf receives coordinator progress and degradation logs (nil = quiet).
	Logf func(format string, args ...any)
}

// Outcome is the merged result of a distributed run. For a healthy run it
// is byte-identical (after report serialization) to AnalyzeIterative on
// the same design and options; under worker loss it is a sound
// conservative report with the loss recorded in Noise.Diags.
type Outcome struct {
	core.IterativeResult
	// Degraded reports any fail-soft degradation, including abandoned
	// shards (equivalent to len(Noise.Diags) > 0).
	Degraded bool
	// Resumed reports the run continued from a checkpoint.
	Resumed bool
	// Reassigns counts shard re-hostings (engine rebuilds on a new or the
	// same worker); AbandonedShards lists shards degraded to the full-rail
	// fallback because no worker could host them.
	Reassigns       int
	AbandonedShards []int
}

// errAbandoned marks a dispatch to a shard that was degraded to the
// full-rail fallback; the phase skips it and the run stays sound.
var errAbandoned = errors.New("shard: abandoned")

// run is the mutable state of one coordinated analysis.
type run struct {
	cfg       Config
	plan      *core.ShardPlan
	asn       *Assignment
	importers map[string][]int
	// present[s][w] reports shard s owning nets in wave w — waves without
	// owned nets are never dispatched to s.
	present [][]bool
	maxIter int
	frEvent core.Event
	frComb  core.Combined

	seq atomic.Int64

	mu    sync.Mutex
	hosts []int  // shard -> worker index, -1 = abandoned
	alive []bool // worker index -> believed alive
	cause []error
	// combs is the coordinator's authoritative committed combination per
	// net; pending[s] marks imports of s with updates not yet shipped.
	combs   map[string][2]core.Combined
	pending []map[string]bool
	padding map[string]float64
	// progress is how many waves of the current pass are complete — the
	// warm-up horizon for a rebuilt engine (see reinit).
	progress    int
	passChanged bool
	needExtra   bool
	reassigns   int
}

// Run executes the distributed noise–delay fixpoint: partition, fan out,
// exchange boundary windows wave by wave, grow padding round by round,
// and merge — surviving worker loss by reassigning or, at worst,
// degrading lost shards to the conservative full-rail bound. It returns
// an error only for cancellation, a deterministic analysis failure (which
// would equally fail single-process), or a setup problem; worker loss
// never fails the run.
func Run(ctx context.Context, cfg Config) (*Outcome, error) {
	if cfg.B == nil {
		return nil, fmt.Errorf("shard: coordinator needs a bound design")
	}
	if len(cfg.Workers) == 0 {
		return nil, fmt.Errorf("shard: coordinator needs at least one worker")
	}
	if cfg.Token == "" {
		cfg.Token = "run"
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if cfg.Attempts <= 0 {
		cfg.Attempts = 2
	}
	plan := cfg.Plan
	if plan == nil {
		var err error
		if plan, err = core.BuildShardPlan(ctx, cfg.B); err != nil {
			return nil, err
		}
	}
	asn := cfg.Assignment
	if asn == nil {
		shards := cfg.Shards
		if shards <= 0 {
			shards = len(cfg.Workers)
		}
		var err error
		if asn, err = Partition(plan, shards, cfg.Seed); err != nil {
			return nil, err
		}
	}
	r := &run{
		cfg:       cfg,
		plan:      plan,
		asn:       asn,
		importers: asn.ImportersOf(),
		maxIter:   core.DefaultMaxIter(cfg.Opts.MaxIter),
		hosts:     make([]int, asn.Shards),
		alive:     make([]bool, len(cfg.Workers)),
		cause:     make([]error, asn.Shards),
		combs:     make(map[string][2]core.Combined, len(plan.Order)),
		pending:   make([]map[string]bool, asn.Shards),
		padding:   make(map[string]float64),
	}
	r.frEvent, r.frComb = core.FullRail(core.EffectiveVdd(cfg.B, cfg.Opts))
	for s := range r.hosts {
		r.hosts[s] = s % len(cfg.Workers)
		r.pending[s] = make(map[string]bool)
	}
	for w := range r.alive {
		r.alive[w] = true
	}
	r.present = make([][]bool, asn.Shards)
	for s := range r.present {
		r.present[s] = make([]bool, len(plan.Waves))
	}
	for wi, w := range plan.Waves {
		for _, net := range w.Nets {
			r.present[asn.Owner[net]][wi] = true
		}
	}

	// Whatever the exit — success, cancellation, a fatal analysis error —
	// the workers must drop this token's engines: nothing else frees them
	// (a snad worker would also keep the token's design-cache reference,
	// pinning the design against budget eviction, until shutdown).
	defer r.closeAll()

	st := core.RoundState{Padding: r.padding}
	resumed := false
	if cfg.Checkpointer != nil {
		cp, err := cfg.Checkpointer.Load(cfg.Token)
		switch {
		case err != nil:
			cfg.Logf("shard: checkpoint load failed, starting fresh: %v", err)
		case cp != nil:
			st, resumed = cp.state(), true
			r.padding = st.Padding
			cfg.Logf("shard: resuming after round %d (%d padded nets)", cp.Round, len(cp.Padding))
		}
	}

	var (
		impacts    []core.DelayImpact
		iterations int
		converged  bool
	)
	// The round loop is core's own; a round here is the three engine
	// phases (build or padding update, fixpoint, delay) dispatched to
	// shards.
	loop := core.RoundLoop{
		MaxRounds:   cfg.MaxRounds,
		RoundBudget: cfg.Opts.RoundBudget,
		Round: func(ctx context.Context, _ int, changed []string) ([]core.DelayImpact, error) {
			// The first (or resumed) round builds every shard's engine,
			// seeded with the cumulative padding.
			var err error
			if changed == nil {
				err = r.initAll(ctx)
			} else {
				err = r.applyRoundAll(ctx, changed)
			}
			if err != nil {
				return nil, err
			}
			if iterations, converged, err = r.fixpoint(ctx); err != nil {
				return nil, err
			}
			impacts, err = r.delayAll(ctx)
			return impacts, err
		},
		AfterRound: r.saveCheckpoint,
	}
	res, err := loop.Run(ctx, st)
	if err != nil {
		return nil, err
	}
	cols, err := r.collectAll(ctx)
	if err != nil {
		return nil, err
	}
	out := &Outcome{IterativeResult: *res, Resumed: resumed}
	r.assemble(out, cols, impacts, iterations, converged)
	if cfg.Checkpointer != nil {
		if err := cfg.Checkpointer.Clear(cfg.Token); err != nil {
			cfg.Logf("shard: checkpoint clear failed: %v", err)
		}
	}
	return out, nil
}

func (r *run) nextSeq() int { return int(r.seq.Add(1)) }

func (r *run) hostOf(shard int) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.hosts[shard]
}

func (r *run) setProgress(p int) {
	r.mu.Lock()
	r.progress = p
	r.mu.Unlock()
}

// liveShards returns the shards not yet abandoned, ascending.
func (r *run) liveShards() []int {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []int
	for s, h := range r.hosts {
		if h >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// isFatal reports a deterministic analysis failure: retrying it anywhere
// reproduces it, so the run must abort (exactly as single-process would).
func isFatal(err error) bool {
	var fe *FatalError
	return errors.As(err, &fe)
}

// tryWorker runs one dispatch on one worker with per-attempt timeout,
// linear backoff, and bounded retries. Fatal and engine-broken errors
// return immediately (retrying in place cannot help); transient errors
// (timeouts, transport loss, injected faults) are retried Attempts times
// before the caller declares the worker lost.
func (r *run) tryWorker(ctx context.Context, wi, shard int, op string, req routed, resp any) error {
	*req.route() = Route{Token: r.cfg.Token, Shard: shard}
	var last error
	for att := 0; att < r.cfg.Attempts; att++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		if att > 0 && r.cfg.Backoff > 0 {
			select {
			case <-time.After(time.Duration(att) * r.cfg.Backoff):
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		actx := ctx
		cancel := func() {}
		if r.cfg.DispatchTimeout > 0 {
			actx, cancel = context.WithTimeout(ctx, r.cfg.DispatchTimeout)
		}
		err := r.cfg.Workers[wi].Do(actx, op, req, resp)
		cancel()
		if err == nil {
			return nil
		}
		last = err
		if isFatal(err) || errors.Is(err, ErrEngineBroken) {
			return err
		}
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	return last
}

// dispatch executes one op against a shard wherever it is hosted,
// surviving worker loss: engine-broken answers re-initialize in place,
// transient loss marks the worker dead and re-hosts the shard on a
// survivor (rebuilding its engine from the authoritative state), and only
// when no worker can host it is the shard abandoned (errAbandoned). The
// op request must be reusable across retries — the runner's protocol
// (eval Seq memo, idempotent round/init) makes re-execution exact.
func (r *run) dispatch(ctx context.Context, shard int, op string, req routed, resp any) error {
	brokenTries := 0
	for {
		wi := r.hostOf(shard)
		if wi < 0 {
			return errAbandoned
		}
		if !r.workerAlive(wi) {
			if err := r.rehost(ctx, shard); err != nil {
				return err
			}
			continue
		}
		err := r.tryWorker(ctx, wi, shard, op, req, resp)
		if err == nil {
			return nil
		}
		if isFatal(err) {
			return err
		}
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
		if errors.Is(err, ErrEngineBroken) && brokenTries == 0 {
			// The engine refused work after a half-applied update; rebuild
			// it in place once. A second broken answer means the rebuild
			// path itself is failing — treat the worker as lost.
			brokenTries++
			rerr := r.reinit(ctx, shard, wi)
			if rerr == nil {
				continue
			}
			if isFatal(rerr) {
				return rerr
			}
			if cerr := ctx.Err(); cerr != nil {
				return cerr
			}
			err = rerr
		}
		r.markDead(wi, err)
		if rerr := r.rehost(ctx, shard); rerr != nil {
			return rerr
		}
	}
}

func (r *run) workerAlive(wi int) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.alive[wi]
}

func (r *run) markDead(wi int, err error) {
	r.mu.Lock()
	was := r.alive[wi]
	r.alive[wi] = false
	r.mu.Unlock()
	if was {
		r.cfg.Logf("shard: worker %s lost: %v", r.cfg.Workers[wi].Name(), err)
	}
}

// rehost moves a shard onto a live worker (possibly the one it is already
// on, after the initial placement) and rebuilds its engine there. When no
// live worker remains — or every candidate fails — the shard is abandoned
// and errAbandoned returned; deterministic failures and cancellation
// propagate.
func (r *run) rehost(ctx context.Context, shard int) error {
	for {
		r.mu.Lock()
		if r.hosts[shard] < 0 {
			r.mu.Unlock()
			return errAbandoned
		}
		cand := -1
		for off := 1; off <= len(r.alive); off++ {
			w := (r.hosts[shard] + off) % len(r.alive)
			if r.alive[w] {
				cand = w
				break
			}
		}
		if cand < 0 {
			r.mu.Unlock()
			r.abandon(shard, errors.New("no live workers remain"))
			return errAbandoned
		}
		r.hosts[shard] = cand
		r.reassigns++
		r.mu.Unlock()
		r.cfg.Logf("shard: re-hosting shard %d on worker %s", shard, r.cfg.Workers[cand].Name())
		err := r.reinit(ctx, shard, cand)
		if err == nil {
			return nil
		}
		if isFatal(err) {
			return err
		}
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
		r.markDead(cand, err)
	}
}

// reinit rebuilds a shard's engine on worker wi: a fresh padding-seeded
// init, the authoritative combinations restored, and a warm-up sweep over
// the waves already evaluated this pass so the fresh engine's event lists
// and statistics catch up with the state the lost engine carried. The
// warm-up re-evaluations see exactly the inputs the lost engine saw, so
// they commit identical values and report no spurious updates.
func (r *run) reinit(ctx context.Context, shard, wi int) error {
	req := &InitRequest{Design: r.cfg.Design}
	r.mu.Lock()
	req.Owned = r.asn.Owned[shard]
	req.Padding = padEntries(r.padding)
	restore := make([]string, 0, len(r.asn.Owned[shard])+len(r.asn.Imports[shard]))
	for _, net := range r.asn.Owned[shard] {
		if _, ok := r.combs[net]; ok {
			restore = append(restore, net)
		}
	}
	for _, net := range r.asn.Imports[shard] {
		if _, ok := r.combs[net]; ok {
			restore = append(restore, net)
		}
	}
	sort.Strings(restore)
	for _, net := range restore {
		req.Restore = append(req.Restore, core.WaveUpdate{Net: net, Comb: r.combs[net]})
	}
	// The restore supersedes any queued boundary deltas.
	r.pending[shard] = make(map[string]bool)
	warmTo := r.progress
	r.mu.Unlock()

	if err := r.tryWorker(ctx, wi, shard, OpInit, req, nil); err != nil {
		return err
	}
	for w := 0; w < warmTo; w++ {
		if !r.present[shard][w] {
			continue
		}
		ereq := &EvalRequest{Seq: r.nextSeq(), Wave: w}
		eresp := &EvalResponse{}
		if err := r.tryWorker(ctx, wi, shard, OpEval, ereq, eresp); err != nil {
			return err
		}
		r.applyUpdates(shard, eresp.Updates)
	}
	return nil
}

// abandon degrades a shard that no worker can host: its owned nets get
// the conservative full-rail combination (the same bound fail-soft
// degradation uses), importers are notified so downstream propagation
// sees the bound, and the merge will synthesize per-net degradation
// records. The report stays sound — pessimistic, never wrong.
func (r *run) abandon(shard int, cause error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.hosts[shard] < 0 {
		return
	}
	r.hosts[shard] = -1
	r.cause[shard] = cause
	for _, net := range r.asn.Owned[shard] {
		r.combs[net] = [2]core.Combined{r.frComb, r.frComb}
		for _, t := range r.importers[net] {
			if t != shard && r.hosts[t] >= 0 {
				r.pending[t][net] = true
			}
		}
	}
	// Importers must re-evaluate against the bound, and the fixpoint must
	// not conclude on a pass that missed these pushes.
	r.passChanged = true
	r.needExtra = true
	r.cfg.Logf("shard: abandoning shard %d (%d nets degrade to full-rail): %v",
		shard, len(r.asn.Owned[shard]), cause)
}

// takeBoundary drains the queued boundary updates for a shard into a
// list sorted for determinism. Entries are moved, not copied: the
// caller's request owns them across retries, and a re-host's restore
// supersedes them anyway.
func (r *run) takeBoundary(shard int) []core.WaveUpdate {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.pending[shard]) == 0 {
		return nil
	}
	nets := make([]string, 0, len(r.pending[shard]))
	for net := range r.pending[shard] {
		nets = append(nets, net)
	}
	sort.Strings(nets)
	out := make([]core.WaveUpdate, 0, len(nets))
	for _, net := range nets {
		out = append(out, core.WaveUpdate{Net: net, Comb: r.combs[net]})
		delete(r.pending[shard], net)
	}
	return out
}

// applyUpdates commits a shard's wave updates to the authoritative state
// and queues them for every shard importing the changed nets.
func (r *run) applyUpdates(shard int, ups []core.WaveUpdate) {
	if len(ups) == 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, u := range ups {
		r.combs[u.Net] = u.Comb
		for _, t := range r.importers[u.Net] {
			if t != shard && r.hosts[t] >= 0 {
				r.pending[t][u.Net] = true
			}
		}
	}
	r.passChanged = true
}

// forEachShard runs fn concurrently over the given shards, passing each
// shard's slot index in shards, and returns the first fatal error;
// errAbandoned results are tolerated (the shard was degraded, the run
// goes on).
func (r *run) forEachShard(shards []int, fn func(i, s int) error) error {
	errs := make([]error, len(shards))
	var wg sync.WaitGroup
	for i, s := range shards {
		wg.Add(1)
		go func(i, s int) {
			defer wg.Done()
			errs[i] = fn(i, s)
		}(i, s)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil && !errors.Is(err, errAbandoned) {
			return err
		}
	}
	return nil
}

// initAll builds every live shard's engine, seeded with the cumulative
// padding (empty on a fresh run, the checkpoint's on resume).
func (r *run) initAll(ctx context.Context) error {
	r.setProgress(0)
	return r.forEachShard(r.liveShards(), func(_, s int) error {
		wi := r.hostOf(s)
		if wi < 0 {
			return errAbandoned
		}
		if err := r.reinit(ctx, s, wi); err == nil {
			return nil
		} else if isFatal(err) {
			return err
		} else if cerr := ctx.Err(); cerr != nil {
			return cerr
		} else {
			r.markDead(wi, err)
		}
		return r.rehost(ctx, s)
	})
}

// applyRoundAll pushes one round of padding growth to every live shard.
func (r *run) applyRoundAll(ctx context.Context, changed []string) error {
	r.setProgress(0)
	entries := make([]PadEntry, len(changed))
	r.mu.Lock()
	for i, net := range changed {
		entries[i] = PadEntry{Net: net, Pad: r.padding[net]}
	}
	r.mu.Unlock()
	return r.forEachShard(r.liveShards(), func(_, s int) error {
		return r.dispatch(ctx, s, OpRound, &RoundRequest{Changed: entries}, nil)
	})
}

// fixpoint runs the within-round propagation fixpoint in lockstep wave
// dispatches, replicating runFixpoint's pass accounting: passes repeat
// until one commits no change (or NoPropagation makes one pass exact),
// bounded by MaxIter. A pass disturbed by a re-hosting or an abandonment
// is followed by at least one more, so convergence is never declared on a
// pass that missed recovery traffic.
func (r *run) fixpoint(ctx context.Context) (int, bool, error) {
	iterations, converged := 0, false
	for iter := 0; iter < r.maxIter; iter++ {
		if err := ctx.Err(); err != nil {
			return iterations, false, err
		}
		iterations++
		r.mu.Lock()
		r.passChanged = false
		r.progress = 0
		r.mu.Unlock()
		for wi := range r.plan.Waves {
			r.setProgress(wi)
			if err := r.evalWaveAll(ctx, wi); err != nil {
				return iterations, false, err
			}
		}
		r.mu.Lock()
		changed := r.passChanged
		extra := r.needExtra
		r.needExtra = false
		r.mu.Unlock()
		if extra {
			continue
		}
		if !changed || r.cfg.Opts.NoPropagation {
			converged = true
			break
		}
	}
	r.setProgress(len(r.plan.Waves))
	return iterations, converged, nil
}

// evalWaveAll dispatches one wave to every shard owning nets in it,
// shipping each shard's queued boundary imports with the request.
func (r *run) evalWaveAll(ctx context.Context, wi int) error {
	var shards []int
	for _, s := range r.liveShards() {
		if r.present[s][wi] {
			shards = append(shards, s)
		}
	}
	return r.forEachShard(shards, func(_, s int) error {
		req := &EvalRequest{Seq: r.nextSeq(), Wave: wi, Boundary: r.takeBoundary(s)}
		resp := &EvalResponse{}
		if err := r.dispatch(ctx, s, OpEval, req, resp); err != nil {
			return err
		}
		r.applyUpdates(s, resp.Updates)
		return nil
	})
}

// delayAll gathers every live shard's delta-delay impacts and sorts the
// concatenation with the engine's own (total) comparator, yielding exactly
// the single-process impact order.
func (r *run) delayAll(ctx context.Context) ([]core.DelayImpact, error) {
	shards := r.liveShards()
	per := make([][]core.DelayImpact, len(shards))
	err := r.forEachShard(shards, func(i, s int) error {
		resp := &DelayResponse{}
		if err := r.dispatch(ctx, s, OpDelay, &DelayRequest{}, resp); err != nil {
			return err
		}
		per[i] = resp.Impacts
		return nil
	})
	if err != nil {
		return nil, err
	}
	var all []core.DelayImpact
	for _, ims := range per {
		all = append(all, ims...)
	}
	core.SortImpacts(all)
	return all, nil
}

// collectAll gathers every live shard's slice of the final result.
func (r *run) collectAll(ctx context.Context) (map[int]*core.ShardCollect, error) {
	shards := r.liveShards()
	var mu sync.Mutex
	cols := make(map[int]*core.ShardCollect, len(shards))
	err := r.forEachShard(shards, func(_, s int) error {
		resp := &core.ShardCollect{}
		if err := r.dispatch(ctx, s, OpCollect, &CollectRequest{}, resp); err != nil {
			return err
		}
		mu.Lock()
		cols[s] = resp
		mu.Unlock()
		return nil
	})
	if err != nil {
		return nil, err
	}
	return cols, nil
}

// closeAll releases worker-side engines, best effort.
func (r *run) closeAll() {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	for wi, w := range r.cfg.Workers {
		if !r.workerAlive(wi) {
			continue
		}
		req := &CloseRequest{Route{Token: r.cfg.Token, Shard: -1}}
		if err := w.Do(ctx, OpClose, req, nil); err != nil {
			r.cfg.Logf("shard: close on worker %s failed: %v", w.Name(), err)
		}
	}
}

// assemble merges the shard collects into the single-process result
// shapes. Violations and slacks are interleaved in the canonical gather
// order (global alphabetical net order, each shard's per-net groups kept
// intact) and then sorted with the engine's own comparators — the exact
// sequence checkViolations produces, which matters because that sort's
// comparator is not total. Abandoned shards contribute synthesized
// full-rail records and StageShard degradation diags instead.
func (r *run) assemble(out *Outcome, cols map[int]*core.ShardCollect, impacts []core.DelayImpact, iterations int, converged bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := append([]string(nil), r.plan.Order...)
	sort.Strings(names)
	noise := &core.Result{
		Mode: r.cfg.Opts.Mode,
		Nets: make(map[string]*core.NetNoise, len(names)),
	}
	stats := core.Stats{
		Victims:    len(r.plan.Order),
		Iterations: iterations,
		Converged:  converged,
	}
	type groups struct {
		v  map[string][]core.Violation
		sl map[string][]core.ReceiverSlack
	}
	byShard := make(map[int]*groups, len(cols))
	var diags []core.Diag
	shardIDs := make([]int, 0, len(cols))
	for s := range cols {
		shardIDs = append(shardIDs, s)
	}
	sort.Ints(shardIDs)
	for _, s := range shardIDs {
		col := cols[s]
		stats.AggressorPairs += col.Pairs
		stats.Filtered += col.Filtered
		stats.Propagated += col.Propagated
		g := &groups{
			v:  make(map[string][]core.Violation),
			sl: make(map[string][]core.ReceiverSlack),
		}
		for _, v := range col.Violations {
			g.v[v.Net] = append(g.v[v.Net], v)
		}
		for _, sl := range col.Slacks {
			g.sl[sl.Net] = append(g.sl[sl.Net], sl)
		}
		byShard[s] = g
		for net, nn := range col.Nets {
			noise.Nets[net] = nn
		}
		diags = append(diags, col.Diags...)
	}
	for s := range r.hosts {
		if r.hosts[s] >= 0 {
			continue
		}
		out.AbandonedShards = append(out.AbandonedShards, s)
		for _, net := range r.asn.Owned[s] {
			noise.Nets[net] = &core.NetNoise{
				Net:    net,
				Events: [2][]core.Event{{r.frEvent}, {r.frEvent}},
				Comb:   [2]core.Combined{r.frComb, r.frComb},
			}
			diags = append(diags, core.Diag{
				Net:      net,
				Stage:    core.StageShard,
				Err:      fmt.Errorf("shard %d lost: %v", s, r.cause[s]),
				Degraded: true,
			})
		}
	}
	var vs []core.Violation
	var sls []core.ReceiverSlack
	for _, name := range names {
		if g := byShard[r.asn.Owner[name]]; g != nil {
			vs = append(vs, g.v[name]...)
			sls = append(sls, g.sl[name]...)
		}
	}
	core.SortViolations(vs)
	core.SortSlacks(sls)
	core.SortDiags(diags)
	noise.Violations = vs
	noise.Slacks = sls
	noise.Diags = diags
	stats.DegradedNets = len(diags)
	noise.Stats = stats
	out.Noise = noise
	out.Delay = &core.DelayResult{Mode: r.cfg.Opts.Mode, Impacts: impacts, Diags: diags}
	out.Degraded = len(diags) > 0
	out.Reassigns = r.reassigns
}
