package shard

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/core"
)

// fatalUnlessCtx classifies a runner error: cancellation is transient (the
// coordinator may retry), anything else from the deterministic analysis
// paths would recur on any worker and is fatal to the run.
func fatalUnlessCtx(err error) error {
	if err == nil {
		return nil
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	return &FatalError{Err: err}
}

// BuildEngine constructs a shard engine over the worker's design. A
// bound design is immutable after binding (its levelization and RC
// analysis caches are internally guarded), so a worker hosting several
// shards of one run shares a single design across their engines:
// in-process workers memoize their BuildDesign source, and the snad
// server caches one parsed design per run token. All per-engine mutable
// state (timing, padding, noise) is private to the engine.
type BuildEngine func(ctx context.Context, owned []string, padding map[string]float64) (*core.ShardEngine, error)

// Runner hosts one shard's engine behind the op protocol. It owns the two
// pieces of protocol state that make dispatch retries exact:
//
//   - the eval memo: updates are accumulated per eval Seq across attempts,
//     so a retried dispatch whose predecessor half-ran (or ran fully but
//     lost its response) returns every commit since the wave began;
//
//   - the broken flag: a padding update that dies halfway leaves the
//     timing annotation inconsistent, so the engine refuses further work
//     with ErrEngineBroken until the coordinator re-initializes it.
//
// All methods serialize on one mutex: a shard's ops are inherently ordered
// (the coordinator never overlaps them), the lock just makes stray
// concurrent calls safe.
type Runner struct {
	build BuildEngine

	mu      sync.Mutex
	eng     *core.ShardEngine
	broken  error
	evalSeq int
	// pending accumulates the committed combinations of the current eval
	// Seq; done holds the response once the wave is fully evaluated (a
	// duplicate dispatch then replays it without re-running).
	pending map[string][2]core.Combined
	done    *EvalResponse
}

// NewRunner returns a runner that builds engines with build.
func NewRunner(build BuildEngine) *Runner {
	return &Runner{build: build}
}

// Init builds (or rebuilds) the engine: owned nets, padding-seeded timing,
// and restored authoritative combinations.
func (r *Runner) Init(ctx context.Context, req *InitRequest) error {
	eng, err := r.build(ctx, req.Owned, padMap(req.Padding))
	if err != nil {
		return fatalUnlessCtx(err)
	}
	for _, u := range req.Restore {
		eng.SetComb(u.Net, u.Comb)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.eng = eng
	r.broken = nil
	r.evalSeq = 0
	r.pending = nil
	r.done = nil
	return nil
}

func (r *Runner) engine() (*core.ShardEngine, error) {
	if r.broken != nil {
		return nil, fmt.Errorf("%w: %v", ErrEngineBroken, r.broken)
	}
	if r.eng == nil {
		return nil, badRequestError("shard: runner has no engine (init not seen)")
	}
	return r.eng, nil
}

// Eval applies the request's boundary combinations and evaluates the wave,
// returning every commit of this Seq (including ones from earlier aborted
// attempts).
func (r *Runner) Eval(ctx context.Context, req *EvalRequest) (*EvalResponse, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	eng, err := r.engine()
	if err != nil {
		return nil, err
	}
	if req.Seq != r.evalSeq {
		r.evalSeq = req.Seq
		r.pending = nil
		r.done = nil
	}
	if r.done != nil {
		return r.done, nil
	}
	for _, u := range req.Boundary {
		eng.SetComb(u.Net, u.Comb)
	}
	if r.pending == nil {
		r.pending = make(map[string][2]core.Combined)
	}
	ups, err := eng.EvalWave(ctx, req.Wave)
	for _, u := range ups {
		r.pending[u.Net] = u.Comb
	}
	if err != nil {
		return nil, fatalUnlessCtx(err)
	}
	nets := make([]string, 0, len(r.pending))
	for net := range r.pending {
		nets = append(nets, net)
	}
	sort.Strings(nets)
	r.done = &EvalResponse{}
	for _, net := range nets {
		r.done.Updates = append(r.done.Updates, core.WaveUpdate{Net: net, Comb: r.pending[net]})
	}
	return r.done, nil
}

// Round applies one round of padding growth. A failure marks the engine
// broken: the timing update mutates in place and a partial update is not a
// state any single-process run ever visits.
func (r *Runner) Round(ctx context.Context, req *RoundRequest) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	eng, err := r.engine()
	if err != nil {
		return err
	}
	changed := make([]string, len(req.Changed))
	padding := make(map[string]float64, len(req.Changed))
	for i, e := range req.Changed {
		changed[i] = e.Net
		padding[e.Net] = e.Pad
	}
	if err := eng.ApplyRound(ctx, changed, padding); err != nil {
		r.broken = err
		return fmt.Errorf("%w: %v", ErrEngineBroken, err)
	}
	// A new round invalidates the eval memo (the coordinator also bumps
	// Seq, this is belt and braces).
	r.pending = nil
	r.done = nil
	return nil
}

// Delay runs the delta-delay pass over the owned nets.
func (r *Runner) Delay(ctx context.Context, req *DelayRequest) (*DelayResponse, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	eng, err := r.engine()
	if err != nil {
		return nil, err
	}
	ims, err := eng.DelayImpacts(ctx)
	if err != nil {
		return nil, fatalUnlessCtx(err)
	}
	return &DelayResponse{Impacts: ims}, nil
}

// Collect returns the shard's slice of the final result.
func (r *Runner) Collect(ctx context.Context, req *CollectRequest) (*core.ShardCollect, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	eng, err := r.engine()
	if err != nil {
		return nil, err
	}
	return eng.Collect(ctx)
}

// Do runs one engine op — eval, round, delay, or collect, chosen by the
// request's type — with its typed response (nil for round). The
// in-process worker and the snad shard endpoint both dispatch through it.
func (r *Runner) Do(ctx context.Context, req, resp any) error {
	switch req := req.(type) {
	case *EvalRequest:
		out, err := r.Eval(ctx, req)
		if err != nil {
			return err
		}
		*resp.(*EvalResponse) = *out
	case *RoundRequest:
		return r.Round(ctx, req)
	case *DelayRequest:
		out, err := r.Delay(ctx, req)
		if err != nil {
			return err
		}
		*resp.(*DelayResponse) = *out
	case *CollectRequest:
		out, err := r.Collect(ctx, req)
		if err != nil {
			return err
		}
		*resp.(*core.ShardCollect) = *out
	default:
		return badRequestError("shard: %T is not an engine op request", req)
	}
	return nil
}

// Close drops the engine.
func (r *Runner) Close() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.eng = nil
	r.broken = nil
	r.pending = nil
	r.done = nil
}
