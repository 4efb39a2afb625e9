package core

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/bind"
	"repro/internal/units"
)

// Noise and timing are mutually dependent: switching windows determine
// which glitches combine, but crosstalk also pushes transitions out
// (delta-delay), which widens the switching windows themselves. The
// signoff flow therefore iterates: analyze with the current windows,
// convert the worst per-net push-out into late-edge window padding, and
// reanalyze until the padding stops growing. Padding only grows (the
// maximum over rounds is kept) and each net's delta is bounded by
// slew·Vdd/Vdd, so the loop converges; non-convergence within the round
// budget is reported rather than hidden, and a divergence watchdog stops
// the loop early when the padding growth is not contracting or a round
// blows its wall-clock budget — a run that will not converge should say
// so instead of silently burning rounds.
//
// The loop is incremental: one analyzer persists across rounds, shared
// between the noise and delay passes. Round 1 is a full analysis; each
// later round updates the timing annotation in place for the padded nets'
// cones (sta.Result.UpdatePaddingCtx), derives the analysis dirty sets
// from the timing dirty set (see incremental.go), re-prepares and
// re-evaluates only those, and reuses every other victim's committed
// results. The per-round results are identical to a from-scratch
// re-analysis with the same padding, except for execution statistics
// (Stats.Iterations counts only the incremental passes) and diagnostics
// under fault injection (a hook that fires on clean victims fires only
// for re-prepared ones).

// IterativeResult is the converged joint noise/timing analysis.
type IterativeResult struct {
	// Noise and Delay are the final round's analyses.
	Noise *Result
	Delay *DelayResult
	// Padding is the final per-net late-edge widening applied, seconds.
	Padding map[string]float64
	// Rounds is the number of analysis rounds run.
	Rounds int
	// Converged reports whether the padding reached a fixpoint within
	// the round budget.
	Converged bool
	// Diverging reports that the watchdog cut the loop short (padding
	// growth not contracting, a round over Options.RoundBudget) or that
	// the padding was still growing when the rounds ran out. Always false
	// when Converged.
	Diverging bool
	// DivergeReason explains the watchdog trigger ("" unless Diverging).
	DivergeReason string
}

// AnalyzeIterative runs the noise–timing loop. maxRounds bounds the outer
// iteration (default 8 when zero). The tolerance for padding convergence
// is 0.01 ps.
func AnalyzeIterative(b *bind.Design, opts Options, maxRounds int) (*IterativeResult, error) {
	return AnalyzeIterativeCtx(context.Background(), b, opts, maxRounds)
}

// AnalyzeIterativeCtx is AnalyzeIterative with cooperative cancellation,
// checked between rounds and inside each round's analyses.
func AnalyzeIterativeCtx(ctx context.Context, b *bind.Design, opts Options, maxRounds int) (*IterativeResult, error) {
	padding := make(map[string]float64)
	// The analyzer and the timing engine alias this map: padding grown
	// after a round is what the next round's incremental update applies.
	opts.STA.WindowPadding = padding
	var (
		a     *analyzer
		res   *Result
		delay *DelayResult
	)
	loop := RoundLoop{
		MaxRounds:   maxRounds,
		RoundBudget: opts.RoundBudget,
		Round: func(ctx context.Context, round int, changed []string) ([]DelayImpact, error) {
			var err error
			if a == nil {
				a, res, err = firstRound(ctx, b, opts)
			} else {
				err = a.paddingRound(ctx, res, changed)
			}
			if err != nil {
				return nil, fmt.Errorf("core: iterative round %d: %w", round, err)
			}
			delay = a.assembleDelay()
			return delay.Impacts, nil
		},
	}
	out, err := loop.Run(ctx, RoundState{Padding: padding})
	if err != nil {
		return nil, err
	}
	out.Noise, out.Delay = res, delay
	return out, nil
}

// firstRound is the full first round of a persistent analysis: setup, the
// noise fixpoint over every net, and the delay pass over every net.
func firstRound(ctx context.Context, b *bind.Design, opts Options) (*analyzer, *Result, error) {
	a, err := newAnalyzer(ctx, b, opts)
	if err != nil {
		return nil, nil, err
	}
	res := a.newResult()
	if err := a.runFixpoint(ctx, res, nil); err != nil {
		return nil, nil, err
	}
	a.finishNoise(res)
	if err := a.delayPass(ctx, nil); err != nil {
		return nil, nil, err
	}
	return a, res, nil
}

// paddingRound is one incremental round after the padding of the changed
// nets grew (the analyzer's padding map already holds the new values):
// the timing update, then re-preparation, the noise fixpoint, and the
// delay pass over the derived dirty sets only.
func (a *analyzer) paddingRound(ctx context.Context, res *Result, changed []string) error {
	staDirty, err := a.staRes.UpdatePaddingCtx(ctx, a.opts.STA, changed)
	if err != nil {
		return err
	}
	reprep, evalDirty, delayDirty := a.dirtyAfterPadding(staDirty)
	if err := a.reprepare(ctx, reprep); err != nil {
		return err
	}
	if err := a.runFixpoint(ctx, res, evalDirty); err != nil {
		return err
	}
	a.finishNoise(res)
	return a.delayPass(ctx, delayDirty)
}

// RoundState is the resumable state of the padding loop. The analysis
// itself is not part of it: an engine rebuilt with the cumulative padding
// is in exactly the state the incremental rounds reach (the Session
// rebuild contract), so padding plus watchdog state is the whole
// fixpoint.
type RoundState struct {
	// Round is the number of completed rounds; 0 starts a fresh loop.
	Round int
	// Padding is the cumulative per-net late-edge widening, seconds. The
	// loop grows this map in place.
	Padding map[string]float64
	// PrevGrowth is round Round's largest per-net padding increase (the
	// loop uses +Inf while Round is 0); Stalled counts the consecutive
	// rounds whose growth did not contract.
	PrevGrowth float64
	Stalled    int
}

// RoundLoop is the noise–timing padding fixpoint, independent of where a
// round's analysis runs: AnalyzeIterativeCtx runs rounds on one
// in-process analyzer, and the shard coordinator dispatches them across
// workers. Both therefore share the growth rule, the rounds
// default, the watchdog, and the diverge reasons.
type RoundLoop struct {
	// MaxRounds bounds the loop (default 8 when zero).
	MaxRounds int
	// RoundBudget trips the watchdog when one round runs longer
	// (Options.RoundBudget; zero disables the check).
	RoundBudget time.Duration
	// Round runs one analysis round under the current padding and
	// returns its delay impacts. changed is nil on the loop's first round
	// (a full analysis, padding-seeded on resume); later it lists the
	// nets whose padding grew in the previous round.
	Round func(ctx context.Context, round int, changed []string) ([]DelayImpact, error)
	// AfterRound, when non-nil, receives the state after every round
	// another round follows — what a checkpoint must save.
	AfterRound func(RoundState)
}

// Run drives the loop from st and returns the loop outcome; Noise and
// Delay stay nil for the caller, which owns the analysis, to fill in.
func (l RoundLoop) Run(ctx context.Context, st RoundState) (*IterativeResult, error) {
	const tol = units.Pico / 100 // padding convergence: 0.01 ps
	maxRounds := l.MaxRounds
	if maxRounds <= 0 {
		maxRounds = 8
	}
	if st.Round == 0 {
		st.PrevGrowth = math.Inf(1)
	}
	padding := st.Padding
	out := &IterativeResult{Padding: padding}
	var changed []string // nets whose padding grew last round
	for round := st.Round + 1; round <= maxRounds; round++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		start := time.Now()
		impacts, err := l.Round(ctx, round, changed)
		if err != nil {
			return nil, err
		}
		out.Rounds = round

		grew := false
		var growth float64
		changed = changed[:0]
		for _, im := range impacts {
			if im.Delta > padding[im.Net]+tol {
				growth = math.Max(growth, im.Delta-padding[im.Net])
				padding[im.Net] = im.Delta
				changed = append(changed, im.Net)
				grew = true
			}
		}
		if !grew {
			out.Converged = true
			return out, nil
		}
		if l.RoundBudget > 0 {
			if elapsed := time.Since(start); elapsed > l.RoundBudget {
				out.Diverging = true
				out.DivergeReason = fmt.Sprintf("round %d took %s, over the %s budget",
					round, elapsed.Round(time.Millisecond), l.RoundBudget)
				return out, nil
			}
		}
		// Contraction check: a healthy loop's padding increments shrink
		// every round (the feedback gain is < 1). Two consecutive rounds
		// of non-shrinking growth mean the loop is chasing its own tail.
		if growth >= st.PrevGrowth-tol {
			st.Stalled++
		} else {
			st.Stalled = 0
		}
		if st.Stalled >= 2 {
			out.Diverging = true
			out.DivergeReason = fmt.Sprintf(
				"padding growth not contracting for %d rounds (latest %.3gps/round)",
				st.Stalled, growth/units.Pico)
			return out, nil
		}
		st.Round, st.PrevGrowth = round, growth
		// No hook after the last round: a state saved there would resume
		// into a loop with no round left to run.
		if l.AfterRound != nil && round < maxRounds {
			l.AfterRound(st)
		}
	}
	// The budget ran out with padding still growing: the loop did not
	// converge and was still moving — report it as diverging rather than
	// letting a silent Converged=false look like a near-miss.
	out.Diverging = true
	out.DivergeReason = fmt.Sprintf("padding still growing after %d rounds", maxRounds)
	return out, nil
}

// MaxPadding returns the largest applied window padding.
func (r *IterativeResult) MaxPadding() float64 {
	var worst float64
	for _, p := range r.Padding {
		worst = math.Max(worst, p)
	}
	return worst
}
