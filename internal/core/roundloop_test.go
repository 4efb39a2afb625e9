package core

import (
	"context"
	"errors"
	"maps"
	"strings"
	"testing"
	"time"

	"repro/internal/units"
)

// fakeRounds is a RoundLoop.Round that reports one impact on net "a" per
// round, with the delta deltas[round-1], and records what the loop passed
// it.
type fakeRounds struct {
	deltas  []float64
	sleep   time.Duration
	rounds  []int
	changed [][]string
}

func (f *fakeRounds) round(_ context.Context, round int, changed []string) ([]DelayImpact, error) {
	f.rounds = append(f.rounds, round)
	f.changed = append(f.changed, append([]string(nil), changed...)) // nil stays nil
	time.Sleep(f.sleep)
	return []DelayImpact{{Net: "a", Delta: f.deltas[round-1]}}, nil
}

// TestRoundLoopExits drives the shared padding loop through every exit
// with a fake round function: convergence, the round budget, the
// contraction watchdog, and running out of rounds.
func TestRoundLoopExits(t *testing.T) {
	ps := units.Pico
	for _, tc := range []struct {
		name      string
		deltas    []float64
		maxRounds int
		budget    time.Duration
		sleep     time.Duration
		rounds    int
		converged bool
		reason    string
	}{
		{name: "converged", deltas: []float64{4 * ps, 6 * ps, 6 * ps}, rounds: 3, converged: true},
		{name: "over budget", deltas: []float64{4 * ps, 6 * ps}, budget: time.Millisecond, sleep: 5 * time.Millisecond,
			rounds: 1, reason: "round 1 took"},
		{name: "not contracting", deltas: []float64{1 * ps, 2 * ps, 3 * ps, 4 * ps}, rounds: 3,
			reason: "padding growth not contracting for 2 rounds (latest 1ps/round)"},
		{name: "rounds exhausted", deltas: []float64{8 * ps, 12 * ps, 14 * ps, 15 * ps}, maxRounds: 3, rounds: 3,
			reason: "padding still growing after 3 rounds"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := &fakeRounds{deltas: tc.deltas, sleep: tc.sleep}
			padding := map[string]float64{}
			var saved []int
			out, err := RoundLoop{MaxRounds: tc.maxRounds, RoundBudget: tc.budget, Round: f.round,
				AfterRound: func(st RoundState) { saved = append(saved, st.Round) }}.
				Run(context.Background(), RoundState{Padding: padding})
			if err != nil {
				t.Fatal(err)
			}
			if out.Rounds != tc.rounds || out.Converged != tc.converged || out.Diverging == tc.converged {
				t.Fatalf("rounds=%d converged=%v diverging=%v, want %d/%v/%v",
					out.Rounds, out.Converged, out.Diverging, tc.rounds, tc.converged, !tc.converged)
			}
			if !strings.HasPrefix(out.DivergeReason, tc.reason) || (tc.reason == "") != (out.DivergeReason == "") {
				t.Fatalf("reason %q, want prefix %q", out.DivergeReason, tc.reason)
			}
			if out.Padding["a"] != tc.deltas[tc.rounds-1] || padding["a"] != out.Padding["a"] {
				t.Fatalf("padding %v (caller map %v), want a=%g in place", out.Padding, padding, tc.deltas[tc.rounds-1])
			}
			// The hook sees every round but the exit round: a state saved
			// after the last round would resume with no round to run.
			if len(saved) != tc.rounds-1 || (len(saved) > 0 && saved[len(saved)-1] != tc.rounds-1) {
				t.Fatalf("AfterRound saw rounds %v, want 1..%d", saved, tc.rounds-1)
			}
			if f.changed[0] != nil {
				t.Fatalf("first round got changed=%v, want nil", f.changed[0])
			}
			for i := 1; i < len(f.changed); i++ {
				if len(f.changed[i]) != 1 || f.changed[i][0] != "a" {
					t.Fatalf("round %d got changed=%v, want [a]", i+1, f.changed[i])
				}
			}
		})
	}
}

// TestRoundLoopResume pins the hook/resume contract: a loop resumed from
// the state AfterRound saw reaches the same exit, at the same round, as
// the uninterrupted loop — the watchdog state, not just the padding,
// carries over.
func TestRoundLoopResume(t *testing.T) {
	ps := units.Pico
	deltas := []float64{1 * ps, 2 * ps, 3 * ps, 4 * ps}
	var saved []RoundState
	full, err := RoundLoop{
		Round: (&fakeRounds{deltas: deltas}).round,
		AfterRound: func(st RoundState) {
			st.Padding = maps.Clone(st.Padding)
			saved = append(saved, st)
		},
	}.Run(context.Background(), RoundState{Padding: map[string]float64{}})
	if err != nil {
		t.Fatal(err)
	}
	if len(saved) != 2 {
		t.Fatalf("AfterRound ran %d times, want 2 (not after the exit round)", len(saved))
	}
	want := RoundState{Round: 2, PrevGrowth: 1 * ps, Stalled: 1}
	if st := saved[1]; st.Round != want.Round || st.PrevGrowth != want.PrevGrowth || st.Stalled != want.Stalled ||
		st.Padding["a"] != 2*ps {
		t.Fatalf("saved state %+v, want %+v with a=2ps", st, want)
	}
	f := &fakeRounds{deltas: deltas}
	resumed, err := RoundLoop{Round: f.round}.Run(context.Background(), saved[1])
	if err != nil {
		t.Fatal(err)
	}
	if len(f.rounds) != 1 || f.rounds[0] != 3 || f.changed[0] != nil {
		t.Fatalf("resumed loop ran rounds %v with changed %v, want [3] with nil", f.rounds, f.changed)
	}
	if resumed.Rounds != full.Rounds || resumed.DivergeReason != full.DivergeReason {
		t.Fatalf("resumed (%d, %q) != uninterrupted (%d, %q)",
			resumed.Rounds, resumed.DivergeReason, full.Rounds, full.DivergeReason)
	}
}

// TestRoundLoopErrors: a failing round and a cancelled context both end
// the loop with the error and no result.
func TestRoundLoopErrors(t *testing.T) {
	boom := errors.New("boom")
	out, err := RoundLoop{Round: func(context.Context, int, []string) ([]DelayImpact, error) {
		return nil, boom
	}}.Run(context.Background(), RoundState{Padding: map[string]float64{}})
	if !errors.Is(err, boom) || out != nil {
		t.Fatalf("got (%v, %v), want the round's error", out, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out, err = RoundLoop{Round: (&fakeRounds{deltas: []float64{1}}).round}.
		Run(ctx, RoundState{Padding: map[string]float64{}})
	if !errors.Is(err, context.Canceled) || out != nil {
		t.Fatalf("got (%v, %v), want context.Canceled", out, err)
	}
}
