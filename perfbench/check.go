package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strconv"

	"repro/internal/bind"
	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/server"
	"repro/internal/shard"
)

// digest hashes what a sign-off consumer reads from a result: every
// violation, every net's worst low and high peak, every degradation, and
// (when present) every delay impact. Execution statistics are left out:
// an incremental and a from-scratch analysis of the same padding agree
// on results but not on pass counts.
func digest(noise *report.ResultJSON, delay *report.DelayResultJSON) string {
	h := sha256.New()
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	if noise != nil {
		for _, v := range noise.Violations {
			fmt.Fprintf(h, "V %s %s %s %s %s %s\n", v.Net, v.Receiver, v.State, f(v.Peak), f(v.Limit), f(v.Slack))
		}
		for _, n := range noise.Nets {
			fmt.Fprintf(h, "N %s %s %s\n", n.Net, f(n.Low.Peak), f(n.High.Peak))
		}
		for _, d := range noise.Degradations {
			fmt.Fprintf(h, "D %s %s %s\n", d.Net, d.Stage, d.Error)
		}
	}
	if delay != nil {
		for _, im := range delay.Impacts {
			fmt.Fprintf(h, "I %s %s %s %s\n", im.Net, im.Edge, f(im.NoisePeak), f(im.Delta))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// digestCore digests in-process results; dres may be nil.
func digestCore(res *core.Result, dres *core.DelayResult) string {
	var dj *report.DelayResultJSON
	if dres != nil {
		dj = report.BuildDelayJSON(dres)
	}
	return digest(report.BuildJSON(res), dj)
}

func checkDigest(what, got, want string) error {
	if got != want {
		return fmt.Errorf("%s: result digest %.12s differs from reference %.12s", what, got, want)
	}
	return nil
}

// fixpointReport is a fixpoint outcome as the checks compare it: its loop
// figures and its serialized noise and delay reports.
type fixpointReport struct {
	rounds       int
	converged    bool
	noise, delay []byte
}

func newFixpointReport(rounds int, converged bool, noise *core.Result, delay *core.DelayResult) (*fixpointReport, error) {
	r := &fixpointReport{rounds: rounds, converged: converged}
	var nb, db bytes.Buffer
	if err := report.WriteJSON(&nb, noise); err != nil {
		return nil, err
	}
	if err := report.WriteDelayJSON(&db, delay); err != nil {
		return nil, err
	}
	r.noise, r.delay = nb.Bytes(), db.Bytes()
	return r, nil
}

// checkSharded requires a healthy sharded fixpoint whose reports are
// byte-identical to the local fixpoint's.
func checkSharded(local *fixpointReport, out *shard.Outcome) error {
	if out.Degraded || out.Reassigns != 0 {
		return fmt.Errorf("sharded fixpoint degraded=%v reassigns=%d, want a healthy run", out.Degraded, out.Reassigns)
	}
	got, err := newFixpointReport(out.Rounds, out.Converged, out.Noise, out.Delay)
	if err != nil {
		return err
	}
	switch {
	case got.rounds != local.rounds || got.converged != local.converged:
		return fmt.Errorf("sharded fixpoint ran %d rounds (converged %v), local %d (converged %v)",
			got.rounds, got.converged, local.rounds, local.converged)
	case !bytes.Equal(got.noise, local.noise):
		return fmt.Errorf("sharded noise report differs from the local fixpoint's")
	case !bytes.Equal(got.delay, local.delay):
		return fmt.Errorf("sharded delay report differs from the local fixpoint's")
	}
	return nil
}

// checkWhatIf requires the session's incremental state to equal a
// from-scratch analysis under the session's padding.
func checkWhatIf(ctx context.Context, b *bind.Design, opts core.Options, sess *core.Session) error {
	opts.STA.WindowPadding = sess.Padding()
	res, err := core.AnalyzeCtx(ctx, b, opts)
	if err != nil {
		return err
	}
	dres, err := core.AnalyzeDelayCtx(ctx, b, opts)
	if err != nil {
		return err
	}
	return checkDigest("incremental what-if vs from-scratch", digestCore(sess.Noise(), sess.Delay()), digestCore(res, dres))
}

// checkResponse compares a served analysis with its in-process reference.
func checkResponse(what string, resp *server.AnalyzeResponse, want string) error {
	if resp == nil || resp.Noise == nil {
		return fmt.Errorf("%s: response carries no noise result", what)
	}
	return checkDigest(what, digest(resp.Noise, resp.Delay), want)
}

// checkJob requires a finished job whose result matches the reference.
func checkJob(j *report.JobJSON, want string) error {
	if j.State != "done" {
		return fmt.Errorf("job %s ended %s (%s), want done", j.ID, j.State, j.Error)
	}
	var resp server.AnalyzeResponse
	if err := json.Unmarshal(j.Result, &resp); err != nil {
		return fmt.Errorf("job %s result: %w", j.ID, err)
	}
	return checkResponse("job "+j.ID, &resp, want)
}
