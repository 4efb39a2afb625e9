package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"time"

	"repro/internal/bind"
	"repro/internal/core"
	"repro/internal/jobs"
	"repro/internal/report"
	"repro/internal/shard"
)

// Async jobs: POST /v1/jobs accepts a batch-analysis work order and
// returns 202 once the spec is journaled; a bounded worker pool
// (separate from the interactive admission gate, so batch work and
// interactive requests cannot starve each other) executes it with
// retry, per-attempt deadlines, and poison-job quarantine. The queue
// machinery lives in internal/jobs; this file owns the HTTP surface and
// the executor that maps job specs onto sessions and engines.

// SweepResult is the result payload of a sweep job: the session's
// design analyzed once per scenario point.
type SweepResult struct {
	Session string             `json:"session"`
	Points  []SweepPointResult `json:"points"`
}

// SweepPointResult is one sweep scenario's outcome.
type SweepPointResult struct {
	// Mode and Threshold echo the effective analysis knobs of this point
	// (the session's own values where the point didn't override).
	Mode      string  `json:"mode"`
	Threshold float64 `json:"threshold"`
	// Noise is the point's full analysis report.
	Noise *report.ResultJSON `json:"noise"`
}

func (s *Server) jobCheckpointDir() string {
	return filepath.Join(s.cfg.DataDir, "jobs", "checkpoints")
}

// jobFinal clears a terminal job's iterate checkpoint — the checkpoint
// outlives crashes (that is its job) but must not outlive the job.
func (s *Server) jobFinal(id string, state jobs.State) {
	if s.cfg.DataDir == "" {
		return
	}
	ck := &shard.FileCheckpointer{Dir: s.jobCheckpointDir()}
	if err := ck.Clear(id); err != nil {
		s.cfg.Logf("job %s: clearing checkpoint: %v", id, err)
	}
}

// execJob is the jobs.Executor: one attempt of one job, run by a job
// worker. It pins the session (reviving from the durable store when
// needed), serializes on the session's busy slot against interactive
// requests, and routes by job type. Deterministic failures — unknown
// session, unreplayable spec — are marked Permanent so the manager
// fails fast instead of burning the retry budget.
func (s *Server) execJob(ctx context.Context, id string, spec *jobs.Spec, attempt int) (json.RawMessage, bool, error) {
	start := time.Now()
	defer func() { s.histJobRun.Observe(time.Since(start).Seconds()) }()
	ss, einfo := s.retainOrRevive(ctx, spec.Session)
	if einfo != nil {
		if einfo.Kind == "budget" || einfo.Kind == "session_limit" || einfo.Kind == "canceled" {
			// The design didn't fit the memory budget, the session
			// registry was full of busy sessions, or this attempt's
			// context expired mid-revive; all transient, so let the
			// manager's retry/backoff absorb it instead of failing the
			// job permanently.
			return nil, false, errors.New(einfo.Message)
		}
		return nil, false, jobs.Permanent(errors.New(einfo.Message))
	}
	if ss == nil {
		return nil, false, jobs.Permanent(fmt.Errorf("no session %q", spec.Session))
	}
	defer s.releaseRef(ss)
	if !ss.acquire(ctx, s.forceCtx) {
		if err := ctx.Err(); err != nil {
			return nil, false, err
		}
		return nil, false, fmt.Errorf("drain interrupted job %s waiting for session %q", id, spec.Session)
	}
	resp, result, err := func() (*AnalyzeResponse, json.RawMessage, error) {
		// Release under defer: a panicking engine must not wedge the
		// session (the manager's recover barrier handles the panic
		// itself).
		defer ss.release()
		return s.runJobWork(ctx, ss, id, spec)
	}()
	if err != nil {
		// Engine failures feed the session breaker exactly like
		// interactive analyses; cancellation does not.
		if !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
			ss.recordOutcome(true, s.cfg.now(), s.cfg.BreakerTrips, s.cfg.BreakerCooldown)
		}
		return nil, false, err
	}
	degraded := false
	if resp != nil && resp.Noise != nil {
		degraded = resp.Noise.Stats.DegradedNets > 0
		ss.recordOutcome(degraded, s.cfg.now(), s.cfg.BreakerTrips, s.cfg.BreakerCooldown)
	}
	if resp != nil {
		body, merr := json.Marshal(resp)
		if merr != nil {
			return nil, degraded, fmt.Errorf("encoding job result: %w", merr)
		}
		// The job's analysis becomes the session's cached report, the
		// same as an interactive run — GET report serves it.
		ss.recordResult(resp, body)
		return body, degraded, nil
	}
	return result, degraded, nil
}

// runJobWork routes one attempt by job type. Analyze-shaped work
// returns an *AnalyzeResponse (cached on the session); sweep returns
// its own payload.
func (s *Server) runJobWork(ctx context.Context, ss *session, id string, spec *jobs.Spec) (*AnalyzeResponse, json.RawMessage, error) {
	switch spec.Type {
	case "analyze":
		eng, rebuilt, err := ss.ensureEngine(ctx)
		if err != nil {
			return nil, nil, err
		}
		resp := &AnalyzeResponse{Session: ss.name, Noise: report.BuildJSON(eng.Noise()), Rebuilt: rebuilt}
		if spec.Delay {
			resp.Delay = report.BuildDelayJSON(eng.Delay())
		}
		return resp, nil, nil
	case "reanalyze":
		eng, rebuilt, err := ss.ensureEngine(ctx)
		if err != nil {
			return nil, nil, err
		}
		res, changed, err := eng.Reanalyze(ctx, spec.Padding)
		if err != nil {
			return nil, nil, err
		}
		if changed > 0 {
			ss.padding = eng.Padding()
			s.persistPadding(ss)
		}
		resp := &AnalyzeResponse{Session: ss.name, Noise: report.BuildJSON(res), ChangedNets: changed, Rebuilt: rebuilt}
		if spec.Delay {
			resp.Delay = report.BuildDelayJSON(eng.Delay())
		}
		return resp, nil, nil
	case "iterate":
		resp, err := s.jobIterate(ctx, ss, id, spec)
		return resp, nil, err
	case "sweep":
		result, err := s.jobSweep(ctx, ss, spec)
		return nil, result, err
	}
	return nil, nil, jobs.Permanent(fmt.Errorf("unknown job type %q", spec.Type))
}

// jobIterate runs an iterate job through the shard coordinator even on
// the single-process path (one in-process worker): shard.Run is
// byte-identical to the direct iterative analysis when healthy, and it
// is what grants round-boundary checkpoints — the thing that makes a
// SIGKILL'd iterate job resume mid-fixpoint instead of starting over.
// The checkpoint token is the job ID, unique across restarts.
func (s *Server) jobIterate(ctx context.Context, ss *session, id string, spec *jobs.Spec) (*AnalyzeResponse, error) {
	workers := s.healthyWorkers()
	distributed := !spec.Local && len(workers) > 0 && ss.spec != nil
	shards := spec.Shards
	if !distributed {
		workers = []shard.Worker{shard.NewInProc("local", func(context.Context) (*bind.Design, error) {
			return ss.b, nil
		}, ss.opts)}
		shards = 1
	} else if shards <= 0 {
		shards = s.cfg.Shards
		if shards <= 0 {
			shards = len(workers)
		}
	}
	cfg := shard.Config{
		B:               ss.b,
		Opts:            ss.opts,
		Workers:         workers,
		Shards:          shards,
		Token:           id,
		MaxRounds:       spec.MaxRounds,
		DispatchTimeout: s.cfg.MaxRequestTimeout,
		Logf:            s.cfg.Logf,
	}
	if distributed {
		cfg.Design = designSpecOf(ss.spec)
	}
	if s.store != nil {
		cfg.Checkpointer = &shard.FileCheckpointer{Dir: s.jobCheckpointDir()}
	}
	out, err := shard.Run(ctx, cfg)
	if err != nil {
		return nil, err
	}
	resp := &AnalyzeResponse{
		Session: ss.name,
		Noise:   report.BuildJSON(out.Noise),
		Iterate: &IterateInfo{
			Rounds:          out.Rounds,
			Converged:       out.Converged,
			Diverging:       out.Diverging,
			DivergeReason:   out.DivergeReason,
			Distributed:     distributed,
			Workers:         len(workers),
			Shards:          shards,
			Reassigns:       out.Reassigns,
			AbandonedShards: out.AbandonedShards,
			Resumed:         out.Resumed,
		},
	}
	if spec.Delay {
		resp.Delay = report.BuildDelayJSON(out.Delay)
	}
	return resp, nil
}

// jobSweep analyzes the session's design once per scenario point, each
// under the point's mode/threshold overrides.
func (s *Server) jobSweep(ctx context.Context, ss *session, spec *jobs.Spec) (json.RawMessage, error) {
	out := SweepResult{Session: ss.name, Points: make([]SweepPointResult, 0, len(spec.Sweep))}
	for _, pt := range spec.Sweep {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		opts := ss.opts
		modeName := pt.Mode
		if modeName != "" {
			mode, err := parseMode(modeName)
			if err != nil {
				return nil, jobs.Permanent(err)
			}
			opts.Mode = mode
		} else {
			modeName = modeString(opts.Mode)
		}
		if pt.Threshold > 0 {
			opts.FilterThreshold = pt.Threshold
		}
		res, err := core.AnalyzeCtx(ctx, ss.b, opts)
		if err != nil {
			return nil, err
		}
		out.Points = append(out.Points, SweepPointResult{
			Mode:      modeName,
			Threshold: opts.FilterThreshold,
			Noise:     report.BuildJSON(res),
		})
	}
	body, err := json.Marshal(out)
	if err != nil {
		return nil, fmt.Errorf("encoding sweep result: %w", err)
	}
	return body, nil
}

func modeString(m core.Mode) string {
	switch m {
	case core.ModeAllAggressors:
		return "all"
	case core.ModeTimingWindows:
		return "timing"
	}
	return "noise"
}

// --- HTTP surface -----------------------------------------------------

// handleSubmitJob is POST /v1/jobs: validate, journal, 202. The 202 is
// written only after the spec's journal append fsyncs; a full queue
// sheds with 429 and a sick disk refuses with 503 storage — in both
// cases nothing was acknowledged and nothing is owed.
func (s *Server) handleSubmitJob(w http.ResponseWriter, r *http.Request) {
	var spec jobs.Spec
	if err := decodeBody(r.Body, &spec); err != nil {
		s.writeErr(w, http.StatusBadRequest, ErrorInfo{Kind: "bad_request", Message: err.Error()}, 0)
		return
	}
	// The transport-level tenant wins over the body's: proxies stamp the
	// header per caller, and a spec replayed from a template must not
	// smuggle another tenant's identity.
	if t := tenantOf(r); t != "" {
		spec.Tenant = t
	}
	snap, err := s.jobs.Submit(&spec)
	if err != nil {
		var se *jobs.StorageError
		switch {
		case errors.Is(err, jobs.ErrQueueFull):
			s.writeErr(w, http.StatusTooManyRequests, ErrorInfo{
				Kind:    "overloaded",
				Message: fmt.Sprintf("job queue of %d is full", s.cfg.JobQueueDepth),
				Session: spec.Session,
			}, s.cfg.RetryAfter)
		case errors.Is(err, jobs.ErrDraining):
			// Retry-After points the client at this server's replacement:
			// a drain precedes either a restart or a peer taking over.
			s.writeErr(w, http.StatusServiceUnavailable, ErrorInfo{
				Kind: "draining", Message: "server is draining; no new jobs accepted",
			}, s.cfg.RetryAfter)
		case errors.As(err, &se):
			s.writeErr(w, http.StatusServiceUnavailable, ErrorInfo{
				Kind:    "storage",
				Message: fmt.Sprintf("job not accepted: journal append failed: %v; retry once storage recovers", se.Err),
				Session: spec.Session,
			}, s.cfg.RetryAfter)
		default:
			s.writeErr(w, http.StatusBadRequest, ErrorInfo{Kind: "bad_request", Message: err.Error(), Session: spec.Session}, 0)
		}
		return
	}
	s.writeJSON(w, http.StatusAccepted, snap)
}

// handleListJobs is GET /v1/jobs, optionally filtered with ?state=:
// one of the lifecycle states, or the pseudo-state "quarantined"
// (failed jobs parked as poison — the ones an operator triages first).
func (s *Server) handleListJobs(w http.ResponseWriter, r *http.Request) {
	all := s.jobs.List()
	state := r.URL.Query().Get("state")
	if state == "" {
		s.writeJSON(w, http.StatusOK, JobsResponse{Jobs: all})
		return
	}
	switch state {
	case "queued", "running", "done", "failed", "canceled", "quarantined":
	default:
		s.writeErr(w, http.StatusBadRequest, ErrorInfo{
			Kind:    "bad_request",
			Message: fmt.Sprintf("unknown state filter %q (want queued|running|done|failed|canceled|quarantined)", state),
		}, 0)
		return
	}
	filtered := make([]report.JobJSON, 0, len(all))
	for _, j := range all {
		if state == "quarantined" {
			if j.Quarantined {
				filtered = append(filtered, j)
			}
		} else if j.State == state {
			filtered = append(filtered, j)
		}
	}
	s.writeJSON(w, http.StatusOK, JobsResponse{Jobs: filtered})
}

func (s *Server) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	snap, err := s.jobs.Get(id)
	if err != nil {
		s.writeErr(w, http.StatusNotFound, ErrorInfo{
			Kind: "not_found", Message: fmt.Sprintf("no job %q", id),
		}, 0)
		return
	}
	s.writeJSON(w, http.StatusOK, snap)
}

// handleCancelJob is DELETE /v1/jobs/{id}. The cancel intent is
// journaled before the response: 200 when the job is already terminal
// in the canceled state, 202 while a running attempt unwinds, 409 for
// done/failed jobs (there is nothing left to cancel).
func (s *Server) handleCancelJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	snap, err := s.jobs.Cancel(id)
	if err != nil {
		var se *jobs.StorageError
		switch {
		case errors.Is(err, jobs.ErrNotFound):
			s.writeErr(w, http.StatusNotFound, ErrorInfo{
				Kind: "not_found", Message: fmt.Sprintf("no job %q", id),
			}, 0)
		case errors.Is(err, jobs.ErrTerminal):
			s.writeErr(w, http.StatusConflict, ErrorInfo{
				Kind: "conflict", Message: fmt.Sprintf("job %q already finished as %s", id, snap.State),
			}, 0)
		case errors.As(err, &se):
			s.writeErr(w, http.StatusServiceUnavailable, ErrorInfo{
				Kind:    "storage",
				Message: fmt.Sprintf("cancel not accepted: journal append failed: %v; retry once storage recovers", se.Err),
			}, s.cfg.RetryAfter)
		default:
			s.writeErr(w, http.StatusInternalServerError, ErrorInfo{Kind: "engine", Message: err.Error()}, 0)
		}
		return
	}
	status := http.StatusAccepted
	if snap.State == string(jobs.StateCanceled) {
		status = http.StatusOK
	}
	s.writeJSON(w, status, snap)
}
