// Package jobs is snad's durable asynchronous job subsystem: a bounded
// worker pool executing batch analyses (analyze / reanalyze / iterate /
// sweep) submitted over the HTTP API, with the same
// journal-before-acknowledge durability discipline as the session store.
//
// The contract, in the order the robustness machinery earns it:
//
//   - A 202-acknowledged submit is durable: the job spec is framed,
//     appended, and fsynced (internal/wal) before Submit returns, so a
//     crash immediately after cannot lose the job.
//
//   - Every state transition (queued → running → done/failed/canceled)
//     is journaled. A SIGKILL'd server replays the journal on boot:
//     queued jobs re-enqueue, in-flight jobs re-enqueue with their
//     interrupted attempt counted (the "start" record lands before the
//     attempt runs), finished jobs keep their results.
//
//   - Poison jobs are quarantined, not retried forever: each attempt
//     runs under a recover barrier, and a job that panics, degrades the
//     engine, or dies with the process MaxAttempts times is parked as
//     failed-with-Diag records — while the rest of the queue keeps
//     draining.
//
//   - Admission is bounded: past MaxQueued waiting jobs Submit refuses
//     with ErrQueueFull (the server maps it to 429 + Retry-After).
//
//   - Storage faults fail soft, never a lost ack: a journal append
//     failure refuses the submit with a StorageError (503 storage), and
//     the in-memory queue never runs ahead of the durable state.
//
//   - Graceful drain requeues: Close cancels running attempts through
//     their contexts and journals a "requeue" so a clean shutdown does
//     not burn an attempt; iterate jobs additionally checkpoint at round
//     boundaries (shard.FileCheckpointer, wired by the server's
//     executor), so the next boot resumes mid-fixpoint instead of
//     rerunning from scratch.
//
// The package is deliberately engine-agnostic: execution is an injected
// Executor callback, so the queue machinery is unit-testable without a
// design database, and the server owns the mapping from job specs onto
// sessions.
package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fairq"
	"repro/internal/report"
	"repro/internal/wal"
)

// State is a job's position in the lifecycle state machine.
type State string

const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// Terminal reports whether s is a final state.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Spec is one job's work order — the JSON body of POST /v1/jobs. It is
// journaled verbatim, so everything needed to re-run the job after a
// restart lives here.
type Spec struct {
	// Session names the session the job runs against.
	Session string `json:"session"`
	// Tenant attributes the job for fair scheduling: workers round-robin
	// across tenants with queued jobs, so one tenant flooding the queue
	// cannot starve another's submissions. Empty is the shared anonymous
	// tenant. Journaled with the spec, so fairness survives a restart.
	Tenant string `json:"tenant,omitempty"`
	// Type is "analyze", "reanalyze", "iterate", or "sweep".
	Type string `json:"type"`
	// Delay includes the crosstalk delta-delay section in the result.
	Delay bool `json:"delay,omitempty"`
	// Padding is the per-net late-edge window padding of a reanalyze job
	// (seconds, max-monotonic — re-running a replayed job is absorbed).
	Padding map[string]float64 `json:"padding,omitempty"`
	// MaxRounds bounds an iterate job's fixpoint loop (0 = server
	// default).
	MaxRounds int `json:"maxRounds,omitempty"`
	// Shards overrides an iterate job's shard count (0 = one per healthy
	// worker).
	Shards int `json:"shards,omitempty"`
	// Local forces an iterate job onto the single-process path even when
	// workers are registered.
	Local bool `json:"local,omitempty"`
	// Sweep lists the scenario points of a sweep job, analyzed in order.
	Sweep []SweepPoint `json:"sweep,omitempty"`
	// Deadline bounds each execution attempt, as a duration string like
	// "90s" (empty = manager default).
	Deadline string `json:"deadline,omitempty"`
	// MaxAttempts is the retry budget (0 = manager default).
	MaxAttempts int `json:"maxAttempts,omitempty"`
}

// SweepPoint is one scenario of a sweep job: the session's design
// analyzed under an alternative mode/threshold.
type SweepPoint struct {
	// Mode overrides the combination policy ("all", "timing", "noise";
	// empty keeps the session's).
	Mode string `json:"mode,omitempty"`
	// Threshold overrides the aggressor filter threshold (0 keeps the
	// session's).
	Threshold float64 `json:"threshold,omitempty"`
}

// Validate rejects specs that could never execute. It runs at submit
// (before the journal ack) and again at replay — a journaled spec that
// stops validating is quarantined, not retried forever.
func (s *Spec) Validate() error {
	if s.Session == "" {
		return fmt.Errorf("job session is required")
	}
	switch s.Type {
	case "analyze", "iterate":
	case "reanalyze":
		if len(s.Padding) == 0 {
			return fmt.Errorf("reanalyze job needs a padding map")
		}
	case "sweep":
		if len(s.Sweep) == 0 {
			return fmt.Errorf("sweep job needs at least one sweep point")
		}
	default:
		return fmt.Errorf("unknown job type %q (want analyze|reanalyze|iterate|sweep)", s.Type)
	}
	for net, pad := range s.Padding {
		if pad < 0 || pad != pad || pad-pad != 0 { // negative, NaN, or Inf
			return fmt.Errorf("bad padding %v for net %q (want finite seconds >= 0)", pad, net)
		}
	}
	for i, pt := range s.Sweep {
		if pt.Threshold < 0 || pt.Threshold != pt.Threshold || pt.Threshold-pt.Threshold != 0 { // negative, NaN, or Inf
			return fmt.Errorf("bad threshold %v in sweep point %d (want finite >= 0)", pt.Threshold, i)
		}
	}
	if s.Deadline != "" {
		d, err := time.ParseDuration(s.Deadline)
		if err != nil || d <= 0 {
			return fmt.Errorf("bad deadline %q (want a positive duration like 90s)", s.Deadline)
		}
	}
	if s.MaxAttempts < 0 {
		return fmt.Errorf("bad maxAttempts %d", s.MaxAttempts)
	}
	return nil
}

// Executor runs one attempt of one job. It returns the result payload
// (the bytes GET /v1/jobs/{id} serves once the job is done), whether
// the engine degraded, and an error. Wrap deterministic failures in
// Permanent so the manager fails fast instead of burning retries.
type Executor func(ctx context.Context, id string, spec *Spec, attempt int) (result json.RawMessage, degraded bool, err error)

// Config tunes a Manager. The zero value of every field has a usable
// default except Exec, which is required.
type Config struct {
	// Dir is the job journal directory; empty runs memory-only (jobs die
	// with the process — the pre-durability behavior).
	Dir string
	// Workers is the job worker pool size (default 2). Job workers are a
	// separate bounded pool from the HTTP admission gate: a queue full
	// of batch work must not starve interactive requests, and vice
	// versa.
	Workers int
	// MaxQueued bounds waiting jobs; Submit past it returns ErrQueueFull
	// (default 16).
	MaxQueued int
	// TenantCap bounds how many of one tenant's jobs may run at once:
	// set below Workers, a late-arriving tenant gets a worker as soon as
	// the flooding tenant hits its cap, not after the flood drains. 0 or
	// > Workers means Workers — single-tenant deployments keep full
	// throughput.
	TenantCap int
	// DefaultMaxAttempts is the retry budget for specs that don't set
	// one (default 3).
	DefaultMaxAttempts int
	// DefaultDeadline bounds each attempt for specs that don't set one
	// (default 5m).
	DefaultDeadline time.Duration
	// Backoff is the base retry delay, doubled per failed attempt and
	// capped at 16x (default 250ms).
	Backoff time.Duration
	// CompactEvery bounds journal growth: the journal is rewritten from
	// live state after this many records (default 256).
	CompactEvery int
	// KeepDone bounds terminal-job retention: compaction prunes all but
	// the newest this-many finished jobs (default 64).
	KeepDone int
	// Hooks is the write-path fault-injection seam (chaos tests).
	Hooks wal.Hooks
	// Exec executes attempts. Required.
	Exec Executor
	// Fault, when set, fires at the top of every attempt before Exec —
	// the job-level chaos injector (workload.JobFaults.Fire). It may
	// panic, hang on ctx, force an error, or force a degraded outcome.
	Fault func(ctx context.Context, jobType string) (degrade bool, err error)
	// OnFinal is called (outside the manager lock) when a job reaches a
	// terminal state; the server uses it to clear iterate checkpoints.
	OnFinal func(id string, state State)
	// Logf receives operational log lines; nil discards them.
	Logf func(format string, args ...any)
}

func (c *Config) fill() {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.MaxQueued <= 0 {
		c.MaxQueued = 16
	}
	if c.TenantCap <= 0 || c.TenantCap > c.Workers {
		c.TenantCap = c.Workers
	}
	if c.DefaultMaxAttempts <= 0 {
		c.DefaultMaxAttempts = 3
	}
	if c.DefaultDeadline <= 0 {
		c.DefaultDeadline = 5 * time.Minute
	}
	if c.Backoff <= 0 {
		c.Backoff = 250 * time.Millisecond
	}
	if c.CompactEvery <= 0 {
		c.CompactEvery = 256
	}
	if c.KeepDone <= 0 {
		c.KeepDone = 64
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
}

// Sentinel errors of the admission and cancel paths. StorageError wraps
// journal failures so the server can map them to 503 storage.
var (
	// ErrQueueFull refuses a submit past the MaxQueued bound (429).
	ErrQueueFull = errors.New("job queue is full")
	// ErrNotFound reports an unknown job ID (404).
	ErrNotFound = errors.New("no such job")
	// ErrTerminal refuses canceling a job that already finished (409).
	ErrTerminal = errors.New("job already finished")
	// ErrDraining refuses submits after Close began (503).
	ErrDraining = errors.New("job manager is draining")
)

// StorageError marks a journal append failure: the operation was NOT
// acknowledged and the in-memory state was not changed — retryable once
// the disk recovers.
type StorageError struct{ Err error }

func (e *StorageError) Error() string { return fmt.Sprintf("job journal: %v", e.Err) }
func (e *StorageError) Unwrap() error { return e.Err }

// permanentError marks an executor failure that would recur on any
// retry (unknown session, unbuildable spec).
type permanentError struct{ err error }

func (e *permanentError) Error() string { return e.err.Error() }
func (e *permanentError) Unwrap() error { return e.err }

// Permanent wraps an executor error so the manager fails the job
// immediately instead of retrying a deterministic failure.
func Permanent(err error) error {
	if err == nil {
		return nil
	}
	return &permanentError{err: err}
}

// IsPermanent reports whether err carries the Permanent marker.
func IsPermanent(err error) bool {
	var pe *permanentError
	return errors.As(err, &pe)
}

// job is one job's runtime state; every field is guarded by the
// manager's mu.
type job struct {
	id          string
	spec        *Spec
	state       State
	attempts    int
	maxAttempts int
	deadline    time.Duration
	diags       []report.JobDiagJSON
	errMsg      string
	quarantined bool
	result      json.RawMessage

	submittedAt time.Time
	startedAt   time.Time
	finishedAt  time.Time

	cancelRequested bool
	// cancel tears down the running attempt's context; non-nil exactly
	// while an attempt executes.
	cancel context.CancelFunc
}

// Manager owns the queue, the journal, and the worker pool. Open one
// with Open; it is safe for concurrent use.
type Manager struct {
	cfg Config

	mu     sync.Mutex
	log    *wal.Log[record, *record]
	nextID uint64
	jobs   map[string]*job
	// q is the tenant-fair dispatch queue (internal/fairq): workers claim
	// round-robin across tenants, at most TenantCap of one tenant's jobs
	// at once. cond wakes workers on pushes, slot releases, and shutdown.
	q      *fairq.Queue[*job]
	cond   *sync.Cond
	closed bool

	// baseCtx dies when Close begins; every attempt context derives from
	// it, so a drain cancels running work cooperatively.
	baseCtx    context.Context
	baseCancel context.CancelFunc
	wg         sync.WaitGroup

	doneTotal     atomic.Uint64
	failedTotal   atomic.Uint64
	canceledTotal atomic.Uint64
	quarantinedN  atomic.Uint64
}

// Open builds a Manager: replays the journal (when Dir is set), repairs
// its tail, finalizes or re-enqueues interrupted jobs, and starts the
// worker pool. Like the session store, corrupt records never fail the
// boot — only a structurally unusable directory does.
func Open(cfg Config) (*Manager, error) {
	cfg.fill()
	if cfg.Exec == nil {
		return nil, fmt.Errorf("jobs: Config.Exec is required")
	}
	m := &Manager{
		cfg:    cfg,
		nextID: 1,
		jobs:   make(map[string]*job),
		q:      fairq.New[*job](cfg.Workers, cfg.TenantCap),
	}
	m.cond = sync.NewCond(&m.mu)
	m.baseCtx, m.baseCancel = context.WithCancel(context.Background())
	if cfg.Dir != "" {
		if err := m.openLog(); err != nil {
			return nil, err
		}
		// Boot compaction prunes terminal jobs; when it fails the replayed
		// (tail-repaired) journal stays in use.
		m.compactLocked()
		m.recoverInterrupted()
	}
	for i := 0; i < cfg.Workers; i++ {
		m.wg.Add(1)
		go m.worker()
	}
	return m, nil
}

// Submit validates, journals, and enqueues one job, returning its
// acknowledged status snapshot. The journal append happens BEFORE the
// return — the ackorder discipline: a 202 the caller sends is backed by
// an fsynced record.
func (m *Manager) Submit(spec *Spec) (*report.JobJSON, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, ErrDraining
	}
	queued := 0
	for _, j := range m.jobs {
		if j.state == StateQueued {
			queued++
		}
	}
	if queued >= m.cfg.MaxQueued {
		m.mu.Unlock()
		return nil, ErrQueueFull
	}
	id := fmt.Sprintf("job-%06d", m.nextID)
	if err := m.appendLocked(&record{Type: recSubmit, ID: id, Spec: spec}); err != nil {
		m.mu.Unlock()
		return nil, &StorageError{Err: err}
	}
	m.nextID++
	j := m.newJob(id, spec, time.Now().UTC())
	m.jobs[id] = j
	m.q.Push(spec.Tenant, j)
	snap := m.snapshotLocked(j)
	m.maybeCompactLocked()
	m.mu.Unlock()
	m.cond.Signal()
	m.cfg.Logf("jobs: %s submitted (%s on %q)", id, spec.Type, spec.Session)
	return snap, nil
}

// Get returns one job's status snapshot, or ErrNotFound.
func (m *Manager) Get(id string) (*report.JobJSON, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j := m.jobs[id]
	if j == nil {
		return nil, ErrNotFound
	}
	return m.snapshotLocked(j), nil
}

// List returns every retained job's status, sorted by ID (IDs are
// zero-padded, so lexical order is submission order).
func (m *Manager) List() []report.JobJSON {
	m.mu.Lock()
	defer m.mu.Unlock()
	ids := m.sortedIDsLocked()
	out := make([]report.JobJSON, 0, len(ids))
	for _, id := range ids {
		out = append(out, *m.snapshotLocked(m.jobs[id]))
	}
	return out
}

// Cancel requests a job's cancellation. The intent is journaled before
// the call returns (a crash after the ack must not resurrect the job as
// runnable): a queued job finalizes canceled immediately, a running job
// has its attempt context cancelled and finalizes when the executor
// returns. Canceling an already-canceled job is idempotent; canceling a
// done/failed job returns ErrTerminal.
func (m *Manager) Cancel(id string) (*report.JobJSON, error) {
	m.mu.Lock()
	j := m.jobs[id]
	if j == nil {
		m.mu.Unlock()
		return nil, ErrNotFound
	}
	if j.state == StateCanceled {
		snap := m.snapshotLocked(j)
		m.mu.Unlock()
		return snap, nil
	}
	if j.state.Terminal() {
		snap := m.snapshotLocked(j)
		m.mu.Unlock()
		return snap, ErrTerminal
	}
	if j.cancelRequested {
		snap := m.snapshotLocked(j)
		m.mu.Unlock()
		return snap, nil
	}
	var final bool
	if j.state == StateQueued {
		// Not yet claimed (or parked between retry attempts): the
		// terminal record can land right now.
		if err := m.appendLocked(&record{Type: recCanceled, ID: id}); err != nil {
			m.mu.Unlock()
			return nil, &StorageError{Err: err}
		}
		j.cancelRequested = true
		// Parked between retry attempts, the job is owned by its worker
		// rather than queued; the worker sees the canceled state.
		m.q.Remove(j.spec.Tenant, j)
		m.finalizeLocked(j, StateCanceled, "", false, nil)
		final = true
	} else {
		if err := m.appendLocked(&record{Type: recCancel, ID: id}); err != nil {
			m.mu.Unlock()
			return nil, &StorageError{Err: err}
		}
		j.cancelRequested = true
		if j.cancel != nil {
			j.cancel()
		}
	}
	snap := m.snapshotLocked(j)
	m.mu.Unlock()
	if final {
		m.notifyFinal(id, StateCanceled)
	}
	m.cfg.Logf("jobs: %s cancel requested", id)
	return snap, nil
}

// Metrics is a point-in-time gauge/counter snapshot for /metrics and
// /readyz.
type Metrics struct {
	Queued          int
	Running         int
	Done            uint64
	Failed          uint64
	Canceled        uint64
	Quarantined     uint64
	StorageDegraded bool
}

// MetricsSnapshot collects the current job gauges and counters.
func (m *Manager) MetricsSnapshot() Metrics {
	m.mu.Lock()
	var queued, running int
	for _, j := range m.jobs {
		switch j.state {
		case StateQueued:
			queued++
		case StateRunning:
			running++
		}
	}
	m.mu.Unlock()
	return Metrics{
		Queued:          queued,
		Running:         running,
		Done:            m.doneTotal.Load(),
		Failed:          m.failedTotal.Load(),
		Canceled:        m.canceledTotal.Load(),
		Quarantined:     m.quarantinedN.Load(),
		StorageDegraded: m.log != nil && m.log.Degraded(),
	}
}

// Close drains the pool: no new attempts start, running attempts are
// cancelled through their contexts (iterate jobs have round-boundary
// checkpoints, so nothing of value is lost), and a "requeue" record
// refunds each interrupted attempt so a clean shutdown never burns the
// retry budget. Blocks until the workers exit or budget elapses.
func (m *Manager) Close(budget time.Duration) {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	m.mu.Unlock()
	m.baseCancel()
	m.cond.Broadcast()
	done := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(budget):
		m.cfg.Logf("jobs: drain budget %s exceeded; abandoning worker wait", budget)
	}
	m.mu.Lock()
	if m.log != nil {
		m.log.Close()
	}
	m.mu.Unlock()
}

// --- worker pool ------------------------------------------------------

func (m *Manager) worker() {
	defer m.wg.Done()
	for {
		j := m.next()
		if j == nil {
			return
		}
		m.runJob(j)
		m.releaseSlot(j.spec.Tenant)
	}
}

// next blocks for the next claimable job, or nil at shutdown. A job is
// claimable when its tenant is under TenantCap; claiming charges the
// tenant's running slot for the whole runJob (including retry backoffs
// — the worker is occupied either way), released by releaseSlot.
func (m *Manager) next() *job {
	m.mu.Lock()
	defer m.mu.Unlock()
	for {
		if m.closed {
			return nil
		}
		if j, ok := m.q.Claim(); ok {
			return j
		}
		m.cond.Wait()
	}
}

// releaseSlot returns a tenant's running slot and wakes a waiting
// worker — the release may make a previously capped tenant's queued
// jobs claimable even though nothing new was enqueued.
func (m *Manager) releaseSlot(tenant string) {
	m.mu.Lock()
	m.q.Release(tenant)
	m.mu.Unlock()
	m.cond.Signal()
}

// runJob drives one job through its attempt loop to a terminal state —
// or parks it back to queued when the manager drains mid-attempt.
func (m *Manager) runJob(j *job) {
	for {
		m.mu.Lock()
		if j.state != StateQueued || m.closed {
			// Canceled between claim and start, or drain began: a queued
			// job's journal state already replays to queued.
			m.mu.Unlock()
			return
		}
		attempt := j.attempts + 1
		// The start record lands BEFORE the attempt runs, so a process
		// death mid-attempt still consumes the attempt on replay — the
		// poison-quarantine counter survives crashes. An append failure
		// here is logged and the attempt runs anyway: refusing work
		// because bookkeeping failed would turn a sick disk into a dead
		// queue.
		if err := m.appendLocked(&record{Type: recStart, ID: j.id, Attempt: attempt}); err != nil {
			m.cfg.Logf("jobs: %s attempt %d not journaled (running anyway): %v", j.id, attempt, err)
		}
		j.attempts = attempt
		j.state = StateRunning
		j.startedAt = time.Now().UTC()
		jctx, cancel := context.WithCancel(m.baseCtx)
		j.cancel = cancel
		deadline := j.deadline
		m.mu.Unlock()

		actx, acancel := jctx, context.CancelFunc(func() {})
		if deadline > 0 {
			actx, acancel = context.WithTimeout(jctx, deadline)
		}
		result, degraded, err, panicked := m.safeExec(actx, j, attempt)
		deadlineHit := actx.Err() == context.DeadlineExceeded
		acancel()
		cancel()

		m.mu.Lock()
		j.cancel = nil
		canceled := j.cancelRequested
		draining := m.closed || m.baseCtx.Err() != nil

		switch {
		case canceled && (err != nil || degraded):
			// Any failure after a cancel request is attributed to the
			// cancel; a fully successful result still wins below.
			m.finalizeLocked(j, StateCanceled, "", false, nil)
			m.mu.Unlock()
			m.notifyFinal(j.id, StateCanceled)
			return
		case err == nil && !degraded:
			m.finalizeLocked(j, StateDone, "", false, result)
			m.mu.Unlock()
			m.notifyFinal(j.id, StateDone)
			return
		case draining && err != nil && !IsPermanent(err):
			// The drain cancelled the attempt; refund it so a clean
			// shutdown costs no retry budget. Replay of start+requeue
			// nets out to a queued job.
			if aerr := m.appendLocked(&record{Type: recRequeue, ID: j.id, Attempt: attempt}); aerr != nil {
				m.cfg.Logf("jobs: %s requeue not journaled (replay will count the attempt): %v", j.id, aerr)
			}
			j.attempts--
			j.state = StateQueued
			m.mu.Unlock()
			return
		}

		// A failed attempt: classify, record the diagnostic, then retry,
		// quarantine, or fail.
		stage := "error"
		switch {
		case panicked:
			stage = "panic"
		case err == nil && degraded:
			stage = "degraded"
		case deadlineHit:
			stage = "deadline"
		}
		msg := "engine degraded the analysis"
		if err != nil {
			msg = err.Error()
		}
		diag := report.JobDiagJSON{
			Attempt: attempt,
			Stage:   stage,
			Error:   msg,
			Time:    time.Now().UTC().Format(time.RFC3339Nano),
		}
		j.diags = append(j.diags, diag)
		if aerr := m.appendLocked(&record{Type: recAttempt, ID: j.id, Attempt: attempt, Stage: stage, Error: msg}); aerr != nil {
			m.cfg.Logf("jobs: %s attempt diag not journaled: %v", j.id, aerr)
		}

		if IsPermanent(err) {
			m.finalizeLocked(j, StateFailed, msg, false, nil)
			m.mu.Unlock()
			m.notifyFinal(j.id, StateFailed)
			return
		}
		if j.attempts >= j.maxAttempts {
			// Out of budget. Panic and degraded outcomes mark the job as
			// poison — quarantined so operators can tell "this job broke
			// the engine" from "this job just kept failing". A degraded
			// last result is retained as evidence.
			quarantine := stage == "panic" || stage == "degraded"
			var keep json.RawMessage
			if stage == "degraded" {
				keep = result
			}
			m.finalizeLocked(j, StateFailed,
				fmt.Sprintf("%s on attempt %d/%d: %s", stage, attempt, j.maxAttempts, msg),
				quarantine, keep)
			m.mu.Unlock()
			m.notifyFinal(j.id, StateFailed)
			return
		}
		// Park as queued during the backoff: a Cancel in this window
		// takes the immediate queued path, and the loop's state check
		// honors it.
		j.state = StateQueued
		backoff := m.backoffFor(j.attempts)
		m.mu.Unlock()
		m.cfg.Logf("jobs: %s attempt %d/%d failed (%s): %s; retrying in %s", j.id, attempt, j.maxAttempts, stage, msg, backoff)
		select {
		case <-time.After(backoff):
		case <-m.baseCtx.Done():
			// Drain during backoff: the attempt was genuinely spent; the
			// journal already replays this job to queued.
			return
		}
	}
}

// safeExec runs one attempt under the recover barrier: a panicking
// executor (or fault hook) kills the attempt, not the worker.
func (m *Manager) safeExec(ctx context.Context, j *job, attempt int) (result json.RawMessage, degraded bool, err error, panicked bool) {
	defer func() {
		if p := recover(); p != nil {
			result, degraded = nil, false
			err = fmt.Errorf("job executor panicked: %v", p)
			panicked = true
		}
	}()
	if m.cfg.Fault != nil {
		d, ferr := m.cfg.Fault(ctx, j.spec.Type)
		if ferr != nil {
			return nil, d, ferr, false
		}
		degraded = d
	}
	res, d, err := m.cfg.Exec(ctx, j.id, j.spec, attempt)
	return res, degraded || d, err, false
}

// backoffFor is the exponential retry delay: Backoff × 2^(attempts-1),
// capped at 16× so a long budget cannot stall the worker for minutes.
func (m *Manager) backoffFor(attempts int) time.Duration {
	d := m.cfg.Backoff
	for i := 1; i < attempts && d < 16*m.cfg.Backoff; i++ {
		d *= 2
	}
	if d > 16*m.cfg.Backoff {
		d = 16 * m.cfg.Backoff
	}
	return d
}

// finalizeLocked journals and applies a terminal transition. The append
// is fail-soft: the work already happened, and the state is preserved
// in memory even when the disk refuses the record (the next boot may
// then re-run the job — re-running a completed analysis is idempotent
// by the engine's determinism oracle, while losing an acknowledged
// result would not be).
func (m *Manager) finalizeLocked(j *job, state State, errMsg string, quarantined bool, result json.RawMessage) {
	var typ string
	switch state {
	case StateDone:
		typ = recDone
	case StateCanceled:
		typ = recCanceled
	default:
		typ = recFail
	}
	rec := &record{Type: typ, ID: j.id, Error: errMsg, Quarantined: quarantined, Result: result}
	if err := m.appendLocked(rec); err != nil {
		m.cfg.Logf("jobs: %s %s record not journaled: %v", j.id, typ, err)
	}
	j.state = state
	j.errMsg = errMsg
	j.quarantined = quarantined
	if result != nil {
		j.result = result
	}
	j.finishedAt = time.Now().UTC()
	switch state {
	case StateDone:
		m.doneTotal.Add(1)
	case StateCanceled:
		m.canceledTotal.Add(1)
	default:
		m.failedTotal.Add(1)
		if quarantined {
			m.quarantinedN.Add(1)
		}
	}
	m.maybeCompactLocked()
	m.cfg.Logf("jobs: %s -> %s%s", j.id, state, map[bool]string{true: " (quarantined)", false: ""}[quarantined])
}

// notifyFinal runs the OnFinal callback outside the manager lock.
func (m *Manager) notifyFinal(id string, state State) {
	if m.cfg.OnFinal != nil {
		m.cfg.OnFinal(id, state)
	}
}

// --- resolved knobs and snapshots -------------------------------------

// sortedIDsLocked returns every retained job ID in submission order
// (IDs are zero-padded, so lexical order is submission order).
func (m *Manager) sortedIDsLocked() []string {
	ids := make([]string, 0, len(m.jobs))
	for id := range m.jobs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// newJob is a queued job with the manager's resolved knobs.
func (m *Manager) newJob(id string, spec *Spec, submitted time.Time) *job {
	return &job{
		id:          id,
		spec:        spec,
		state:       StateQueued,
		maxAttempts: m.maxAttemptsOf(spec),
		deadline:    m.deadlineOf(spec),
		submittedAt: submitted,
	}
}

func (m *Manager) maxAttemptsOf(s *Spec) int {
	if s.MaxAttempts > 0 {
		return s.MaxAttempts
	}
	return m.cfg.DefaultMaxAttempts
}

func (m *Manager) deadlineOf(s *Spec) time.Duration {
	if s.Deadline != "" {
		if d, err := time.ParseDuration(s.Deadline); err == nil && d > 0 {
			return d
		}
	}
	return m.cfg.DefaultDeadline
}

func (m *Manager) snapshotLocked(j *job) *report.JobJSON {
	out := &report.JobJSON{
		ID:              j.id,
		Session:         j.spec.Session,
		Type:            j.spec.Type,
		Tenant:          j.spec.Tenant,
		State:           string(j.state),
		Attempts:        j.attempts,
		MaxAttempts:     j.maxAttempts,
		Error:           j.errMsg,
		Quarantined:     j.quarantined,
		Deadline:        j.deadline.String(),
		CancelRequested: j.cancelRequested && !j.state.Terminal(),
		Result:          j.result,
	}
	if len(j.diags) > 0 {
		out.Diags = append([]report.JobDiagJSON(nil), j.diags...)
	}
	if !j.submittedAt.IsZero() {
		out.SubmittedAt = j.submittedAt.Format(time.RFC3339Nano)
	}
	if !j.startedAt.IsZero() {
		out.StartedAt = j.startedAt.Format(time.RFC3339Nano)
	}
	if !j.finishedAt.IsZero() {
		out.FinishedAt = j.finishedAt.Format(time.RFC3339Nano)
	}
	return out
}
