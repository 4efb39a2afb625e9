package jobs

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"time"

	"repro/internal/report"
	"repro/internal/wal"
)

// The job journal (jobs.wal) is a client of internal/wal's record log,
// in its own file so the job subsystem fails and recovers independently
// of the session store. This file keeps only the job record schema, the
// function that applies a replayed record, and the snapshot builder
// compaction writes; sequencing, replay repair, quarantine and atomic
// compaction are the log's.
//
// Record types, in lifecycle order:
//
//	submit    {id, spec}            the durable ack behind POST /v1/jobs
//	start     {id, attempt}         appended BEFORE an attempt runs, so a
//	                                crash mid-attempt still consumes it
//	attempt   {id, attempt, stage,  a failed attempt's diagnostic
//	           error}
//	requeue   {id, attempt}         a drain interrupted the attempt; it
//	                                is refunded (replay decrements)
//	cancel    {id}                  cancel intent (journaled before the
//	                                DELETE ack; the terminal record follows
//	                                when the attempt unwinds)
//	done      {id, result}          terminal: success, with the payload
//	fail      {id, error,           terminal: retries exhausted or
//	           quarantined}         permanent failure
//	canceled  {id}                  terminal: cancel completed
//	job       {job}                 a full snapshot, written by compaction
//	meta      {nextId, generation}  the ID counter, so pruning terminal
//	                                jobs never reuses their IDs, and the
//	                                log's compaction generation
const (
	recSubmit   = "submit"
	recStart    = "start"
	recAttempt  = "attempt"
	recRequeue  = "requeue"
	recCancel   = "cancel"
	recDone     = "done"
	recFail     = "fail"
	recCanceled = "canceled"
	recJob      = "job"
	recMeta     = "meta"
)

const journalFile = "jobs.wal"

// record is one journaled job event. Seq is assigned by the log and is
// monotonic within the file.
type record struct {
	Seq         uint64          `json:"seq"`
	Type        string          `json:"type"`
	ID          string          `json:"id,omitempty"`
	Spec        *Spec           `json:"spec,omitempty"`
	Attempt     int             `json:"attempt,omitempty"`
	Stage       string          `json:"stage,omitempty"`
	Error       string          `json:"error,omitempty"`
	Quarantined bool            `json:"quarantined,omitempty"`
	Result      json.RawMessage `json:"result,omitempty"`
	Job         *jobSnapshot    `json:"job,omitempty"`
	NextID      uint64          `json:"nextId,omitempty"`
	Gen         uint64          `json:"generation,omitempty"`
	Time        string          `json:"time,omitempty"`
}

func (r *record) Stamp(seq uint64, at string) { r.Seq, r.Time = seq, at }
func (r *record) Sequence() uint64            { return r.Seq }
func (r *record) Generation() uint64          { return r.Gen }

func (r *record) Key() string {
	if r.Job != nil {
		return r.Job.ID
	}
	return r.ID
}

// jobSnapshot is a job's full durable state, used by compaction to
// collapse a record chain into one frame.
type jobSnapshot struct {
	ID              string               `json:"id"`
	Spec            *Spec                `json:"spec"`
	State           State                `json:"state"`
	Attempts        int                  `json:"attempts"`
	Diags           []report.JobDiagJSON `json:"diags,omitempty"`
	Error           string               `json:"error,omitempty"`
	Quarantined     bool                 `json:"quarantined,omitempty"`
	Result          json.RawMessage      `json:"result,omitempty"`
	CancelRequested bool                 `json:"cancelRequested,omitempty"`
	SubmittedAt     string               `json:"submittedAt,omitempty"`
	StartedAt       string               `json:"startedAt,omitempty"`
	FinishedAt      string               `json:"finishedAt,omitempty"`
}

// appendLocked journals one record. Callers decide whether a failure
// is fatal to their operation (submit/cancel: yes, the ack is refused)
// or fail-soft (attempt bookkeeping: the work proceeds). Memory-only
// managers (no Dir) treat every append as a success.
func (m *Manager) appendLocked(rec *record) error {
	if m.log == nil {
		return nil
	}
	return m.log.Append(rec)
}

// openLog replays the journal into the job table and keeps it open for
// appends. Corrupt content never fails the boot (the log quarantines
// it); only a structurally unusable file does.
func (m *Manager) openLog() error {
	log, _, err := wal.Open(filepath.Join(m.cfg.Dir, journalFile), wal.Options{
		Name:         "jobs",
		CompactEvery: m.cfg.CompactEvery,
		Hooks:        m.cfg.Hooks,
		Logf:         m.cfg.Logf,
	}, m.applyRecord)
	if err != nil {
		return fmt.Errorf("jobs: opening journal: %w", err)
	}
	m.log = log
	return nil
}

// applyRecord folds one journal record into the in-memory job table.
// Returned errors mean the record was unreplayable (the log quarantines
// it); they never abort the replay.
func (m *Manager) applyRecord(rec *record) error {
	switch rec.Type {
	case recMeta:
		if rec.NextID > m.nextID {
			m.nextID = rec.NextID
		}
		return nil
	case recJob, recSubmit:
		id, spec, submitted := rec.ID, rec.Spec, rec.Time
		if s := rec.Job; s != nil {
			id, spec, submitted = s.ID, s.Spec, s.SubmittedAt
		}
		if id == "" || spec == nil {
			return fmt.Errorf("%s record missing id or spec", rec.Type)
		}
		if err := spec.Validate(); err != nil {
			// A spec that journaled but no longer validates can never
			// execute; quarantining beats an eternal retry loop.
			return fmt.Errorf("unreplayable job spec for %s: %v", id, err)
		}
		j := m.newJob(id, spec, parseTime(submitted))
		if s := rec.Job; s != nil {
			j.state = s.State
			j.attempts = s.Attempts
			j.diags = s.Diags
			j.errMsg = s.Error
			j.quarantined = s.Quarantined
			j.result = s.Result
			j.cancelRequested = s.CancelRequested
			j.startedAt = parseTime(s.StartedAt)
			j.finishedAt = parseTime(s.FinishedAt)
		}
		m.jobs[id] = j
		// IDs never regress, even in a journal with no meta record yet.
		var n uint64
		if _, err := fmt.Sscanf(id, "job-%d", &n); err == nil && n >= m.nextID {
			m.nextID = n + 1
		}
		return nil
	}

	j := m.jobs[rec.ID]
	if j == nil {
		return fmt.Errorf("%s record for unknown job %q", rec.Type, rec.ID)
	}
	switch rec.Type {
	case recStart:
		j.attempts = rec.Attempt
		j.state = StateRunning
		j.startedAt = parseTime(rec.Time)
	case recAttempt:
		j.diags = append(j.diags, report.JobDiagJSON{
			Attempt: rec.Attempt,
			Stage:   rec.Stage,
			Error:   rec.Error,
			Time:    rec.Time,
		})
		// The attempt concluded; until a new start record the job is
		// retry-pending, i.e. queued.
		j.state = StateQueued
	case recRequeue:
		// A drain interrupted the attempt cooperatively; refund it.
		if j.attempts > 0 {
			j.attempts--
		}
		j.state = StateQueued
	case recCancel:
		j.cancelRequested = true
	case recDone:
		j.state = StateDone
		j.result = rec.Result
		j.finishedAt = parseTime(rec.Time)
	case recFail:
		j.state = StateFailed
		j.errMsg = rec.Error
		j.quarantined = rec.Quarantined
		if len(rec.Result) > 0 {
			j.result = rec.Result
		}
		j.finishedAt = parseTime(rec.Time)
	case recCanceled:
		j.state = StateCanceled
		j.cancelRequested = true
		j.finishedAt = parseTime(rec.Time)
	default:
		return fmt.Errorf("unknown record type %q", rec.Type)
	}
	return nil
}

// recoverInterrupted normalizes post-replay state: every non-terminal
// job either re-enqueues or — when the process death itself exhausted
// the attempt budget — quarantines as a poison job. Runs once the
// journal is open so the decisions are themselves journaled.
func (m *Manager) recoverInterrupted() {
	ids := m.sortedIDsLocked()
	var finals []string
	for _, id := range ids {
		j := m.jobs[id]
		if j.state.Terminal() {
			continue
		}
		if j.state == StateRunning {
			// The process died mid-attempt: the start record consumed the
			// attempt; record what happened to it.
			diag := report.JobDiagJSON{
				Attempt: j.attempts,
				Stage:   "interrupted",
				Error:   "process exited mid-attempt",
				Time:    time.Now().UTC().Format(time.RFC3339Nano),
			}
			j.diags = append(j.diags, diag)
			if err := m.appendLocked(&record{Type: recAttempt, ID: id, Attempt: j.attempts, Stage: diag.Stage, Error: diag.Error}); err != nil {
				m.cfg.Logf("jobs: %s interrupted diag not journaled: %v", id, err)
			}
		}
		switch {
		case j.cancelRequested:
			// Cancel intent was durable but the terminal record was not;
			// honor the intent.
			m.finalizeLocked(j, StateCanceled, "", false, nil)
			finals = append(finals, id)
		case j.attempts >= j.maxAttempts:
			// Every budgeted attempt died with the process — the poison
			// signature a recover barrier can't catch.
			m.finalizeLocked(j, StateFailed,
				fmt.Sprintf("interrupted by process exit on attempt %d/%d", j.attempts, j.maxAttempts),
				true, nil)
			finals = append(finals, id)
		default:
			j.state = StateQueued
			m.q.Push(j.spec.Tenant, j)
			m.cfg.Logf("jobs: %s re-enqueued after restart (attempt %d/%d)", id, j.attempts, j.maxAttempts)
		}
	}
	for _, id := range finals {
		m.notifyFinal(id, m.jobs[id].state)
	}
}

// maybeCompactLocked rewrites the journal once enough records
// accumulate. Failures are logged and retried at the next append — the
// existing journal stays authoritative throughout.
func (m *Manager) maybeCompactLocked() {
	if m.log != nil && m.log.Due() {
		m.compactLocked()
	}
}

// compactLocked rewrites the journal as one snapshot record per
// retained job, pruning all but the newest KeepDone terminal jobs. The
// pruning takes effect only once the log's atomic replace commits.
func (m *Manager) compactLocked() {
	ids := m.sortedIDsLocked()
	// Prune oldest terminal jobs past the retention bound (IDs sort in
	// submission order, so walking back from the end keeps the newest).
	keep := make(map[string]bool, len(ids))
	terminal := 0
	for i := len(ids) - 1; i >= 0; i-- {
		j := m.jobs[ids[i]]
		if !j.state.Terminal() {
			keep[ids[i]] = true
			continue
		}
		if terminal < m.cfg.KeepDone {
			keep[ids[i]] = true
			terminal++
		}
	}
	err := m.log.Compact(func(gen uint64, emit func(*record) error) error {
		if err := emit(&record{Type: recMeta, NextID: m.nextID, Gen: gen}); err != nil {
			return err
		}
		for _, id := range ids {
			if !keep[id] {
				continue
			}
			j := m.jobs[id]
			if err := emit(&record{Type: recJob, Job: &jobSnapshot{
				ID:              j.id,
				Spec:            j.spec,
				State:           j.state,
				Attempts:        j.attempts,
				Diags:           j.diags,
				Error:           j.errMsg,
				Quarantined:     j.quarantined,
				Result:          j.result,
				CancelRequested: j.cancelRequested,
				SubmittedAt:     fmtTime(j.submittedAt),
				StartedAt:       fmtTime(j.startedAt),
				FinishedAt:      fmtTime(j.finishedAt),
			}}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		m.cfg.Logf("jobs: compaction failed (will retry): %v", err)
		return
	}
	for _, id := range ids {
		if !keep[id] {
			delete(m.jobs, id)
		}
	}
}

func parseTime(s string) time.Time {
	if s == "" {
		return time.Time{}
	}
	t, err := time.Parse(time.RFC3339Nano, s)
	if err != nil {
		return time.Time{}
	}
	return t
}

func fmtTime(t time.Time) string {
	if t.IsZero() {
		return ""
	}
	return t.Format(time.RFC3339Nano)
}
