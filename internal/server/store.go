package server

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/report"
	"repro/internal/wal"
)

// Store is the durable session store, one client of internal/wal's
// record log at DIR/sessions.wal (the job journal is the other, in its
// own file, so the two fail and recover independently). This file keeps
// only what is session-specific: the record schema, the apply function
// replay calls, and the snapshot builder compaction calls. Its contract
// to the server:
//
//   - An acknowledged Create/Delete/Padding is durable: the record is
//     appended and fsynced before the call returns, so a crash right
//     after cannot lose (or, for Delete, resurrect) the session.
//   - Compaction atomically rewrites the log as one meta record (the
//     generation) plus one snapshot record per live session.
//   - Recovery is fail-soft: an unreplayable record is moved to
//     DIR/quarantine/ with a reason and the boot keeps every healthy
//     session.
//
// Store methods are safe for concurrent use. The in-memory spec index
// mirrors the durable state so the server can list and lazily
// re-materialize persisted sessions without touching disk.
type Store struct {
	logf func(format string, args ...any)

	mu    sync.Mutex
	log   *wal.Log[record, *record]
	specs map[string]*sessionSpec
}

// sessionSpec is everything needed to re-materialize one session: the
// original create request and the cumulative window padding applied
// since.
type sessionSpec struct {
	Create  *CreateSessionRequest `json:"create"`
	Padding map[string]float64    `json:"padding,omitempty"`
	// restoredAt is the boot instant the spec was recovered from disk;
	// zero for specs created in this process's lifetime.
	restoredAt time.Time
}

func (sp *sessionSpec) clone() *sessionSpec {
	out := &sessionSpec{Create: sp.Create, restoredAt: sp.restoredAt}
	if len(sp.Padding) > 0 {
		out.Padding = make(map[string]float64, len(sp.Padding))
		for k, v := range sp.Padding {
			out.Padding[k] = v
		}
	}
	return out
}

// record is one session-log entry.
type record struct {
	// Seq is assigned by the log, monotonic within the file.
	Seq uint64 `json:"seq"`
	// Type is "meta", "snapshot", "create", "padding", or "delete".
	Type string `json:"type"`
	// Name is the session the record applies to.
	Name string `json:"name,omitempty"`
	// Create carries the full CreateSessionRequest for "create" and
	// "snapshot" records — everything needed to re-materialize the
	// session from scratch.
	Create *CreateSessionRequest `json:"create,omitempty"`
	// Padding carries the cumulative per-net window padding of "padding"
	// and "snapshot" records. Padding is max-monotonic, so replaying a
	// stale record is absorbed, never harmful.
	Padding map[string]float64 `json:"padding,omitempty"`
	// Gen is the compaction generation, carried by the "meta" record.
	Gen uint64 `json:"generation,omitempty"`
	// Time is the wall-clock instant the record was written (RFC3339,
	// informational only — replay order is file order).
	Time string `json:"time,omitempty"`
}

func (r *record) Stamp(seq uint64, at string) { r.Seq, r.Time = seq, at }
func (r *record) Sequence() uint64            { return r.Seq }
func (r *record) Key() string                 { return r.Name }
func (r *record) Generation() uint64          { return r.Gen }

const (
	logFile = "sessions.wal"
	// defaultCompactEvery bounds log growth: one compaction per this many
	// appended records.
	defaultCompactEvery = 64
)

// OpenStore opens (creating if needed) the data directory, replays the
// session log, and returns the store plus the recovery report that
// /v1/recovery serves. Corrupt content never fails it; a directory that
// cannot be used at all, or one in the older multi-file layout, does.
//
//snavet:ctxloop boot-time log replay before any request context exists; bounded by the on-disk store
func OpenStore(dir string, hooks wal.Hooks, compactEvery int, logf func(string, ...any)) (*Store, *report.RecoveryJSON, error) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	if compactEvery <= 0 {
		compactEvery = defaultCompactEvery
	}
	// Nothing reads the older layout (a MANIFEST naming journal
	// generations, snapshots under sessions/). Booting empty beside it
	// would silently drop every acknowledged session.
	for _, pattern := range []string{"MANIFEST", "journal-*.wal"} {
		if old, _ := filepath.Glob(filepath.Join(dir, pattern)); len(old) > 0 {
			return nil, nil, fmt.Errorf("store: %s is from an older data-directory layout that this snad cannot read", old[0])
		}
	}
	st := &Store{logf: logf, specs: make(map[string]*sessionSpec)}
	rep := &report.RecoveryJSON{DataDir: dir}
	restoredAt := time.Now().UTC()
	log, replay, err := wal.Open(filepath.Join(dir, logFile), wal.Options{
		Name:         "sessions",
		CompactEvery: compactEvery,
		Hooks:        hooks,
		Logf:         logf,
	}, func(rec *record) error { return st.apply(rec, rep, restoredAt) })
	if err != nil {
		return nil, nil, fmt.Errorf("store: %w", err)
	}
	st.log = log
	rep.TornTail = replay.TornTail
	for _, q := range replay.Quarantined {
		rep.Quarantined = append(rep.Quarantined, report.QuarantineJSON{
			File: q.File, Source: "journal", Session: q.Key, Seq: q.Seq, Reason: q.Reason,
		})
	}
	// Fold the replay into a fresh generation, so quarantined garbage
	// cannot resurface on the next boot. A failure leaves the replayed,
	// tail-repaired file in use.
	if err := st.compactLocked(); err != nil {
		logf("store: boot compaction failed (will retry): %v", err)
	} else {
		rep.Compacted = true
	}
	rep.RecoveredAt = restoredAt.Format(time.RFC3339Nano)
	rep.Generation = log.Gen()
	rep.Restored = st.Names()
	return st, rep, nil
}

// apply applies one replayed record to the spec index, returning why an
// unreplayable record must be quarantined.
func (st *Store) apply(rec *record, rep *report.RecoveryJSON, restoredAt time.Time) error {
	switch rec.Type {
	case "meta":
		return nil
	case "create", "snapshot":
		if rec.Create == nil || rec.Create.Name == "" {
			return fmt.Errorf("%s record without a request payload", rec.Type)
		}
		st.specs[rec.Create.Name] = &sessionSpec{Create: rec.Create, Padding: rec.Padding, restoredAt: restoredAt}
		if rec.Type == "snapshot" {
			rep.Snapshots++
			return nil
		}
	case "padding":
		sp := st.specs[rec.Name]
		if sp == nil {
			return fmt.Errorf("padding for unknown session %q", rec.Name)
		}
		if sp.Padding == nil {
			sp.Padding = make(map[string]float64, len(rec.Padding))
		}
		for net, pad := range rec.Padding {
			if pad > sp.Padding[net] {
				sp.Padding[net] = pad
			}
		}
	case "delete":
		if rec.Name == "" {
			return fmt.Errorf("delete record without a session name")
		}
		delete(st.specs, rec.Name)
	default:
		return fmt.Errorf("unknown record type %q", rec.Type)
	}
	rep.Records++
	return nil
}

// appendLocked journals one record and compacts when due; callers hold
// st.mu. The in-memory effects are applied by the caller between the two,
// so a journaling failure leaves the index matching the durable state.
func (st *Store) appendLocked(rec *record, apply func()) error {
	if err := st.log.Append(rec); err != nil {
		return err
	}
	apply()
	if st.log.Due() {
		if err := st.compactLocked(); err != nil {
			// Compaction is an optimization, not a durability requirement:
			// the next append retries it.
			st.logf("store: compaction failed (will retry): %v", err)
		}
	}
	return nil
}

// Create durably records a session creation. It must succeed before the
// server acknowledges the create: an acknowledged session survives a
// crash.
func (st *Store) Create(req *CreateSessionRequest) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.appendLocked(&record{Type: "create", Name: req.Name, Create: req}, func() {
		st.specs[req.Name] = &sessionSpec{Create: req}
	})
}

// Delete durably records a session tombstone. It must succeed before the
// server acknowledges the delete: a crash right after the 200 must not
// resurrect the session on replay.
func (st *Store) Delete(name string) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.appendLocked(&record{Type: "delete", Name: name}, func() {
		delete(st.specs, name)
	})
}

// Padding durably records the session's cumulative window padding.
// Padding is max-monotonic, so the log carries the full cumulative map —
// replaying any prefix of padding records yields a state the next record
// absorbs.
func (st *Store) Padding(name string, padding map[string]float64) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	sp := st.specs[name]
	if sp == nil {
		return fmt.Errorf("store: padding for unknown session %q", name)
	}
	cp := make(map[string]float64, len(padding))
	for k, v := range padding {
		cp[k] = v
	}
	return st.appendLocked(&record{Type: "padding", Name: name, Padding: cp}, func() {
		sp.Padding = cp
	})
}

// Spec returns a copy of the persisted spec for name, or nil. The server
// uses it to lazily re-materialize sessions that were LRU-evicted from
// memory (or never loaded after a restart).
func (st *Store) Spec(name string) *sessionSpec {
	st.mu.Lock()
	defer st.mu.Unlock()
	sp := st.specs[name]
	if sp == nil {
		return nil
	}
	return sp.clone()
}

// Names returns the sorted names of every persisted session.
func (st *Store) Names() []string {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.namesLocked()
}

func (st *Store) namesLocked() []string {
	out := make([]string, 0, len(st.specs))
	for name := range st.specs {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// QuarantineSpec removes a persisted session whose spec cannot be
// re-materialized (sources no longer build — disk rot inside a CRC-valid
// record, or format skew): the spec bytes move to quarantine/ with a
// reason sidecar and a tombstone is journaled so it never resurfaces.
// It returns the report entry, or nil when the name is unknown.
func (st *Store) QuarantineSpec(name, reason string) *report.QuarantineJSON {
	st.mu.Lock()
	defer st.mu.Unlock()
	sp := st.specs[name]
	if sp == nil {
		return nil
	}
	payload, _ := json.Marshal(sp) // the spec decoded from JSON, so it encodes
	q := st.log.Quarantine("spec", name, payload, reason)
	if err := st.log.Append(&record{Type: "delete", Name: name}); err != nil {
		st.logf("store: journaling quarantine tombstone for %q: %v", name, err)
	}
	delete(st.specs, name)
	return &report.QuarantineJSON{File: q.File, Source: "snapshot", Session: name, Reason: reason}
}

// Degraded reports whether an append or compaction has failed since
// boot.
func (st *Store) Degraded() bool { return st.log.Degraded() }

// Close releases the log file (appends are already fsynced).
func (st *Store) Close() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.log.Close()
}

// compactLocked rewrites the log as the meta record plus one snapshot
// record per live session, in name order. Callers hold st.mu (or own the
// store exclusively, as OpenStore does).
func (st *Store) compactLocked() error {
	return st.log.Compact(func(gen uint64, emit func(*record) error) error {
		if err := emit(&record{Type: "meta", Gen: gen}); err != nil {
			return err
		}
		for _, name := range st.namesLocked() {
			sp := st.specs[name]
			if err := emit(&record{Type: "snapshot", Name: name, Create: sp.Create, Padding: sp.Padding}); err != nil {
				return err
			}
		}
		return nil
	})
}
