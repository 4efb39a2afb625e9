package report

import (
	"fmt"
	"io"
)

// RecoveryJSON is the boot-time restore report of snad's durable session
// store: what the journal replay found, what it restored, and what it
// quarantined. The server builds one while opening its data directory and
// serves it on GET /v1/recovery; the snad CLI renders it with
// RecoveryText. The type lives here, next to the other wire schemas, so
// the server, the client, and the CLI share one definition without an
// import cycle.
type RecoveryJSON struct {
	// DataDir is the store's directory.
	DataDir string `json:"dataDir"`
	// RecoveredAt is the RFC3339 instant the replay finished.
	RecoveredAt string `json:"recoveredAt"`
	// Generation is the session log's compaction generation after
	// recovery, kept in its meta record (boot compaction bumps it).
	Generation uint64 `json:"generation"`
	// Snapshots counts the session snapshot records replayed.
	Snapshots int `json:"snapshots"`
	// Records counts create/padding/delete records replayed on top of
	// the snapshots.
	Records int `json:"records"`
	// Restored lists the sessions alive after replay, sorted.
	Restored []string `json:"restored,omitempty"`
	// Quarantined lists every record or file that could not be replayed
	// and was moved aside instead of refusing the boot.
	Quarantined []QuarantineJSON `json:"quarantined,omitempty"`
	// TornTail reports that the journal ended in a partial frame — the
	// signature of a crash mid-append. The torn bytes are discarded by
	// the boot compaction; everything before them replayed normally.
	TornTail bool `json:"tornTail,omitempty"`
	// Compacted reports that the boot rewrote the log as a fresh
	// generation of snapshot records after replay.
	Compacted bool `json:"compacted,omitempty"`
}

// QuarantineJSON describes one unreplayable record or file: where it was
// moved and why it could not be applied.
type QuarantineJSON struct {
	// File is the path of the quarantined copy, relative to the data dir.
	File string `json:"file"`
	// Source names what was quarantined: "journal" (a log record or a
	// corrupt log tail) or "snapshot" (a spec that no longer builds).
	Source string `json:"source"`
	// Reason is the structured cause (CRC mismatch, bad frame length,
	// undecodable record, unreplayable payload, ...).
	Reason string `json:"reason"`
	// Session names the affected session when the record identified one.
	Session string `json:"session,omitempty"`
	// Seq is the journal sequence number of the record, when known.
	Seq uint64 `json:"seq,omitempty"`
}

// RecoveryText renders the recovery report in the repo's report idiom: a
// short header, one line per restored session, one line per quarantined
// item.
func RecoveryText(w io.Writer, r *RecoveryJSON) {
	fmt.Fprintf(w, "recovery: %s (generation %d)\n", r.DataDir, r.Generation)
	fmt.Fprintf(w, "  recovered at %s: %d snapshot(s), %d journal record(s), %d session(s) restored\n",
		r.RecoveredAt, r.Snapshots, r.Records, len(r.Restored))
	if r.TornTail {
		fmt.Fprintf(w, "  torn journal tail discarded (crash mid-append)\n")
	}
	if r.Compacted {
		fmt.Fprintf(w, "  journal compacted after replay\n")
	}
	for _, name := range r.Restored {
		fmt.Fprintf(w, "  restored %s\n", name)
	}
	for _, q := range r.Quarantined {
		who := q.Source
		if q.Session != "" {
			who += " " + q.Session
		}
		fmt.Fprintf(w, "  QUARANTINED %s -> %s: %s\n", who, q.File, q.Reason)
	}
	if len(r.Quarantined) == 0 {
		fmt.Fprintf(w, "  no records quarantined\n")
	}
}
