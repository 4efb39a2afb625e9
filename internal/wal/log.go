package wal

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"
)

// Log is a keyed, sequenced record log in one file. A client keeps only
// its record schema, the function that applies a replayed record, and
// the snapshot builder compaction writes; the log owns the rest:
//
//   - sequence numbers: a failed append burns its number, so a partial
//     frame the failure left can never share a number with a later record;
//   - fsynced appends, with the Writer's tail repair after a failure;
//   - replay: undecodable records, records whose number does not exceed
//     their predecessor's, and records the client cannot apply are
//     quarantined with reason sidecars, as is a rotten frame the frame
//     after it frames intact; a torn tail (crash mid-append) is dropped,
//     and a corrupt tail is quarantined and then truncated;
//   - compaction by atomic replace, starting a fresh sequence space under
//     the next generation. When the replace fails the old file stays
//     authoritative and the log keeps appending in its OLD sequence space
//     — a reset would number later acknowledged records at or below the
//     file's last one, and the next replay would quarantine them.
//
// The generation lives in the client's meta record. Quarantine files are
// named by log name, kind, generation and frame index (or file offset);
// a taken name gets a numbered variant, so a boot that replays the same
// generation again never overwrites earlier evidence.
//
// A Log is not safe for concurrent use, except Degraded; clients
// serialize calls under their own lock.
type Log[R any, P record[R]] struct {
	path string
	opts Options
	w    *Writer
	// seq is the last sequence number assigned; gen the generation of the
	// current file; since counts appends since the last compaction.
	seq   uint64
	gen   uint64
	since int
	// degraded latches the first failed append or compaction.
	degraded atomic.Bool
}

// Record is what a client's record schema provides to the log.
type Record interface {
	// Stamp sets the sequence number and append time (RFC 3339) the log
	// assigns.
	Stamp(seq uint64, at string)
	// Sequence returns the stamped sequence number.
	Sequence() uint64
	// Key names the session or job the record is about ("" for none); it
	// labels quarantine entries.
	Key() string
	// Generation returns the compaction generation of a meta record, and
	// 0 for every other record.
	Generation() uint64
}

// record constrains P to a pointer to the client's record type R, so
// replay can decode into a fresh R.
type record[R any] interface {
	*R
	Record
}

// Options configures a Log.
type Options struct {
	// Name prefixes quarantine file names ("sessions", "jobs").
	Name string
	// CompactEvery is the number of appends after which Due reports true.
	CompactEvery int
	// Hooks is the write-path fault-injection seam.
	Hooks Hooks
	// Logf receives operational log lines; nil discards them.
	Logf func(format string, args ...any)
}

// Quarantined describes one piece of evidence the log set aside: a
// record replay could not use, a corrupt tail, or a record a client
// handed to Quarantine. It is also the content of the reason sidecar.
type Quarantined struct {
	// File is the quarantined copy, relative to the log's directory.
	File string `json:"file"`
	// Key and Seq identify the record, when it decoded.
	Key    string `json:"key,omitempty"`
	Seq    uint64 `json:"seq,omitempty"`
	Reason string `json:"reason"`
	Time   string `json:"time"`
}

// Replay reports what opening a log found besides the applied records.
type Replay struct {
	// TornTail reports the file ended in a partial frame (a crash
	// mid-append); the partial frame was dropped.
	TornTail bool
	// Quarantined lists everything set aside, in file order.
	Quarantined []Quarantined
}

const quarantineDir = "quarantine"

// Open replays the log at path (a missing file is an empty log) through
// apply, repairs its tail, and opens it for appending. Bad content never
// fails Open — it is quarantined and reported; only a structurally
// unusable file (unreadable, untruncatable, unopenable) does.
func Open[R any, P record[R]](path string, opts Options, apply func(P) error) (*Log[R, P], *Replay, error) {
	if opts.Logf == nil {
		opts.Logf = func(string, ...any) {}
	}
	l := &Log[R, P]{path: path, opts: opts}
	if err := os.MkdirAll(filepath.Join(filepath.Dir(path), quarantineDir), 0o755); err != nil {
		return nil, nil, err
	}
	// A crash between compaction's temp file and its rename strands the
	// temp file; the log itself is intact.
	if err := os.Remove(path + ".tmp"); err == nil {
		opts.Logf("%s: swept stranded temp file %s.tmp", opts.Name, path)
	}
	scan, err := Scan(path)
	if err != nil {
		return nil, nil, fmt.Errorf("scanning %s: %w", path, err)
	}
	rep := &Replay{TornTail: scan.Torn}
	skipped := scan.Skipped
	for i, payload := range scan.Frames {
		if len(skipped) > 0 && skipped[0].Before == i {
			s := skipped[0]
			skipped = skipped[1:]
			rep.add(l.quarantine("frame", s.Offset, ".bin", s.Payload, Quarantined{Reason: s.Reason + " (the next frame reads back intact; only this one is lost)"}))
		}
		rec := P(new(R))
		if derr := json.Unmarshal(payload, rec); derr != nil {
			rep.add(l.quarantine("rec", int64(i), ".rec", payload, Quarantined{Reason: fmt.Sprintf("undecodable record: %v", derr)}))
			continue
		}
		if rec.Sequence() <= l.seq {
			rep.add(l.quarantine("rec", int64(i), ".rec", payload, Quarantined{Key: rec.Key(), Seq: rec.Sequence(),
				Reason: fmt.Sprintf("out-of-order record: seq %d after %d", rec.Sequence(), l.seq)}))
			continue
		}
		l.seq = rec.Sequence()
		if g := rec.Generation(); g > l.gen {
			l.gen = g
		}
		if aerr := apply(rec); aerr != nil {
			rep.add(l.quarantine("rec", int64(i), ".rec", payload, Quarantined{Key: rec.Key(), Seq: rec.Sequence(), Reason: aerr.Error()}))
		}
	}
	if scan.Torn || scan.Corrupt != "" {
		if scan.Corrupt != "" {
			// Best effort: the truncate below fails the open if the file
			// cannot be read at all.
			data, _ := os.ReadFile(path)
			data = data[min(scan.GoodOffset, int64(len(data))):]
			rep.add(l.quarantine("tail", scan.GoodOffset, ".bin", data, Quarantined{Reason: scan.Corrupt}))
		} else {
			opts.Logf("%s: %s ends in a torn frame at offset %d (crash mid-append); truncating", opts.Name, path, scan.GoodOffset)
		}
		if terr := os.Truncate(path, scan.GoodOffset); terr != nil {
			return nil, nil, fmt.Errorf("truncating %s: %w", path, terr)
		}
	}
	if l.w, err = OpenWriter(path, opts.Hooks); err != nil {
		return nil, nil, err
	}
	return l, rep, nil
}

// Append stamps rec with the next sequence number, then frames, writes
// and fsyncs it. The record is durable when Append returns nil.
func (l *Log[R, P]) Append(rec P) error {
	if l.w == nil {
		return errors.New("log is closed")
	}
	l.seq++
	rec.Stamp(l.seq, now())
	payload, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("encoding record: %w", err)
	}
	if err := l.w.Append(payload); err != nil {
		l.degraded.Store(true)
		return err
	}
	l.since++
	return nil
}

// Degraded reports whether any append or compaction has failed since
// Open.
func (l *Log[R, P]) Degraded() bool { return l.degraded.Load() }

// Due reports whether CompactEvery appends have accumulated since the
// last compaction (a failed compaction leaves it true, so the next
// append retries).
func (l *Log[R, P]) Due() bool { return l.since >= l.opts.CompactEvery }

// Gen returns the generation of the current file.
func (l *Log[R, P]) Gen() uint64 { return l.gen }

// Compact atomically replaces the log with the records build emits for
// the next generation; the first of them should be the client's meta
// record carrying gen. A failure before the rename keeps the old file
// and sequence space in force; a failure after it (the directory fsync)
// is reported, but the log has moved to the new file.
func (l *Log[R, P]) Compact(build func(gen uint64, emit func(P) error) error) (err error) {
	if l.w == nil {
		return errors.New("log is closed")
	}
	defer func() {
		if err != nil {
			l.degraded.Store(true)
		}
	}()
	gen := l.gen + 1
	at := now()
	var seq uint64
	renamed, err := WriteFileAtomic(l.path, l.opts.Hooks, func(w io.Writer) error {
		return build(gen, func(rec P) error {
			seq++
			rec.Stamp(seq, at)
			payload, err := json.Marshal(rec)
			if err != nil {
				return fmt.Errorf("encoding snapshot record: %w", err)
			}
			_, err = w.Write(Frame(payload))
			return err
		})
	})
	if !renamed {
		// path still names the old file, and the writer keeps appending
		// to it in the old sequence space.
		return err
	}
	// The rename committed, even if the directory fsync after it failed:
	// the snapshot is the log now. The old writer holds the replaced file
	// and must not append another byte.
	l.w.Close()
	l.seq, l.gen, l.since = seq, gen, 0
	w, oerr := OpenWriter(l.path, l.opts.Hooks)
	if oerr != nil {
		l.w = nil
		return fmt.Errorf("reopening %s after compaction: %w", l.path, oerr)
	}
	l.w = w
	if err != nil {
		return fmt.Errorf("compaction committed, but: %w", err)
	}
	return nil
}

// Quarantine sets a record a client cannot use aside with a reason
// sidecar (kind names the evidence in the file name) and returns the
// entry.
func (l *Log[R, P]) Quarantine(kind, key string, data []byte, reason string) Quarantined {
	return l.quarantine(kind, int64(l.seq), ".rec", data, Quarantined{Key: key, Reason: reason})
}

// Close releases the file (appends are already fsynced).
func (l *Log[R, P]) Close() error {
	if l.w == nil {
		return nil
	}
	err := l.w.Close()
	l.w = nil
	return err
}

// quarantine writes data and the reason sidecar for q under a fresh
// name and returns q with its File set. A write failure is logged; the
// entry is still reported.
func (l *Log[R, P]) quarantine(kind string, idx int64, ext string, data []byte, q Quarantined) Quarantined {
	dir := filepath.Join(filepath.Dir(l.path), quarantineDir)
	base := fmt.Sprintf("%s-%s-gen%06d-%d", l.opts.Name, kind, l.gen, idx)
	name := base + ext
	f, err := os.OpenFile(filepath.Join(dir, name), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	for n := 1; errors.Is(err, os.ErrExist); n++ {
		name = fmt.Sprintf("%s.%d%s", base, n, ext)
		f, err = os.OpenFile(filepath.Join(dir, name), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	}
	if err == nil {
		_, err = f.Write(data)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		l.opts.Logf("%s: writing quarantine file %s: %v", l.opts.Name, name, err)
	}
	q.File, q.Time = filepath.Join(quarantineDir, name), now()
	l.opts.Logf("%s: QUARANTINED %s: %s", l.opts.Name, q.File, q.Reason)
	meta, _ := json.MarshalIndent(q, "", "  ") // plain strings and numbers: cannot fail
	if err := os.WriteFile(filepath.Join(dir, name+".reason.json"), meta, 0o644); err != nil {
		l.opts.Logf("%s: writing quarantine reason for %s: %v", l.opts.Name, name, err)
	}
	return q
}

func (r *Replay) add(q Quarantined) { r.Quarantined = append(r.Quarantined, q) }

func now() string { return time.Now().UTC().Format(time.RFC3339Nano) }
