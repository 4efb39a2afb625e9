// Package wal is the write-ahead-log machinery of snad's durable
// subsystems. Log (log.go) is the one keyed record log that both the
// session store (internal/server) and the job journal (internal/jobs)
// are clients of; it is built from the primitives in this file:
// CRC-framed fsynced appends, torn-tail repair, fail-soft scans, and the
// temp+fsync+rename+dirsync atomic-replace discipline.
//
// A journal is an append-only sequence of framed payloads. Every frame
// is
//
//	[4 bytes little-endian payload length][4 bytes IEEE CRC32 of payload][payload]
//
// so a reader can detect exactly where a crash mid-append (torn write)
// or later corruption (bit rot, truncation) left the file: a frame
// whose header or payload runs past EOF is a torn tail, and a frame
// whose CRC does not match is corruption. The distinction matters for
// recovery policy — a torn tail is the expected signature of a crash
// and is silently discarded after replaying everything before it, while
// a CRC mismatch is quarantined with a reason.
//
// Log payloads are JSON record objects — a few bytes over a binary
// encoding, but on-disk logs stay inspectable with nothing but cat,
// worth it at lifecycle-event rates.
package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
)

const (
	// FrameHeaderLen is the fixed per-frame overhead.
	FrameHeaderLen = 8
	// MaxFramePayload bounds one record. Session create payloads carry
	// whole design databases inline, so the bound is generous; its real
	// job is rejecting the absurd lengths a corrupted header decodes to
	// before a reader tries to allocate them.
	MaxFramePayload = 1 << 30
)

// Frame wraps a payload in the length+CRC header.
func Frame(payload []byte) []byte {
	buf := make([]byte, FrameHeaderLen+len(payload))
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.ChecksumIEEE(payload))
	copy(buf[FrameHeaderLen:], payload)
	return buf
}

// FrameError classifies why reading a frame failed.
type FrameError struct {
	// Torn reports the read ran past EOF: a crash mid-append.
	Torn   bool
	Reason string
}

func (e *FrameError) Error() string { return e.Reason }

// ReadFrame reads one frame from r. io.EOF means a clean end exactly at
// a frame boundary; a *FrameError reports a torn tail or corruption. On
// a CRC mismatch the payload as read comes back with the error, so a
// scanner can step over the frame.
func ReadFrame(r io.Reader) ([]byte, error) {
	var hdr [FrameHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if errors.Is(err, io.EOF) {
			return nil, io.EOF
		}
		return nil, &FrameError{Torn: true, Reason: fmt.Sprintf("torn frame header: %v", err)}
	}
	n := binary.LittleEndian.Uint32(hdr[0:4])
	if n > MaxFramePayload {
		return nil, &FrameError{Reason: fmt.Sprintf("frame length %d exceeds limit %d (corrupt header)", n, MaxFramePayload)}
	}
	payload := make([]byte, n)
	if m, err := io.ReadFull(r, payload); err != nil {
		return nil, &FrameError{Torn: true, Reason: fmt.Sprintf("torn frame payload (%d of %d bytes): %v", m, n, err)}
	}
	want := binary.LittleEndian.Uint32(hdr[4:8])
	if got := crc32.ChecksumIEEE(payload); got != want {
		return payload, &FrameError{Reason: fmt.Sprintf("frame CRC mismatch: stored %08x, computed %08x", want, got)}
	}
	return payload, nil
}

// Hooks is the write-path fault-injection seam. The fields match
// workload.StoreFaults' methods; production journals leave them nil.
type Hooks struct {
	// BeforeWrite may truncate the write to its returned length (torn
	// write) and/or fail it. op is "append" or "write".
	BeforeWrite func(op string, size int) (int, error)
	// BeforeSync may fail the fsync that follows a write.
	BeforeSync func(op string) error
	// BeforeRename may fail between an atomic write's temp file and its
	// rename, stranding the temp file exactly as a crash would.
	BeforeRename func(op string) error
}

// Writer appends framed payloads to an open journal file, fsyncing each
// append so an acknowledged record survives a crash. It tracks the end
// offset of the last good frame: a failed append (torn write, fsync
// error) leaves a partial frame at the tail, and appending after one
// would hide every later record from replay — which stops at the first
// unreadable frame — so the writer truncates back to the good offset
// before the next append. If even the truncate fails, the journal is
// broken and refuses all further appends rather than acknowledging
// records a replay would never see.
type Writer struct {
	f     *os.File
	hooks Hooks
	// off is the file offset after the last fully synced frame.
	off int64
	// broken refuses appends after an unrepairable tail.
	broken error
}

// OpenWriter opens (creating if needed) the journal at path for
// appending.
func OpenWriter(path string, hooks Hooks) (*Writer, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	return &Writer{f: f, hooks: hooks, off: fi.Size()}, nil
}

// Append frames, writes, and fsyncs one payload. On failure the partial
// frame is truncated away so the tail stays replayable; the caller
// surfaces the error and the record is never acknowledged.
func (j *Writer) Append(payload []byte) error {
	if j.broken != nil {
		return fmt.Errorf("journal is broken (previous append left an unrepairable tail: %w)", j.broken)
	}
	buf := Frame(payload)
	if err := j.writeFrame(buf); err != nil {
		j.repairTail()
		return err
	}
	j.off += int64(len(buf))
	return nil
}

func (j *Writer) writeFrame(buf []byte) error {
	keep := len(buf)
	var ferr error
	if j.hooks.BeforeWrite != nil {
		keep, ferr = j.hooks.BeforeWrite("append", len(buf))
		if keep > len(buf) {
			keep = len(buf)
		}
	}
	if keep > 0 {
		if _, werr := j.f.Write(buf[:keep]); werr != nil {
			return fmt.Errorf("appending journal record: %w", werr)
		}
	}
	if ferr != nil {
		return fmt.Errorf("appending journal record: %w", ferr)
	}
	if j.hooks.BeforeSync != nil {
		if err := j.hooks.BeforeSync("append"); err != nil {
			return fmt.Errorf("syncing journal: %w", err)
		}
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("syncing journal: %w", err)
	}
	return nil
}

// repairTail truncates a failed append's partial frame so later records
// stay reachable by replay.
func (j *Writer) repairTail() {
	if err := j.f.Truncate(j.off); err != nil {
		j.broken = err
		return
	}
	// Make the truncate durable; an unsynced truncate could resurrect the
	// partial frame after a crash, but everything before off is still
	// intact, so replay would at worst rediscover the torn tail.
	j.f.Sync()
}

// Close releases the journal file (appends are already fsynced).
func (j *Writer) Close() error { return j.f.Close() }

// ScanResult is the result of reading one journal file to its end (or
// to the first unreadable byte).
type ScanResult struct {
	// Frames holds every payload that read back intact, in file order.
	Frames [][]byte
	// Skipped lists the rotten frames stepped over, in file order.
	Skipped []SkippedFrame
	// Torn reports the file ended in a partial frame (crash mid-append).
	Torn bool
	// Corrupt is the frame-level reason reading stopped before EOF for a
	// non-torn cause (CRC mismatch, absurd length); empty otherwise.
	Corrupt string
	// GoodOffset is the file offset after the last intact frame —
	// truncating to it removes a torn or corrupt tail without losing any
	// readable record.
	GoodOffset int64
}

// SkippedFrame is a frame that failed its CRC although its length
// header held: the frame after it read back intact, so the rot is
// confined to this one frame and scanning went on past it.
type SkippedFrame struct {
	// Before is the index in Frames of the intact frame that follows.
	Before int
	// Offset is the frame's file offset; Payload its bytes as read.
	Offset  int64
	Payload []byte
	Reason  string
}

// Scan reads every readable frame of the journal at path. A missing
// file is an empty journal. Reading never fails the caller's boot:
// every abnormality is reported in the result for the recovery layer to
// quarantine; the returned error is reserved for the file being
// unopenable.
func Scan(path string) (*ScanResult, error) {
	f, err := os.Open(path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return &ScanResult{}, nil
		}
		return nil, err
	}
	defer f.Close()
	scan := &ScanResult{}
	for {
		payload, err := ReadFrame(f)
		if err == nil {
			scan.add(payload)
			continue
		}
		if errors.Is(err, io.EOF) {
			return scan, nil
		}
		var fe *FrameError
		errors.As(err, &fe)
		if payload != nil {
			// A CRC mismatch under an intact length header: if the next
			// frame reads back whole, only this frame rotted. Otherwise
			// nothing past it can be trusted to be framed.
			if next, nerr := ReadFrame(f); nerr == nil {
				scan.Skipped = append(scan.Skipped, SkippedFrame{Before: len(scan.Frames), Offset: scan.GoodOffset, Payload: payload, Reason: fe.Reason})
				scan.GoodOffset += int64(FrameHeaderLen + len(payload))
				scan.add(next)
				continue
			}
		}
		if fe.Torn {
			scan.Torn = true
		} else {
			scan.Corrupt = fe.Reason
		}
		return scan, nil
	}
}

func (s *ScanResult) add(payload []byte) {
	s.Frames = append(s.Frames, payload)
	s.GoodOffset += int64(FrameHeaderLen + len(payload))
}

// WriteFileAtomic lands what write produces at path through the
// temp+fsync+rename+dirsync discipline, with the fault hooks at each
// stage. A crash at any instant leaves either the old file or the new
// one, never a hybrid; Open sweeps a stray temp file on boot. renamed
// reports whether the rename committed: an error after it (the
// directory fsync) leaves path naming the new file all the same.
func WriteFileAtomic(path string, hooks Hooks, write func(io.Writer) error) (renamed bool, err error) {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return false, err
	}
	if err := writeSynced(f, hooks, write); err != nil {
		f.Close()
		return false, err
	}
	if err := f.Close(); err != nil {
		return false, err
	}
	if hooks.BeforeRename != nil {
		if err := hooks.BeforeRename("write"); err != nil {
			return false, err
		}
	}
	if err := os.Rename(tmp, path); err != nil {
		return false, err
	}
	return true, syncDir(filepath.Dir(path))
}

// writeSynced streams write's output into f through a buffer and
// fsyncs it. BeforeWrite sees the size once it is known; a torn write
// cuts the file back to the prefix it returns.
func writeSynced(f *os.File, hooks Hooks, write func(io.Writer) error) error {
	bw := bufio.NewWriter(f)
	if err := write(bw); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	if hooks.BeforeWrite != nil {
		size, err := f.Seek(0, io.SeekCurrent)
		if err != nil {
			return err
		}
		keep, ferr := hooks.BeforeWrite("write", int(size))
		if int64(keep) < size {
			if err := f.Truncate(int64(keep)); err != nil {
				return err
			}
		}
		if ferr != nil {
			return ferr
		}
	}
	if hooks.BeforeSync != nil {
		if err := hooks.BeforeSync("write"); err != nil {
			return err
		}
	}
	return f.Sync()
}

// syncDir fsyncs a directory so a rename in it is durable. It is a
// variable so tests can fail it after a rename has committed.
var syncDir = func(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
