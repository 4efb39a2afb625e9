package wal

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestFrameRoundTrip(t *testing.T) {
	payloads := [][]byte{[]byte("a"), []byte(`{"seq":1}`), {}, bytes.Repeat([]byte{0xab}, 4096)}
	var buf bytes.Buffer
	for _, p := range payloads {
		buf.Write(Frame(p))
	}
	r := bytes.NewReader(buf.Bytes())
	for i, want := range payloads {
		got, err := ReadFrame(r)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame %d: got %q, want %q", i, got, want)
		}
	}
	if _, err := ReadFrame(r); err == nil || err.Error() != "EOF" {
		t.Fatalf("want io.EOF at clean end, got %v", err)
	}
}

func TestReadFrameTornAndCorrupt(t *testing.T) {
	full := Frame([]byte("payload"))

	// Torn header and torn payload both classify as Torn.
	for _, cut := range []int{3, FrameHeaderLen + 2} {
		var fe *FrameError
		_, err := ReadFrame(bytes.NewReader(full[:cut]))
		if !errors.As(err, &fe) || !fe.Torn {
			t.Fatalf("cut at %d: want torn FrameError, got %v", cut, err)
		}
	}

	// A flipped payload byte is corruption, not a torn tail.
	bad := append([]byte(nil), full...)
	bad[FrameHeaderLen] ^= 0xff
	var fe *FrameError
	_, err := ReadFrame(bytes.NewReader(bad))
	if !errors.As(err, &fe) || fe.Torn {
		t.Fatalf("want non-torn FrameError for CRC mismatch, got %v", err)
	}
}

func TestWriterAppendAndScan(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wal")
	w, err := OpenWriter(path, Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := w.Append([]byte(fmt.Sprintf("rec-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	scan, err := Scan(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(scan.Frames) != 3 || scan.Torn || scan.Corrupt != "" {
		t.Fatalf("scan = %+v", scan)
	}
	fi, _ := os.Stat(path)
	if scan.GoodOffset != fi.Size() {
		t.Fatalf("GoodOffset %d != file size %d", scan.GoodOffset, fi.Size())
	}
}

// A failed append (torn write) must truncate its partial frame so the
// next append stays replayable — the core journal-before-acknowledge
// guarantee.
func TestWriterTornAppendRepairsTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wal")
	fail := true
	w, err := OpenWriter(path, Hooks{
		BeforeWrite: func(op string, size int) (int, error) {
			if fail {
				fail = false
				return size / 2, fmt.Errorf("injected torn write")
			}
			return size, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append([]byte("first")); err == nil {
		t.Fatal("injected torn append unexpectedly succeeded")
	}
	if err := w.Append([]byte("second")); err != nil {
		t.Fatalf("append after tail repair: %v", err)
	}
	w.Close()
	scan, err := Scan(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(scan.Frames) != 1 || string(scan.Frames[0]) != "second" || scan.Torn {
		t.Fatalf("scan after repair = %+v", scan)
	}
}

func TestScanTornTailKeepsPrefix(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wal")
	good := Frame([]byte("keep"))
	torn := Frame([]byte("lost"))[:FrameHeaderLen+2]
	if err := os.WriteFile(path, append(append([]byte(nil), good...), torn...), 0o644); err != nil {
		t.Fatal(err)
	}
	scan, err := Scan(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(scan.Frames) != 1 || string(scan.Frames[0]) != "keep" || !scan.Torn {
		t.Fatalf("scan = %+v", scan)
	}
	if scan.GoodOffset != int64(len(good)) {
		t.Fatalf("GoodOffset %d, want %d", scan.GoodOffset, len(good))
	}
}

func TestScanMissingFileIsEmpty(t *testing.T) {
	scan, err := Scan(filepath.Join(t.TempDir(), "absent.wal"))
	if err != nil {
		t.Fatal(err)
	}
	if len(scan.Frames) != 0 || scan.Torn || scan.Corrupt != "" {
		t.Fatalf("scan = %+v", scan)
	}
}

func TestWriteFileAtomicRenameFaultStrandsTemp(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "target")
	renamed, err := WriteFileAtomic(path, Hooks{
		BeforeRename: func(op string) error { return fmt.Errorf("injected crash before rename") },
	}, writeString("data"))
	if err == nil || renamed {
		t.Fatalf("injected rename fault: renamed %v, err %v", renamed, err)
	}
	if _, serr := os.Stat(path); !os.IsNotExist(serr) {
		t.Fatalf("target exists after failed rename: %v", serr)
	}
	if _, serr := os.Stat(path + ".tmp"); serr != nil {
		t.Fatalf("temp file not stranded (the crash signature): %v", serr)
	}
	if renamed, err := WriteFileAtomic(path, Hooks{}, writeString("data")); err != nil || !renamed {
		t.Fatalf("renamed %v, err %v", renamed, err)
	}
	got, err := os.ReadFile(path)
	if err != nil || string(got) != "data" {
		t.Fatalf("read back %q, %v", got, err)
	}
}

// A torn atomic write leaves a temp file holding only the prefix the
// hook allowed, and the target untouched.
func TestWriteFileAtomicTornWriteKeepsPrefix(t *testing.T) {
	path := filepath.Join(t.TempDir(), "target")
	_, err := WriteFileAtomic(path, Hooks{
		BeforeWrite: func(op string, size int) (int, error) { return size / 2, errors.New("injected torn write") },
	}, writeString("abcdefgh"))
	if err == nil {
		t.Fatal("injected torn write unexpectedly succeeded")
	}
	if got, _ := os.ReadFile(path + ".tmp"); string(got) != "abcd" {
		t.Fatalf("temp file holds %q, want the 4-byte prefix", got)
	}
	if _, serr := os.Stat(path); !os.IsNotExist(serr) {
		t.Fatalf("target exists after a torn write: %v", serr)
	}
}

// A CRC mismatch under an intact length header, followed by a frame
// that reads back whole, loses only the rotten frame; a rotten last
// frame is still a corrupt tail.
func TestScanStepsOverOneRottenFrame(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wal")
	a, b, c := Frame([]byte("a")), Frame([]byte("rotten")), Frame([]byte("c"))
	b[FrameHeaderLen+1] ^= 0xff
	data := append(append(append([]byte(nil), a...), b...), c...)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	scan, err := Scan(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(scan.Frames) != 2 || string(scan.Frames[0]) != "a" || string(scan.Frames[1]) != "c" || scan.Corrupt != "" || scan.Torn {
		t.Fatalf("scan = %+v", scan)
	}
	if len(scan.Skipped) != 1 || scan.Skipped[0].Before != 1 || scan.Skipped[0].Offset != int64(len(a)) || !strings.Contains(scan.Skipped[0].Reason, "CRC") {
		t.Fatalf("skipped = %+v", scan.Skipped)
	}
	if scan.GoodOffset != int64(len(data)) {
		t.Fatalf("GoodOffset %d, want %d", scan.GoodOffset, len(data))
	}

	if err := os.WriteFile(path, data[:len(a)+len(b)], 0o644); err != nil {
		t.Fatal(err)
	}
	if scan, err = Scan(path); err != nil {
		t.Fatal(err)
	}
	if len(scan.Frames) != 1 || len(scan.Skipped) != 0 || !strings.Contains(scan.Corrupt, "CRC") || scan.GoodOffset != int64(len(a)) {
		t.Fatalf("rotten last frame: scan = %+v", scan)
	}
}

func writeString(s string) func(io.Writer) error {
	return func(w io.Writer) error {
		_, err := io.WriteString(w, s)
		return err
	}
}
