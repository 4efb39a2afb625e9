package wal

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// testRec is a minimal client schema.
type testRec struct {
	Seq  uint64 `json:"seq"`
	Name string `json:"name,omitempty"`
	Gen  uint64 `json:"generation,omitempty"`
	Time string `json:"time,omitempty"`
}

func (r *testRec) Stamp(seq uint64, at string) { r.Seq, r.Time = seq, at }
func (r *testRec) Sequence() uint64            { return r.Seq }
func (r *testRec) Key() string                 { return r.Name }
func (r *testRec) Generation() uint64          { return r.Gen }

func openTestLog(t *testing.T, path string, hooks Hooks) (*Log[testRec, *testRec], []string, *Replay) {
	t.Helper()
	var names []string
	l, rep, err := Open(path, Options{Name: "test", CompactEvery: 2, Hooks: hooks, Logf: t.Logf}, func(r *testRec) error {
		if r.Name == "poison" {
			return errors.New("cannot apply poison")
		}
		if r.Name != "" {
			names = append(names, r.Name)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l, names, rep
}

// TestLogFailedAppendBurnsSequence: an append that fails mid-frame
// consumes its number, and the records around it replay in order.
func TestLogFailedAppendBurnsSequence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.wal")
	appends := 0
	hooks := Hooks{BeforeWrite: func(op string, size int) (int, error) {
		if op == "append" {
			if appends++; appends == 2 {
				return size / 2, errors.New("injected torn write")
			}
		}
		return size, nil
	}}
	l, _, _ := openTestLog(t, path, hooks)
	for _, name := range []string{"a", "lost", "b"} {
		err := l.Append(&testRec{Name: name})
		if (err != nil) != (name == "lost") {
			t.Fatalf("append %s: %v", name, err)
		}
	}
	if l.seq != 3 {
		t.Fatalf("seq = %d after three appends (one failed), want 3", l.seq)
	}
	l.Close()
	_, names, rep := openTestLog(t, path, Hooks{})
	if strings.Join(names, ",") != "a,b" || len(rep.Quarantined) != 0 {
		t.Fatalf("replayed %v, quarantined %+v", names, rep.Quarantined)
	}
}

// TestLogCompactionGenerations: a committed compaction starts a new
// sequence space under the next generation; a failed one keeps the old
// file and its sequence space, so later records still replay in order.
func TestLogCompactionGenerations(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.wal")
	renameFails := false
	hooks := Hooks{BeforeRename: func(string) error {
		if renameFails {
			return errors.New("injected crash before rename")
		}
		return nil
	}}
	l, _, _ := openTestLog(t, path, hooks)
	l.Append(&testRec{Name: "a"})
	if err := l.Compact(snapshot); err != nil {
		t.Fatal(err)
	}
	if l.Gen() != 1 || l.seq != 2 || l.Due() {
		t.Fatalf("after compaction gen=%d seq=%d due=%v", l.Gen(), l.seq, l.Due())
	}
	renameFails = true
	l.Append(&testRec{Name: "b"})
	l.Append(&testRec{Name: "c"})
	if !l.Due() {
		t.Fatal("two appends with CompactEvery 2 should make compaction due")
	}
	if err := l.Compact(snapshot); err == nil {
		t.Fatal("compaction succeeded under an injected rename failure")
	}
	l.Append(&testRec{Name: "d"})
	if l.Gen() != 1 || l.seq != 5 {
		t.Fatalf("failed compaction moved gen=%d seq=%d, want 1 and 5", l.Gen(), l.seq)
	}
	l.Close()
	l2, names, rep := openTestLog(t, path, Hooks{})
	if strings.Join(names, ",") != "snap,b,c,d" || len(rep.Quarantined) != 0 || l2.Gen() != 1 {
		t.Fatalf("replayed %v (gen %d), quarantined %+v", names, l2.Gen(), rep.Quarantined)
	}
}

// snapshot is a compaction builder: the meta record, then one record.
func snapshot(gen uint64, emit func(*testRec) error) error {
	if err := emit(&testRec{Gen: gen}); err != nil {
		return err
	}
	return emit(&testRec{Name: "snap"})
}

// TestLogCompactionFailsAfterRename: a replace that fails after its
// rename committed (the directory fsync) still moves the log to the new
// file, so a later acknowledged append lands in the file the path names
// and replays in order.
func TestLogCompactionFailsAfterRename(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.wal")
	l, _, _ := openTestLog(t, path, Hooks{})
	for _, name := range []string{"a", "b", "c"} {
		if err := l.Append(&testRec{Name: name}); err != nil {
			t.Fatal(err)
		}
	}
	orig := syncDir
	t.Cleanup(func() { syncDir = orig })
	syncDir = func(string) error { return errors.New("injected directory fsync failure") }
	if err := l.Compact(snapshot); err == nil || !l.Degraded() {
		t.Fatalf("compaction with a failed directory fsync: err %v, degraded %v", err, l.Degraded())
	}
	syncDir = orig
	if err := l.Append(&testRec{Name: "acked"}); err != nil {
		t.Fatal(err)
	}
	l.Close()
	l2, names, rep := openTestLog(t, path, Hooks{})
	if strings.Join(names, ",") != "snap,acked" || len(rep.Quarantined) != 0 || l2.Gen() != 1 {
		t.Fatalf("replayed %v (gen %d), quarantined %+v", names, l2.Gen(), rep.Quarantined)
	}
}

// TestLogReplayQuarantines: undecodable, out-of-order and unappliable
// records are set aside with their key and reason; replay goes on.
func TestLogReplayQuarantines(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.wal")
	var buf []byte
	for _, p := range []string{
		`{"seq":1,"name":"a"}`,
		`{"seq":`,
		`{"seq":1,"name":"dup"}`,
		`{"seq":2,"name":"poison"}`,
		`{"seq":3,"name":"b"}`,
	} {
		buf = append(buf, Frame([]byte(p))...)
	}
	rotten := Frame([]byte(`{"seq":4,"name":"rotten"}`))
	rotten[FrameHeaderLen+2] ^= 0xff
	buf = append(buf, rotten...)
	buf = append(buf, Frame([]byte(`{"seq":5,"name":"c"}`))...)
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	l, names, rep := openTestLog(t, path, Hooks{})
	if strings.Join(names, ",") != "a,b,c" || l.seq != 5 {
		t.Fatalf("replayed %v to seq %d", names, l.seq)
	}
	want := []string{"undecodable", "out-of-order", "cannot apply poison", "CRC mismatch"}
	if len(rep.Quarantined) != len(want) {
		t.Fatalf("quarantined %+v", rep.Quarantined)
	}
	for i, q := range rep.Quarantined {
		if !strings.Contains(q.Reason, want[i]) {
			t.Fatalf("entry %d reason %q, want %q", i, q.Reason, want[i])
		}
	}
	if rep.Quarantined[2].Key != "poison" || rep.Quarantined[2].Seq != 2 {
		t.Fatalf("unappliable entry = %+v", rep.Quarantined[2])
	}
	for _, q := range rep.Quarantined {
		if _, err := os.Stat(filepath.Join(filepath.Dir(path), q.File+".reason.json")); err != nil {
			t.Fatalf("no reason sidecar for %s: %v", q.File, err)
		}
	}
}
