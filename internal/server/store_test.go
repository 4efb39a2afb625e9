package server

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/report"
	"repro/internal/wal"
	"repro/internal/workload"
)

// openTestStore opens a store on dir with an optional fault spec,
// failing the test on the structurally-unusable-directory path.
func openTestStore(t *testing.T, dir, faultSpec string) (*Store, *report.RecoveryJSON) {
	t.Helper()
	return openTestStoreEvery(t, dir, faultSpec, 0)
}

// openTestStoreEvery is openTestStore with an explicit compaction
// interval.
func openTestStoreEvery(t *testing.T, dir, faultSpec string, compactEvery int) (*Store, *report.RecoveryJSON) {
	t.Helper()
	var hooks wal.Hooks
	if faultSpec != "" {
		faults, err := workload.ParseStoreFaults(faultSpec)
		if err != nil {
			t.Fatal(err)
		}
		hooks = wal.Hooks{BeforeWrite: faults.BeforeWrite, BeforeSync: faults.BeforeSync, BeforeRename: faults.BeforeRename}
	}
	st, rep, err := OpenStore(dir, hooks, compactEvery, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st, rep
}

func storeCreate(t *testing.T, st *Store, name string) {
	t.Helper()
	if err := st.Create(&CreateSessionRequest{Name: name, Netlist: "module " + name + "\n"}); err != nil {
		t.Fatalf("create %s: %v", name, err)
	}
}

func wantNames(t *testing.T, st *Store, want ...string) {
	t.Helper()
	got := st.Names()
	if len(got) != len(want) {
		t.Fatalf("names = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("names = %v, want %v", got, want)
		}
	}
}

// TestStoreRoundtrip: acknowledged lifecycle events survive a close and
// reopen — creates come back with their payload and padding, deletes
// stay deleted.
func TestStoreRoundtrip(t *testing.T) {
	dir := t.TempDir()
	st, _ := openTestStore(t, dir, "")
	storeCreate(t, st, "a")
	storeCreate(t, st, "b")
	storeCreate(t, st, "c")
	if err := st.Padding("b", map[string]float64{"n1": 3e-12, "n2": 5e-12}); err != nil {
		t.Fatal(err)
	}
	if err := st.Delete("c"); err != nil {
		t.Fatal(err)
	}
	st.Close()

	st2, rep := openTestStore(t, dir, "")
	wantNames(t, st2, "a", "b")
	if len(rep.Quarantined) != 0 {
		t.Fatalf("clean reopen quarantined %v", rep.Quarantined)
	}
	sp := st2.Spec("b")
	if sp == nil || sp.Create.Netlist != "module b\n" {
		t.Fatalf("spec b = %+v", sp)
	}
	if sp.Padding["n1"] != 3e-12 || sp.Padding["n2"] != 5e-12 {
		t.Fatalf("padding = %v", sp.Padding)
	}
	if st2.Spec("c") != nil {
		t.Fatal("deleted session resurrected")
	}
}

// TestStoreCompaction: the log folds into snapshot records and a fresh
// generation without changing the recovered state, and stays one file.
func TestStoreCompaction(t *testing.T) {
	dir := t.TempDir()
	st, _ := openTestStoreEvery(t, dir, "", 2)
	for _, name := range []string{"a", "b", "c", "d", "e"} {
		storeCreate(t, st, name)
	}
	if err := st.Delete("d"); err != nil {
		t.Fatal(err)
	}
	st.Close()

	journals := 0
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".wal") {
			journals++
		}
	}
	if journals != 1 {
		t.Fatalf("%d journal files after compaction, want 1", journals)
	}

	st2, rep := openTestStore(t, dir, "")
	wantNames(t, st2, "a", "b", "c", "e")
	if rep.Snapshots == 0 {
		t.Fatal("no snapshots were loaded after compaction")
	}
	if !rep.Compacted {
		t.Fatal("boot did not compact")
	}
}

// TestStoreFailedAppendKeepsTailReplayable is the regression test for the
// torn-tail repair: an append that fails mid-frame must not hide later,
// successfully acknowledged records from replay.
func TestStoreFailedAppendKeepsTailReplayable(t *testing.T) {
	for _, spec := range []string{"torn:append:2", "enospc:append:2", "syncerr:append:2"} {
		t.Run(spec, func(t *testing.T) {
			dir := t.TempDir()
			st, _ := openTestStore(t, dir, spec)
			storeCreate(t, st, "a")
			if err := st.Create(&CreateSessionRequest{Name: "b", Netlist: "module b\n"}); err == nil {
				t.Fatal("injected fault did not fail the create")
			}
			// The failed create must not be acknowledged in memory either.
			if st.Spec("b") != nil {
				t.Fatal("failed create landed in the spec index")
			}
			// Later creates append after the repaired tail.
			storeCreate(t, st, "c")
			// Crash (no Close): reopen replays.
			st2, _ := openTestStore(t, dir, "")
			wantNames(t, st2, "a", "c")
		})
	}
}

// TestStoreCrashAfterTornAppend: a torn frame at the very tail (crash
// mid-append, no repair ran) is the expected crash signature — replay
// keeps everything before it and boots.
func TestStoreCrashAfterTornAppend(t *testing.T) {
	dir := t.TempDir()
	st, _ := openTestStore(t, dir, "")
	storeCreate(t, st, "a")
	storeCreate(t, st, "b")
	st.Close()
	// Simulate the crash: chop the tail of the last appended frame (b's).
	path := activeJournal(t, dir)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) < wal.FrameHeaderLen+2 {
		t.Fatalf("journal too short to tear: %d bytes", len(data))
	}
	if err := os.WriteFile(path, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	st3, rep := openTestStore(t, dir, "")
	if !rep.TornTail {
		t.Fatal("torn tail not reported")
	}
	// b's record was the torn one; a survives.
	wantNames(t, st3, "a")
	if len(rep.Quarantined) != 0 {
		t.Fatalf("a torn tail is a crash signature, not corruption: %v", rep.Quarantined)
	}
}

// activeJournal finds the single journal file on disk without reopening
// the store (an open would compact and empty it).
func activeJournal(t *testing.T, dir string) string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var found string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".wal") {
			if found != "" {
				t.Fatalf("multiple journals: %s and %s", found, e.Name())
			}
			found = filepath.Join(dir, e.Name())
		}
	}
	if found == "" {
		t.Fatal("no journal file on disk")
	}
	return found
}

// TestStoreCrashBetweenTempAndRename: a compaction that crashes between
// its temp file and the rename strands sessions.wal.tmp; the boot sweeps
// it and recovers the state from the intact log.
func TestStoreCrashBetweenTempAndRename(t *testing.T) {
	dir := t.TempDir()
	// compactEvery=1 compacts after the first create; the crashrename
	// fault fails that compaction after its temp file is fully on disk
	// (write #1 is the boot compaction, #2 the create's).
	st, _ := openTestStoreEvery(t, dir, "crashrename:write:2", 1)
	// The create itself succeeds — compaction is an optimization and its
	// failure must not fail the lifecycle event.
	storeCreate(t, st, "a")
	tmp := filepath.Join(dir, logFile+".tmp")
	if _, err := os.Stat(tmp); err != nil {
		t.Fatalf("crashrename did not strand a temp file: %v", err)
	}
	// Crash; reopen without faults.
	st2, _ := openTestStore(t, dir, "")
	wantNames(t, st2, "a")
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("stranded temp file survived the boot sweep: %v", err)
	}
}

// TestStoreJournalCorruptionQuarantined: a CRC mismatch in the log's
// last frame (bit rot, not a crash) quarantines the corrupt tail with a
// reason instead of refusing the boot; records before it replay.
func TestStoreJournalCorruptionQuarantined(t *testing.T) {
	dir := t.TempDir()
	st, _ := openTestStore(t, dir, "")
	storeCreate(t, st, "a")
	storeCreate(t, st, "b")
	st.Close()

	path := activeJournal(t, dir)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte inside the last frame (b's create); the frames
	// before it are the boot compaction's meta record and a's create.
	data[len(data)-3] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	st2, rep := openTestStore(t, dir, "")
	wantNames(t, st2, "a")
	if len(rep.Quarantined) == 0 {
		t.Fatal("corruption was not quarantined")
	}
	found := false
	for _, q := range rep.Quarantined {
		if q.Source == "journal" && strings.Contains(q.Reason, "CRC") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no CRC quarantine entry: %+v", rep.Quarantined)
	}
	// The corrupt tail was quarantined and truncated, and the boot
	// compaction folded the healthy state into a new generation: the next
	// boot is clean.
	st2.Close()
	st3, rep3 := openTestStore(t, dir, "")
	wantNames(t, st3, "a")
	if len(rep3.Quarantined) != 0 {
		t.Fatalf("quarantined garbage resurfaced: %+v", rep3.Quarantined)
	}
}

// TestStoreSnapshotCorruptionQuarantined: a rotten snapshot record
// loses only its own session — with a quarantine trail — not the
// sessions snapshotted after it, nor the directory.
func TestStoreSnapshotCorruptionQuarantined(t *testing.T) {
	dir := t.TempDir()
	st, _ := openTestStoreEvery(t, dir, "", 1) // compact after every record
	storeCreate(t, st, "a-rotten")
	storeCreate(t, st, "b-healthy")
	storeCreate(t, st, "c-healthy")
	st.Close()

	// The last compaction wrote meta then one snapshot per session in
	// name order; rot the first snapshot record.
	path := filepath.Join(dir, logFile)
	scan, err := wal.Scan(path)
	if err != nil || len(scan.Frames) != 4 || !strings.Contains(string(scan.Frames[1]), `"a-rotten"`) {
		t.Fatalf("log layout: %d frames, err %v", len(scan.Frames), err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[2*wal.FrameHeaderLen+len(scan.Frames[0])+len(scan.Frames[1])/2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	st2, rep := openTestStore(t, dir, "")
	wantNames(t, st2, "b-healthy", "c-healthy")
	if rep.Snapshots != 2 {
		t.Fatalf("snapshots = %d, want 2", rep.Snapshots)
	}
	if len(rep.Quarantined) != 1 || !strings.Contains(rep.Quarantined[0].Reason, "CRC") {
		t.Fatalf("quarantine = %+v", rep.Quarantined)
	}
	// The quarantined bytes and their reason sidecar are on disk for the
	// operator.
	qfile := filepath.Join(dir, rep.Quarantined[0].File)
	if _, err := os.Stat(qfile); err != nil {
		t.Fatalf("quarantined file missing: %v", err)
	}
	if _, err := os.Stat(qfile + ".reason.json"); err != nil {
		t.Fatalf("quarantine reason sidecar missing: %v", err)
	}
	// The boot compaction rewrote the log without the rotten frame.
	st2.Close()
	st3, rep3 := openTestStore(t, dir, "")
	wantNames(t, st3, "b-healthy", "c-healthy")
	if len(rep3.Quarantined) != 0 {
		t.Fatalf("rotten frame resurfaced: %+v", rep3.Quarantined)
	}
}

// TestStoreFailedCompactionDoesNotLoseLaterAcks: with every compaction
// failing between temp file and rename, the log keeps appending in its
// old sequence space, so every acknowledged record replays in order.
func TestStoreFailedCompactionDoesNotLoseLaterAcks(t *testing.T) {
	dir := t.TempDir()
	st, rep := openTestStoreEvery(t, dir, "crashrename:write:*", 1)
	if rep.Compacted {
		t.Fatal("boot compaction reported success under crashrename")
	}
	storeCreate(t, st, "a")
	if err := st.Padding("a", map[string]float64{"n1": 2e-12}); err != nil {
		t.Fatal(err)
	}
	storeCreate(t, st, "b")
	storeCreate(t, st, "c")
	if err := st.Delete("c"); err != nil {
		t.Fatal(err)
	}
	st.Close()

	st2, rep2 := openTestStore(t, dir, "")
	wantNames(t, st2, "a", "b")
	if len(rep2.Quarantined) != 0 {
		t.Fatalf("replay quarantined records of a log that should be monotonic: %+v", rep2.Quarantined)
	}
	if sp := st2.Spec("a"); sp == nil || sp.Padding["n1"] != 2e-12 {
		t.Fatalf("padding acked after failed compactions lost: %+v", sp)
	}
}

// TestStoreRefusesOldLayout: nothing reads the older multi-file layout,
// so a data directory holding it fails the open, naming the file, rather
// than booting empty over acknowledged sessions.
func TestStoreRefusesOldLayout(t *testing.T) {
	for _, name := range []string{"MANIFEST", "journal-000003.wal"} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, name), []byte("old"), 0o644); err != nil {
				t.Fatal(err)
			}
			st, _, err := OpenStore(dir, wal.Hooks{}, 0, t.Logf)
			if err == nil {
				st.Close()
				t.Fatal("open over the old layout succeeded")
			}
			if !strings.Contains(err.Error(), name) {
				t.Fatalf("error does not name %s: %v", name, err)
			}
			if _, serr := os.Stat(filepath.Join(dir, logFile)); !os.IsNotExist(serr) {
				t.Fatalf("refused open still created %s: %v", logFile, serr)
			}
		})
	}
}

// TestStoreQuarantineSpec: quarantining an unreplayable spec tombstones
// it durably and leaves the bytes + reason in quarantine/.
func TestStoreQuarantineSpec(t *testing.T) {
	dir := t.TempDir()
	st, _ := openTestStore(t, dir, "")
	storeCreate(t, st, "bad")
	entry := st.QuarantineSpec("bad", "sources no longer build")
	if entry == nil || entry.Session != "bad" {
		t.Fatalf("entry = %+v", entry)
	}
	if st.Spec("bad") != nil {
		t.Fatal("quarantined spec still listed")
	}
	st.Close()
	st2, _ := openTestStore(t, dir, "")
	if st2.Spec("bad") != nil {
		t.Fatal("quarantined spec resurrected on reboot")
	}
	for _, f := range []string{entry.File, entry.File + ".reason.json"} {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Fatalf("quarantined spec evidence missing: %v", err)
		}
	}
}
