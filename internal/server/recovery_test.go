package server

import (
	"encoding/json"
	"net/http"
	"sync"
	"testing"
	"time"

	"repro/internal/report"
	"repro/internal/units"
	"repro/internal/wal"
)

// analyzeOK runs an analyze (or reanalyze) and decodes the response.
func analyzeOK(t *testing.T, base, name, endpoint string, body any) AnalyzeResponse {
	t.Helper()
	resp, data := do(t, "POST", base+"/v1/sessions/"+name+"/"+endpoint, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s %s: status %d: %s", endpoint, name, resp.StatusCode, data)
	}
	var ar AnalyzeResponse
	if err := json.Unmarshal(data, &ar); err != nil {
		t.Fatal(err)
	}
	return ar
}

// TestServerRestartRestoresSessions is the tentpole acceptance test at
// the handler level: sessions created and padded before a restart are
// served identically after it — same names, same analysis results, same
// cumulative padding.
func TestServerRestartRestoresSessions(t *testing.T) {
	dir := t.TempDir()
	_, ts := newTestServer(t, Config{DataDir: dir})
	createSession(t, ts.URL, "alpha", SessionOptions{})
	createSession(t, ts.URL, "beta", SessionOptions{})
	before := analyzeOK(t, ts.URL, "alpha", "analyze", nil)
	padded := analyzeOK(t, ts.URL, "alpha", "reanalyze",
		ReanalyzeRequest{Padding: map[string]float64{"b1": 5 * units.Pico}})
	if padded.ChangedNets == 0 {
		t.Fatal("padding changed nothing; the survival check below would be vacuous")
	}
	ts.Close()

	// "Restart": a fresh server over the same directory. (The SIGKILL
	// variant, with no orderly close at all, lives in cmd/snad's e2e.)
	_, ts2 := newTestServer(t, Config{DataDir: dir})
	resp, data := do(t, "GET", ts2.URL+"/v1/sessions", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("list: %d", resp.StatusCode)
	}
	var list []SessionInfo
	if err := json.Unmarshal(data, &list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 2 || list[0].Name != "alpha" || list[1].Name != "beta" {
		t.Fatalf("list = %+v", list)
	}
	for _, info := range list {
		if !info.Persisted || !info.Restored || info.RecoveredAt == "" {
			t.Fatalf("restored session info = %+v", info)
		}
	}

	// The report cache is warm state: gone, with an explanation.
	resp, data = do(t, "GET", ts2.URL+"/v1/sessions/alpha/report", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("report after restart: %d", resp.StatusCode)
	}
	ei := wantErrKind(t, data, "not_found")
	if ei.Message == "no session \"alpha\"" {
		t.Fatalf("restored session reported as nonexistent: %q", ei.Message)
	}

	// Replaying the same padding changes nothing — the cumulative padding
	// survived the restart and re-seeded the engine.
	replayed := analyzeOK(t, ts2.URL, "alpha", "reanalyze",
		ReanalyzeRequest{Padding: map[string]float64{"b1": 5 * units.Pico}})
	if replayed.ChangedNets != 0 {
		t.Fatalf("padding did not survive the restart: %d nets changed on replay", replayed.ChangedNets)
	}
	// Iteration count is a property of the computation path (the warm
	// incremental pass converges faster than the rebuilt engine's full
	// fixpoint), not of the result; normalize it before comparing.
	padded.Noise.Stats.Iterations = 0
	replayed.Noise.Stats.Iterations = 0
	wantJSON, _ := json.Marshal(padded.Noise)
	gotJSON, _ := json.Marshal(replayed.Noise)
	if string(wantJSON) != string(gotJSON) {
		t.Fatalf("restored session's analysis differs from the pre-restart result\nwant: %s\ngot:  %s", wantJSON, gotJSON)
	}
	if before.Noise.Stats.Victims != replayed.Noise.Stats.Victims {
		t.Fatalf("victims %d -> %d across restart", before.Noise.Stats.Victims, replayed.Noise.Stats.Victims)
	}
}

// TestServerCreateJournaledBefore201: a create whose journal append fails
// is refused with a retryable 503 and leaves no trace — not in memory,
// not on disk, not after a restart.
func TestServerCreateJournaledBefore201(t *testing.T) {
	dir := t.TempDir()
	_, ts := newTestServer(t, Config{DataDir: dir, StoreFaultSpec: "torn:append:1"})
	resp, data := do(t, "POST", ts.URL+"/v1/sessions", busPayload(t, "doomed", 4, SessionOptions{}))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("unjournaled create: status %d: %s", resp.StatusCode, data)
	}
	wantErrKind(t, data, "storage")
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("storage failure without a Retry-After hint")
	}
	resp, _ = do(t, "GET", ts.URL+"/v1/sessions/doomed", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("refused create still visible: %d", resp.StatusCode)
	}
	// The fault was one-shot: a retry of the same create succeeds.
	createSession(t, ts.URL, "doomed", SessionOptions{})
	ts.Close()

	_, ts2 := newTestServer(t, Config{DataDir: dir})
	resp, _ = do(t, "GET", ts2.URL+"/v1/sessions/doomed", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("acknowledged create lost across restart: %d", resp.StatusCode)
	}
}

// TestServerDeleteJournaledBefore204 is the satellite regression test: a
// DELETE whose tombstone cannot be journaled is refused, the session
// stays fully served, and only a journaled delete survives a restart.
func TestServerDeleteJournaledBefore204(t *testing.T) {
	dir := t.TempDir()
	// Append #1 is the create; #2 the delete's tombstone.
	_, ts := newTestServer(t, Config{DataDir: dir, StoreFaultSpec: "torn:append:2"})
	createSession(t, ts.URL, "keep", SessionOptions{})

	resp, data := do(t, "DELETE", ts.URL+"/v1/sessions/keep", nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("unjournaled delete: status %d: %s", resp.StatusCode, data)
	}
	wantErrKind(t, data, "storage")
	// The refused delete left the session fully alive.
	resp, _ = do(t, "GET", ts.URL+"/v1/sessions/keep", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("session gone after refused delete: %d", resp.StatusCode)
	}
	analyzeOK(t, ts.URL, "keep", "analyze", nil)

	// Retrying the delete succeeds (the fault was one-shot)...
	resp, _ = do(t, "DELETE", ts.URL+"/v1/sessions/keep", nil)
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("retried delete: %d", resp.StatusCode)
	}
	ts.Close()

	// ...and the tombstone holds across the restart.
	_, ts2 := newTestServer(t, Config{DataDir: dir})
	resp, _ = do(t, "GET", ts2.URL+"/v1/sessions/keep", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("deleted session resurrected: %d", resp.StatusCode)
	}
}

// TestServerEvictedSessionRematerializes is the satellite eviction test:
// LRU-evicting a persisted session only unloads it; the next request
// transparently reloads it from disk with its padding intact.
func TestServerEvictedSessionRematerializes(t *testing.T) {
	dir := t.TempDir()
	clock := newTestClock()
	cfg := Config{DataDir: dir, MaxSessions: 1, now: clock.now}
	_, ts := newTestServer(t, cfg)
	createSession(t, ts.URL, "first", SessionOptions{})
	padded := analyzeOK(t, ts.URL, "first", "reanalyze",
		ReanalyzeRequest{Padding: map[string]float64{"b1": 5 * units.Pico}})
	if padded.ChangedNets == 0 {
		t.Fatal("padding changed nothing")
	}

	// Creating "second" evicts "first" from memory — but not from disk.
	createSession(t, ts.URL, "second", SessionOptions{})
	resp, data := do(t, "GET", ts.URL+"/v1/sessions", nil)
	var list []SessionInfo
	if err := json.Unmarshal(data, &list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 2 {
		t.Fatalf("list after eviction = %+v", list)
	}
	for _, info := range list {
		if info.Name == "first" && info.Loaded {
			t.Fatalf("evicted session still loaded: %+v", info)
		}
	}

	// GET transparently re-materializes it (evicting "second" in turn),
	// with the padding state intact.
	resp, data = do(t, "GET", ts.URL+"/v1/sessions/first", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("evicted session GET: %d: %s", resp.StatusCode, data)
	}
	var info SessionInfo
	if err := json.Unmarshal(data, &info); err != nil {
		t.Fatal(err)
	}
	if !info.Loaded || !info.Restored {
		t.Fatalf("re-materialized info = %+v", info)
	}
	replayed := analyzeOK(t, ts.URL, "first", "reanalyze",
		ReanalyzeRequest{Padding: map[string]float64{"b1": 5 * units.Pico}})
	if replayed.ChangedNets != 0 {
		t.Fatalf("padding lost across eviction: %d nets changed on replay", replayed.ChangedNets)
	}

	// The evicted name is still taken.
	resp, data = do(t, "POST", ts.URL+"/v1/sessions", busPayload(t, "second", 4, SessionOptions{}))
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("recreate of evicted persisted session: %d: %s", resp.StatusCode, data)
	}
	wantErrKind(t, data, "conflict")
}

// TestServerRecoveryEndpoint pins /v1/recovery: 404 memory-only, and the
// structured boot report — restored names, quarantine entries — when
// durable.
func TestServerRecoveryEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, data := do(t, "GET", ts.URL+"/v1/recovery", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("memory-only recovery: %d", resp.StatusCode)
	}
	wantErrKind(t, data, "not_found")

	dir := t.TempDir()
	_, ts2 := newTestServer(t, Config{DataDir: dir})
	createSession(t, ts2.URL, "bus", SessionOptions{})
	ts2.Close()

	_, ts3 := newTestServer(t, Config{DataDir: dir})
	resp, data = do(t, "GET", ts3.URL+"/v1/recovery", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("recovery: %d: %s", resp.StatusCode, data)
	}
	var rec report.RecoveryJSON
	if err := json.Unmarshal(data, &rec); err != nil {
		t.Fatal(err)
	}
	if len(rec.Restored) != 1 || rec.Restored[0] != "bus" || !rec.Compacted || rec.RecoveredAt == "" {
		t.Fatalf("recovery = %+v", rec)
	}
}

// TestServerUnreplayableSpecQuarantined: a persisted spec whose sources
// no longer build (CRC-valid bytes, broken content) is quarantined at
// boot with a tombstone — the server still comes up, the healthy session
// still serves, and the next boot is clean.
func TestServerUnreplayableSpecQuarantined(t *testing.T) {
	dir := t.TempDir()
	// Seed the store directly: the store journals payloads verbatim, so a
	// create whose netlist no longer parses models on-disk format skew.
	st, _, err := OpenStore(dir, wal.Hooks{}, 0, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Create(&CreateSessionRequest{Name: "skewed", Netlist: "not a netlist\n"}); err != nil {
		t.Fatal(err)
	}
	good := busPayload(t, "good", 4, SessionOptions{})
	if err := st.Create(&good); err != nil {
		t.Fatal(err)
	}
	st.Close()

	_, ts := newTestServer(t, Config{DataDir: dir})
	resp, _ := do(t, "GET", ts.URL+"/v1/sessions/good", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy session did not survive its neighbor's rot: %d", resp.StatusCode)
	}
	resp, _ = do(t, "GET", ts.URL+"/v1/sessions/skewed", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unreplayable session still served: %d", resp.StatusCode)
	}
	resp, data := do(t, "GET", ts.URL+"/v1/recovery", nil)
	var rec report.RecoveryJSON
	if err := json.Unmarshal(data, &rec); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, q := range rec.Quarantined {
		if q.Session == "skewed" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no quarantine entry for the unreplayable spec: %+v", rec.Quarantined)
	}
	for _, name := range rec.Restored {
		if name == "skewed" {
			t.Fatal("quarantined session listed as restored")
		}
	}
	ts.Close()

	_, ts2 := newTestServer(t, Config{DataDir: dir})
	resp, data = do(t, "GET", ts2.URL+"/v1/recovery", nil)
	var rec2 report.RecoveryJSON
	if err := json.Unmarshal(data, &rec2); err != nil {
		t.Fatal(err)
	}
	if len(rec2.Quarantined) != 0 {
		t.Fatalf("quarantined spec resurfaced on the next boot: %+v", rec2.Quarantined)
	}
}

// TestServerBootBeyondSessionCap: persisted sessions past MaxSessions
// stay on disk at boot and reload lazily.
func TestServerBootBeyondSessionCap(t *testing.T) {
	dir := t.TempDir()
	_, ts := newTestServer(t, Config{DataDir: dir})
	for _, name := range []string{"s1", "s2", "s3"} {
		createSession(t, ts.URL, name, SessionOptions{})
	}
	ts.Close()

	clock := newTestClock()
	_, ts2 := newTestServer(t, Config{DataDir: dir, MaxSessions: 2, now: clock.now})
	resp, data := do(t, "GET", ts2.URL+"/v1/sessions", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("list: %d", resp.StatusCode)
	}
	var list []SessionInfo
	if err := json.Unmarshal(data, &list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 3 {
		t.Fatalf("list = %+v", list)
	}
	unloaded := 0
	for _, info := range list {
		if !info.Loaded {
			unloaded++
		}
	}
	if unloaded != 1 {
		t.Fatalf("%d sessions unloaded at boot, want 1 (%+v)", unloaded, list)
	}
	// Every one of them serves, loaded or not.
	for _, name := range []string{"s1", "s2", "s3"} {
		analyzeOK(t, ts2.URL, name, "analyze", nil)
	}
}

// TestServerStorageDegradedSurfaced: a storage failure flips the readyz
// diagnostic without killing the server.
func TestServerStorageDegradedSurfaced(t *testing.T) {
	dir := t.TempDir()
	_, ts := newTestServer(t, Config{DataDir: dir, StoreFaultSpec: "enospc:append:1"})
	ready := func() ReadyResponse {
		resp, data := do(t, "GET", ts.URL+"/readyz", nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("readyz: %d", resp.StatusCode)
		}
		var rr ReadyResponse
		if err := json.Unmarshal(data, &rr); err != nil {
			t.Fatal(err)
		}
		return rr
	}
	if rr := ready(); !rr.Durable || rr.StorageDegraded {
		t.Fatalf("fresh readyz = %+v", rr)
	}
	resp, _ := do(t, "POST", ts.URL+"/v1/sessions", busPayload(t, "x", 4, SessionOptions{}))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("create under enospc: %d", resp.StatusCode)
	}
	if rr := ready(); !rr.StorageDegraded {
		t.Fatalf("storage failure not surfaced: %+v", rr)
	}
}

// testClock hands out strictly increasing times under a lock so LRU
// ordering is deterministic even with concurrent requests.
type testClock struct {
	mu   sync.Mutex
	base time.Time
	n    int64
}

func newTestClock() *testClock { return &testClock{base: time.Now()} }

func (c *testClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n++
	return c.base.Add(time.Duration(c.n) * time.Second)
}
