package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
)

// host identifies the machine and build a result came from. Two results
// are comparable only when every field but the commit matches.
type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	GoVersion  string `json:"go"`
	Commit     string `json:"commit"`
	Dirty      bool   `json:"dirty"`
}

func thisHost() host {
	h := host{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        cpuModel(),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				h.Commit = s.Value
			case "vcs.modified":
				h.Dirty = s.Value == "true"
			}
		}
	}
	return h
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// sameHost reports why two results cannot be compared, or nil.
func sameHost(a, b host) error {
	if a.NProc != b.NProc || a.GOMAXPROCS != b.GOMAXPROCS || a.CPU != b.CPU || a.GoVersion != b.GoVersion {
		return fmt.Errorf("results come from different hosts (%d cpus, GOMAXPROCS %d, %q, %s vs %d cpus, GOMAXPROCS %d, %q, %s): compare runs from one host only",
			a.NProc, a.GOMAXPROCS, a.CPU, a.GoVersion, b.NProc, b.GOMAXPROCS, b.CPU, b.GoVersion)
	}
	return nil
}

// compareReports prints, per metric both reports carry, the ratio of b's
// value to a's. Reports from different hosts or workloads are an error.
func compareReports(pathA, pathB string) (string, error) {
	var docs [2]runReport
	for i, p := range []string{pathA, pathB} {
		data, err := os.ReadFile(p)
		if err != nil {
			return "", err
		}
		if err := json.Unmarshal(data, &docs[i]); err != nil {
			return "", fmt.Errorf("%s: %w", p, err)
		}
	}
	a, b := docs[0], docs[1]
	if err := sameHost(a.Host, b.Host); err != nil {
		return "", err
	}
	if a.Workload != b.Workload {
		return "", fmt.Errorf("results are for different workloads (%s vs %s)", a.Workload, b.Workload)
	}
	bv := map[string]detail{}
	for _, m := range b.Metrics {
		bv[m.Name] = m
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s: %s (%s) -> %s (%s)\n", a.Workload, short(a.Host.Commit), seedNote(a), short(b.Host.Commit), seedNote(b))
	for _, m := range a.Metrics {
		o, ok := bv[m.Name]
		if !ok || m.Unit != o.Unit {
			continue
		}
		ratio := "n/a"
		if m.Value != 0 {
			ratio = strconv.FormatFloat(o.Value/m.Value, 'f', 3, 64)
		}
		fmt.Fprintf(&sb, "  %-28s %12.4g -> %12.4g %-6s x%s\n", m.Name, m.Value, o.Value, m.Unit, ratio)
	}
	return sb.String(), nil
}

func short(commit string) string {
	if len(commit) > 12 {
		return commit[:12]
	}
	return commit
}

func seedNote(r runReport) string { return "seed " + strconv.FormatInt(r.Seed, 10) }
