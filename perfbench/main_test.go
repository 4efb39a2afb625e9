package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/bind"
	"repro/internal/core"
	"repro/internal/liberty"
	"repro/internal/report"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/units"
	"repro/internal/workload"
)

// TestMain lets the test binary stand in for the benchmark's own binary
// when a workload generates its inputs in a child process.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "prep" {
		os.Exit(runPrep(os.Args[2:], os.Stderr))
	}
	os.Exit(m.Run())
}

var tinySizes = sizes{
	busNets:     400,
	fabricWidth: 16, fabricLevs: 6,
	iterRounds:   2,
	shardWorkers: 2, shards: 2,
	whatifCalls: 2, whatifNets: 2,
	serveBits: 4,
	rates:     []float64{100, 200},
	tailLimit: 50 * time.Millisecond,
}

// benchmarkSpec is the part of BENCHMARK.json the benchmark must honour.
type benchmarkSpec struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestSpecMatchesCode keeps BENCHMARK.json and the metric tables in step.
func TestSpecMatchesCode(t *testing.T) {
	spec := loadSpec(t)
	whys := map[string]string{"signoff_bus": signoffWhy, "fixpoint_fabric": fixpointWhy, "serve_mixed": serveWhy}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if whys[w.Name] != w.Why {
			t.Errorf("workload %s: why %q, code says %q", w.Name, w.Why, whys[w.Name])
		}
	}
	for _, c := range []struct {
		kind string
		json []struct{ Name, Unit string }
		code []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(c.json) != len(c.code) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, code %d", c.kind, len(c.json), len(c.code))
			continue
		}
		for i, m := range c.json {
			if m.Name != c.code[i].name || m.Unit != c.code[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), code %s (%s)", c.kind, i, m.Name, m.Unit, c.code[i].name, c.code[i].unit)
			}
		}
	}
}

// TestEveryMetricPrinted runs every workload at tiny sizes, untraced and
// traced, and requires each named metric in the last output line with
// its unit, and a correct run.
func TestEveryMetricPrinted(t *testing.T) {
	if testing.Short() {
		t.Skip("builds snad and spawns it")
	}
	spec := loadSpec(t)
	self, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	snad := filepath.Join(t.TempDir(), "snad")
	if out, err := exec.Command("go", "build", "-o", snad, "repro/cmd/snad").CombinedOutput(); err != nil {
		t.Fatalf("building snad: %v\n%s", err, out)
	}
	for _, w := range spec.Workloads {
		for _, traced := range []bool{false, true} {
			dir := t.TempDir()
			cfg := &config{
				workload: w.Name, seed: 7, seconds: 2 * time.Second, trace: traced,
				dir: dir, outDir: dir, snad: snad, self: self, sizes: tinySizes,
			}
			var stdout, stderr bytes.Buffer
			if err := emit(context.Background(), cfg, &stdout, &stderr); err != nil {
				t.Fatalf("%s trace=%v: %v\n%s", w.Name, traced, err, stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s: last line is not a result: %v", w.Name, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d\n%s",
					w.Name, traced, res.Correct, res.Attempted, res.Failed, stderr.String())
			}
			// The inputs come from a child process; it must have been
			// handed the tiny sizes.
			var rep runReport
			if err := json.Unmarshal([]byte(lines[len(lines)-2]), &rep); err != nil {
				t.Fatalf("%s: the line before the result is not a report: %v", w.Name, err)
			}
			for _, d := range rep.Metrics {
				if d.Name == "nets" && d.Value > 2*float64(tinySizes.busNets) {
					t.Errorf("%s: analysed %v nets, not a tiny design", w.Name, d.Value)
				}
			}
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.Name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s missing or not in %s: %+v", w.Name, traced, m.Name, m.Unit, got)
				}
				if !traced && got.Value == 0 {
					t.Errorf("%s: end-to-end metric %s reads 0", w.Name, m.Name)
				}
			}
			// Churn over distinct designs must intern new symbols, or the
			// intern.* metrics cannot show the interner's growth.
			if traced && w.Name == "serve_mixed" && res.Metrics["intern.symbols_growth"].Value <= 0 {
				t.Errorf("serve_mixed: churn interned no symbols: %+v", res.Metrics["intern.symbols_growth"])
			}
			if traced {
				if _, err := os.Stat(filepath.Join(dir, "trace-"+w.Name+"-seed7.json")); err != nil {
					t.Errorf("%s: no trace written: %v", w.Name, err)
				}
			}
		}
	}
}

func tinyBus(t *testing.T, sep float64) (*bind.Design, core.Options) {
	t.Helper()
	g, err := workload.Bus(workload.BusSpec{Bits: 6, WindowSep: sep, WindowWidth: 80 * units.Pico})
	if err != nil {
		t.Fatal(err)
	}
	b, err := g.Bind(liberty.Generic())
	if err != nil {
		t.Fatal(err)
	}
	return b, core.Options{Mode: core.ModeNoiseWindows, FailSoft: true, STA: g.STAOptions()}
}

// TestChecksRejectMismatches hands every output check a deliberately
// wrong result.
func TestChecksRejectMismatches(t *testing.T) {
	ctx := context.Background()
	// 80 ps windows 100 ps apart: no two neighbours overlap until padded.
	b, opts := tinyBus(t, 100*units.Pico)
	res, err := core.AnalyzeCtx(ctx, b, opts)
	if err != nil {
		t.Fatal(err)
	}
	ref := digestCore(res, nil)

	t.Run("signoff digest", func(t *testing.T) {
		nj := report.BuildJSON(res)
		nj.Nets[0].Low.Peak += 1e-9
		if checkDigest("pass", digest(nj, nil), ref) == nil {
			t.Error("a changed peak passed the digest check")
		}
	})

	t.Run("sharded", func(t *testing.T) {
		local, err := core.AnalyzeIterativeCtx(ctx, b, opts, 2)
		if err != nil {
			t.Fatal(err)
		}
		run := func() *shard.Outcome {
			workers := []shard.Worker{
				shard.NewInProc("w0", func(context.Context) (*bind.Design, error) { return b, nil }, opts),
				shard.NewInProc("w1", func(context.Context) (*bind.Design, error) { return b, nil }, opts),
			}
			out, err := shard.Run(ctx, shard.Config{B: b, Opts: opts, Workers: workers, Shards: 2, Token: "t", MaxRounds: 2})
			if err != nil {
				t.Fatal(err)
			}
			return out
		}
		localRep, err := newFixpointReport(local.Rounds, local.Converged, local.Noise, local.Delay)
		if err != nil {
			t.Fatal(err)
		}
		if err := checkSharded(localRep, run()); err != nil {
			t.Fatalf("healthy sharded run rejected: %v", err)
		}
		out := run()
		for _, nn := range out.Noise.Nets {
			nn.Comb[0].Peak += 1e-3
			break
		}
		if checkSharded(localRep, out) == nil {
			t.Error("a changed sharded result passed")
		}
		out = run()
		out.Reassigns = 1
		if checkSharded(localRep, out) == nil {
			t.Error("a sharded run with a re-hosting passed")
		}
	})

	t.Run("what-if", func(t *testing.T) {
		sess, err := core.NewSession(ctx, b, opts)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := sess.Reanalyze(ctx, map[string]float64{"b1": 150 * units.Pico}); err != nil {
			t.Fatal(err)
		}
		if err := checkWhatIf(ctx, b, opts, sess); err != nil {
			t.Fatalf("matching what-if rejected: %v", err)
		}
		other, oopts := tinyBus(t, 0)
		if checkWhatIf(ctx, other, oopts, sess) == nil {
			t.Error("a what-if compared against another design passed")
		}
		unpadded := &server.AnalyzeResponse{Noise: report.BuildJSON(res)}
		steps := []whatifStep{{pad: map[string]float64{"b1": 150 * units.Pico}, resp: unpadded}}
		if replayWhatIf(ctx, b, opts, steps) == nil {
			t.Error("a reanalyze answer that ignores its padding passed the replay")
		}
	})

	t.Run("served", func(t *testing.T) {
		good := &server.AnalyzeResponse{Noise: report.BuildJSON(res)}
		if err := checkResponse("analyze", good, ref); err != nil {
			t.Fatalf("matching response rejected: %v", err)
		}
		bad := &server.AnalyzeResponse{Noise: report.BuildJSON(res)}
		bad.Noise.Violations = append(bad.Noise.Violations, report.ViolationJSON{Net: "b0"})
		if checkResponse("analyze", bad, ref) == nil {
			t.Error("a response with an extra violation passed")
		}
		body, err := json.Marshal(good)
		if err != nil {
			t.Fatal(err)
		}
		if err := checkJob(&report.JobJSON{ID: "j", State: "done", Result: body}, ref); err != nil {
			t.Fatalf("matching job rejected: %v", err)
		}
		if checkJob(&report.JobJSON{ID: "j", State: "failed", Result: body}, ref) == nil {
			t.Error("a failed job passed")
		}
		body, _ = json.Marshal(bad)
		if checkJob(&report.JobJSON{ID: "j", State: "done", Result: body}, ref) == nil {
			t.Error("a job with a wrong result passed")
		}
	})
}

// TestChurnDesignsShareNoNames renames one bus two ways: the results must
// share no net name and still bind.
func TestChurnDesignsShareNoNames(t *testing.T) {
	src, err := busSources(4, true, 1)
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, prefix := range []string{"c0_", "c1_"} {
		r, err := src.renamed(prefix)
		if err != nil {
			t.Fatal(err)
		}
		b, _, err := r.bind()
		if err != nil {
			t.Fatalf("%s: %v", prefix, err)
		}
		for _, n := range b.Net.Nets() {
			if names[n.Name] {
				t.Errorf("net %s appears in two renamed designs", n.Name)
			}
			names[n.Name] = true
		}
	}
}

func TestTailNeedsTenBeyond(t *testing.T) {
	var s samples
	for i := 1; i <= 39; i++ {
		s = append(s, float64(i))
	}
	if _, _, ok := s.tail(); ok {
		t.Error("39 samples gave a tail percentile")
	}
	s = append(s, 40)
	if q, v, ok := s.tail(); !ok || q != 0.75 || v != 30 {
		t.Errorf("40 samples: tail q=%v v=%v ok=%v, want p75 = 30", q, v, ok)
	}
}

func TestCompareRefusesOtherHosts(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, h host) string {
		data, err := json.Marshal(runReport{Workload: "signoff_bus", Host: h,
			Metrics: []detail{{Name: "work_ms", Value: 10, Unit: "ms"}}})
		if err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	a := write("a.json", host{NProc: 2, GOMAXPROCS: 2, CPU: "x", GoVersion: "go1"})
	b := write("b.json", host{NProc: 2, GOMAXPROCS: 2, CPU: "x", GoVersion: "go1", Commit: "other"})
	c := write("c.json", host{NProc: 8, GOMAXPROCS: 8, CPU: "y", GoVersion: "go1"})
	if out, err := compareReports(a, b); err != nil || !strings.Contains(out, "x1.000") {
		t.Errorf("same host: %q, %v", out, err)
	}
	if _, err := compareReports(a, c); err == nil {
		t.Error("results from different hosts compared")
	}
}
