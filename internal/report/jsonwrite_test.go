package report

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/interval"
	"repro/internal/liberty"
	"repro/internal/units"
	"repro/internal/workload"
)

// oracleJSON is the reference the streaming writer must reproduce byte for
// byte: encoding/json's Encoder with a two-space indent.
func oracleJSON(v any) ([]byte, error) {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetIndent("", "  ")
	err := enc.Encode(v)
	return b.Bytes(), err
}

// matchOracle requires WriteJSON and WriteDelayJSON to produce the
// oracle's bytes for BuildJSON and BuildDelayJSON, or, where the oracle
// fails, the same unsupported value with nothing written.
func matchOracle(t *testing.T, res *core.Result, dres *core.DelayResult) {
	t.Helper()
	if res != nil {
		var got bytes.Buffer
		err := WriteJSON(&got, res)
		want, werr := oracleJSON(BuildJSON(res))
		sameOutput(t, "noise", got.Bytes(), err, want, werr)
	}
	if dres != nil {
		var got bytes.Buffer
		err := WriteDelayJSON(&got, dres)
		want, werr := oracleJSON(BuildDelayJSON(dres))
		sameOutput(t, "delay", got.Bytes(), err, want, werr)
	}
}

func sameOutput(t *testing.T, what string, got []byte, err error, want []byte, werr error) {
	t.Helper()
	if werr != nil {
		var ue, we *json.UnsupportedValueError
		if !errors.As(werr, &we) {
			t.Fatalf("%s: oracle failed with %v", what, werr)
		}
		if !errors.As(err, &ue) || ue.Str != we.Str {
			t.Fatalf("%s: got error %v, want one wrapping %v", what, err, werr)
		}
		if len(got) != 0 {
			t.Fatalf("%s: %d bytes written before the error", what, len(got))
		}
		return
	}
	if err != nil {
		t.Fatalf("%s: %v (oracle encoded it)", what, err)
	}
	if !bytes.Equal(got, want) {
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		lo := max(i-80, 0)
		t.Fatalf("%s: differs from encoding/json at byte %d of %d (want %d):\ngot:  %q\nwant: %q",
			what, i, len(got), len(want), got[lo:min(i+80, len(got))], want[lo:min(i+80, len(want))])
	}
}

// TestWriteJSONMatchesEncodingJSON pins the streaming writer to
// encoding/json on real engine results: every workload family, a
// degraded run, and a 10k-net capacity rung.
func TestWriteJSONMatchesEncodingJSON(t *testing.T) {
	fixtures := []struct {
		name string
		gen  func() (*workload.Generated, error)
	}{
		{"bus", func() (*workload.Generated, error) {
			return workload.Bus(workload.BusSpec{Bits: 16, Segs: 2, WindowWidth: 80 * units.Pico})
		}},
		{"fabric", func() (*workload.Generated, error) {
			return workload.Fabric(workload.FabricSpec{Width: 12, Levels: 8, Seed: 3})
		}},
		{"ladder", func() (*workload.Generated, error) {
			return workload.Ladder(workload.LadderSpec{Lines: 16, Steps: 5})
		}},
		{"scale10k", func() (*workload.Generated, error) {
			return workload.Scale(workload.ScaleSpec{Nets: 10000})
		}},
	}
	for _, fx := range fixtures {
		t.Run(fx.name, func(t *testing.T) {
			g, err := fx.gen()
			if err != nil {
				t.Fatal(err)
			}
			b, err := g.Bind(liberty.Generic())
			if err != nil {
				t.Fatal(err)
			}
			opts := core.Options{Mode: core.ModeNoiseWindows, STA: g.STAOptions()}
			res, err := core.Analyze(b, opts)
			if err != nil {
				t.Fatal(err)
			}
			dres, err := core.AnalyzeDelay(b, opts)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Nets) == 0 || len(dres.Impacts) == 0 {
				t.Fatalf("fixture exports %d nets and %d impacts", len(res.Nets), len(dres.Impacts))
			}
			matchOracle(t, res, dres)
		})
	}
	t.Run("degraded", func(t *testing.T) {
		matchOracle(t, degradedRun(t), nil)
	})
}

// TestWriteJSONRejectsNonFinite pins the error contract: a NaN or ±Inf in
// a field JSON must carry as a number fails with an error wrapping
// *json.UnsupportedValueError, and writes zero bytes. The same values in
// nullable fields, or in events a quiet net does not export, encode.
func TestWriteJSONRejectsNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	// Well over the writer's 64 KiB buffer of clean nets and violations
	// precedes each bad value, so only the pre-scan keeps the bytes out.
	const clean = 1000
	noisy := func() *core.Result {
		res := &core.Result{Nets: map[string]*core.NetNoise{"z": {
			Net:    "z",
			Events: [2][]core.Event{{{Peak: 0.2, Width: 1e-11, Window: interval.New(1e-10, 2e-10), Source: "b"}}},
			Comb: [2]core.Combined{
				{Peak: 0.2, Width: 1e-11, Window: interval.New(1e-10, 2e-10), At: 1.5e-10, Members: []string{"b"}},
				{At: nan, Window: interval.Empty()},
			},
		}}}
		addQuietNets(res, clean)
		return res
	}
	withViolation := func(mut func(*core.Violation)) *core.Result {
		res := noisy()
		v := core.Violation{Net: "z", Receiver: "r.A", Peak: 0.3, Limit: 0.25, Slack: -0.05, At: nan}
		for i := 0; i < clean; i++ {
			res.Violations = append(res.Violations, v)
		}
		mut(&v)
		res.Violations = append(res.Violations, v)
		return res
	}
	withNet := func(mut func(*core.NetNoise)) *core.Result {
		res := noisy()
		mut(res.Nets["z"])
		return res
	}
	rejected := map[string]*core.Result{
		"comb peakV NaN":      withNet(func(n *core.NetNoise) { n.Comb[core.KindLow].Peak = nan }),
		"comb widthS Inf":     withNet(func(n *core.NetNoise) { n.Comb[core.KindHigh].Width = -inf }),
		"comb window lo NaN":  withNet(func(n *core.NetNoise) { n.Comb[core.KindLow].Window = interval.Window{Lo: nan, Hi: 1} }),
		"window lo at +Inf":   withNet(func(n *core.NetNoise) { n.Comb[core.KindLow].Window = interval.Window{Lo: inf, Hi: inf} }),
		"event peakV Inf":     withNet(func(n *core.NetNoise) { n.Events[core.KindLow][0].Peak = inf }),
		"event window hi NaN": withNet(func(n *core.NetNoise) { n.Events[core.KindLow][0].Window = interval.Window{Lo: 0, Hi: nan} }),
		"violation peakV NaN": withViolation(func(v *core.Violation) { v.Peak = nan }),
		"violation limitV":    withViolation(func(v *core.Violation) { v.Limit = inf }),
		"violation slackV":    withViolation(func(v *core.Violation) { v.Slack = -inf }),
	}
	for name, res := range rejected {
		t.Run(name, func(t *testing.T) {
			var out bytes.Buffer
			err := WriteJSON(&out, res)
			var ue *json.UnsupportedValueError
			if !errors.As(err, &ue) {
				t.Fatalf("err = %v, want one wrapping *json.UnsupportedValueError", err)
			}
			if out.Len() != 0 {
				t.Fatalf("%d bytes written before the error", out.Len())
			}
		})
	}
	delayRejected := map[string]core.DelayImpact{
		"noisePeakV NaN":    {Net: "z", NoisePeak: nan},
		"deltaS Inf":        {Net: "z", Delta: inf},
		"victim window NaN": {Net: "z", VictimWindow: interval.NewSet(interval.Window{Lo: nan, Hi: 1})},
	}
	for name, bad := range delayRejected {
		t.Run("delay "+name, func(t *testing.T) {
			res := &core.DelayResult{}
			for i := 0; i < clean; i++ {
				res.Impacts = append(res.Impacts, core.DelayImpact{Net: "a", NoisePeak: 0.1, Delta: 1e-12, At: nan})
			}
			res.Impacts = append(res.Impacts, bad)
			var out bytes.Buffer
			err := WriteDelayJSON(&out, res)
			var ue *json.UnsupportedValueError
			if !errors.As(err, &ue) || out.Len() != 0 {
				t.Fatalf("err = %v with %d bytes written, want an unsupported-value error and none", err, out.Len())
			}
		})
	}
	// A quiet net does not export its events, so their values cannot fail.
	quiet := withNet(func(n *core.NetNoise) {
		n.Comb[core.KindLow] = core.Combined{At: nan, Window: interval.Empty()}
		n.Events[core.KindLow][0].Peak = nan
	})
	var out bytes.Buffer
	if err := WriteJSON(&out, quiet); err != nil {
		t.Fatalf("quiet net with a NaN event: %v", err)
	}
}

// addQuietNets adds n quiet nets named q0000, q0001, ... to res.
func addQuietNets(res *core.Result, n int) {
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("q%04d", i)
		res.Nets[name] = &core.NetNoise{Net: name, Comb: [2]core.Combined{
			{At: math.NaN(), Window: interval.Empty()},
			{At: math.NaN(), Window: interval.Empty()},
		}}
	}
}

// failWriter fails every write after the first n bytes.
type failWriter struct{ n int }

var errFull = errors.New("device full")

func (w *failWriter) Write(p []byte) (int, error) {
	if len(p) > w.n {
		k := w.n
		w.n = 0
		return k, errFull
	}
	w.n -= len(p)
	return len(p), nil
}

// TestWriteJSONReportsWriteError: a failing destination surfaces its
// error, both mid-stream and on the final flush.
func TestWriteJSONReportsWriteError(t *testing.T) {
	res := degradedRun(t)
	addQuietNets(res, 1000) // well past one 64 KiB buffer
	var full bytes.Buffer
	if err := WriteJSON(&full, res); err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, full.Len() / 2, full.Len() - 1} {
		if err := WriteJSON(&failWriter{n: n}, res); !errors.Is(err, errFull) {
			t.Fatalf("write failing after %d of %d bytes: err = %v", n, full.Len(), err)
		}
	}
}

// pick returns nil, an empty slice or full, as the two bits of shape at
// shift select.
func pick[T any](shape uint8, shift uint, full []T) []T {
	switch shape >> shift & 3 {
	case 0:
		return nil
	case 1:
		return []T{}
	}
	return full
}

// fuzzResults builds a noise and a delay result around one victim named
// name, so every value the fuzzer picks lands in a field the writer
// encodes. shape chooses nil, empty or filled lists and the flags.
func fuzzResults(name, member string, peak, width, at, lo, hi float64, shape uint8) (*core.Result, *core.DelayResult) {
	w := interval.Window{Lo: lo, Hi: hi}
	members := pick(shape, 0, []string{member, name})
	res := &core.Result{
		Mode:  core.ModeNoiseWindows,
		Stats: core.Stats{Victims: int(shape), AggressorPairs: -int(shape), Converged: shape&1 == 1, DegradedNets: 2},
		Violations: pick(shape, 2, []core.Violation{{
			Net: name, Receiver: member + ".A", Kind: core.KindHigh,
			Peak: peak, Width: width, Limit: lo, Slack: hi, At: at, Members: members,
		}}),
		Diags: pick(shape, 4, []core.Diag{
			{Net: name, Stage: member, Err: errors.New(member), Degraded: true},
			{Net: member, Stage: core.StageDelay},
		}),
	}
	if shape>>6 != 0 {
		res.Nets = map[string]*core.NetNoise{
			"quiet": {Net: "quiet", Comb: [2]core.Combined{
				{At: math.NaN(), Window: interval.Empty()},
				{At: math.NaN(), Window: interval.Infinite()},
			}},
			name: {
				Net: name,
				Events: [2][]core.Event{
					{{Peak: peak, Width: width, Window: w, Source: member}, {Peak: width, Width: peak, Window: interval.Infinite(), Source: name}},
					pick(shape, 6, []core.Event{{Peak: at, Width: lo, Window: interval.Window{Lo: hi, Hi: math.Inf(1)}, Source: "virtual"}}),
				},
				Comb: [2]core.Combined{
					{Peak: peak, Width: width, Window: w, At: at, Members: members},
					{Peak: lo, Width: hi, Window: interval.Empty(), At: math.NaN()},
				},
			},
		}
	}
	dres := &core.DelayResult{
		Mode: core.ModeAllAggressors,
		Impacts: pick(shape, 2, []core.DelayImpact{
			{Net: name, Rise: shape&1 == 1, VictimWindow: interval.NewSet(w, interval.Window{Lo: -hi, Hi: -lo}),
				NoisePeak: peak, Delta: width, At: at, Members: members},
			{Net: member, VictimWindow: interval.NewSet(interval.Infinite()), At: math.NaN()},
		}),
		Diags: res.Diags,
	}
	return res, dres
}

// FuzzWriteJSON checks the streaming writer against encoding/json on
// arbitrary names and values: both must produce the same bytes, or fail
// on the same unsupported value with nothing written.
func FuzzWriteJSON(f *testing.F) {
	nan, inf, negZero := math.NaN(), math.Inf(1), math.Copysign(0, -1)
	f.Add("b0", "a1", 0.3, 2e-11, 1.5e-10, 1e-10, 2e-10, uint8(0xff))
	f.Add("b0", "a1", 0.3, 2e-11, nan, -inf, inf, uint8(0xfa))    // NaN At, infinite window
	f.Add("b0", "a1", 0.3, 2e-11, nan, 2e-10, 1e-10, uint8(0xc5)) // empty window
	f.Add("b0", "a1", nan, 2e-11, 1e-10, 0.0, 1.0, uint8(0xff))   // NaN peak
	f.Add("b0", "a1", 0.1, inf, 1e-10, 0.0, 1.0, uint8(0x40))     // Inf width
	f.Add("b0", "a1", 0.1, 0.2, 1e-10, nan, 1.0, uint8(0xff))     // NaN window end
	f.Add("b0", "a1", 0.1, 0.2, 1e-10, inf, inf, uint8(0xff))     // window at +Inf
	f.Add("q\"uo\\te", "<a>&b", 1e-7, 1e21, negZero, 5e-324, 1e-6, uint8(0xfe))
	f.Add("\x00\x01\x1f\x7f\b\f\n\r\t", "\u2028x\u2029", 9.999999e20, -1e-7, 123456789.0, -0.1, 1e300, uint8(0xaa))
	f.Add("\xff\xfe bad", "é日本\xe2\x80", 1e-320, 2.2250738585072014e-308, 1e20, -1e21, 0.000001, uint8(0x55))
	f.Add("", "", 0.0, 0.0, 0.0, 0.0, 0.0, uint8(0))
	f.Fuzz(func(t *testing.T, name, member string, peak, width, at, lo, hi float64, shape uint8) {
		res, dres := fuzzResults(name, member, peak, width, at, lo, hi, shape)
		matchOracle(t, res, dres)
	})
}
