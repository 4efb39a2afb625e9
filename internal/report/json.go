package report

import (
	"cmp"
	"encoding/json"
	"io"
	"math"
	"slices"

	"repro/internal/core"
	"repro/internal/interval"
)

// JSON export: a stable, self-describing schema for piping analysis
// results into other tools (dashboards, waiver systems, regression
// tracking) and for the snad analysis service's responses. Quantities are
// base SI units; absent windows are null.
//
// WriteJSON and WriteDelayJSON stream the report (jsonwrite.go): nets are
// converted and encoded one at a time, in sorted-name order, so a
// sign-off report never exists whole in memory. Their bytes are exactly
// what encoding/json's Encoder with SetIndent("", "  ") produces for
// BuildJSON/BuildDelayJSON; encoding/json serves only as that reference,
// in the tests, and as the decoder behind ReadJSON.
//
// NaN discipline: JSON has no NaN or ±Inf, so every field that can carry
// the engine's NaN sentinel — Combined.At and Violation.At for quiet
// nets, DelayImpact.At from interval.Combination's `At: math.NaN()`
// sentinel — is a *float64 that encodes as null, and every window bound
// that can be infinite encodes as a null endpoint. A non-finite value in
// any other field is an error, and the writer enforces it: a pre-scan
// rejects the report before its first byte, with an error wrapping
// *json.UnsupportedValueError, as encoding/json does. The regression
// tests in json_test.go and jsonwrite_test.go pin both. The remaining
// producers of the NaN sentinel (interval.MaxOverlapSum and
// MaxOverlapSumConstrained) are guarded at their call sites: core's delay
// pass drops combinations with a NaN instant before they become impacts.
// The schema types are exported so clients can decode responses and so
// ReadJSON can round-trip a report losslessly.

// WindowJSON is a noise window; bounds are pointers because windows may be
// unbounded (a virtual aggressor or a degraded net is "always on"): an
// infinite end serializes as null, which JSON can carry and ±Inf cannot.
type WindowJSON struct {
	Lo *float64 `json:"lo"`
	Hi *float64 `json:"hi"`
}

func jsonWin(w interval.Window) *WindowJSON {
	if w.IsEmpty() {
		return nil
	}
	// One allocation holds the window and both of its ends.
	box := &struct {
		win    WindowJSON
		lo, hi float64
	}{lo: w.Lo, hi: w.Hi}
	if !math.IsInf(w.Lo, -1) {
		box.win.Lo = &box.lo
	}
	if !math.IsInf(w.Hi, 1) {
		box.win.Hi = &box.hi
	}
	return &box.win
}

// jsonSet renders each disjoint window of a set.
func jsonSet(s interval.Set) []*WindowJSON {
	if s.IsEmpty() {
		return nil
	}
	out := make([]*WindowJSON, 0, s.Len())
	for _, w := range s.Windows() {
		out = append(out, jsonWin(w))
	}
	return out
}

// finite returns a pointer to v, or nil when v is NaN or infinite — the
// null encoding for "no meaningful instant".
func finite(v float64) *float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return nil
	}
	return &v
}

// EventJSON is one glitch hypothesis.
type EventJSON struct {
	Source string      `json:"source"`
	Peak   float64     `json:"peakV"`
	Width  float64     `json:"widthS"`
	Window *WindowJSON `json:"window"`
}

// CombinedJSON is the worst windowed combination for one victim state.
type CombinedJSON struct {
	Peak    float64     `json:"peakV"`
	Width   float64     `json:"widthS"`
	At      *float64    `json:"atS"`
	Window  *WindowJSON `json:"window"`
	Members []string    `json:"members,omitempty"`
}

// NetJSON is one victim net's analysis.
type NetJSON struct {
	Net  string       `json:"net"`
	Low  CombinedJSON `json:"low"`
	High CombinedJSON `json:"high"`
	// Events are included only for nets with any noise, to keep exports
	// of big clean designs small.
	LowEvents  []EventJSON `json:"lowEvents,omitempty"`
	HighEvents []EventJSON `json:"highEvents,omitempty"`
}

// ViolationJSON is one failed receiver check.
type ViolationJSON struct {
	Net      string   `json:"net"`
	Receiver string   `json:"receiver"`
	State    string   `json:"state"`
	Peak     float64  `json:"peakV"`
	Limit    float64  `json:"limitV"`
	Slack    float64  `json:"slackV"`
	At       *float64 `json:"atS"`
	Members  []string `json:"members,omitempty"`
}

// DegradationJSON is one net the fail-soft engine could not analyze.
type DegradationJSON struct {
	Net      string `json:"net"`
	Stage    string `json:"stage"`
	Error    string `json:"error"`
	Degraded bool   `json:"degraded"`
}

// ResultJSON is the full noise-analysis report.
type ResultJSON struct {
	Mode       string          `json:"mode"`
	Stats      core.Stats      `json:"stats"`
	Violations []ViolationJSON `json:"violations"`
	// Degradations lists nets the fail-soft engine could not analyze;
	// their entries in nets carry conservative full-rail bounds.
	Degradations []DegradationJSON `json:"degradations,omitempty"`
	Nets         []NetJSON         `json:"nets"`
}

// DelayImpactJSON is one crosstalk delay push-out.
type DelayImpactJSON struct {
	Net  string `json:"net"`
	Edge string `json:"edge"` // "rise" | "fall"
	// VictimWindow is the victim's own switching-window set for the edge.
	VictimWindow []*WindowJSON `json:"victimWindow,omitempty"`
	NoisePeak    float64       `json:"noisePeakV"`
	Delta        float64       `json:"deltaS"`
	// At is an instant achieving the worst overlap; null when the engine's
	// NaN sentinel marked none.
	At      *float64 `json:"atS"`
	Members []string `json:"members,omitempty"`
}

// DelayResultJSON is the design-wide crosstalk delta-delay report.
type DelayResultJSON struct {
	Mode         string            `json:"mode"`
	Impacts      []DelayImpactJSON `json:"impacts"`
	Degradations []DegradationJSON `json:"degradations,omitempty"`
}

func jsonComb(c core.Combined) CombinedJSON {
	return CombinedJSON{
		Peak:    c.Peak,
		Width:   c.Width,
		At:      finite(c.At),
		Window:  jsonWin(c.Window),
		Members: c.Members,
	}
}

func jsonEvents(events []core.Event) []EventJSON {
	out := make([]EventJSON, 0, len(events))
	for _, e := range events {
		out = append(out, EventJSON{
			Source: e.Source,
			Peak:   e.Peak,
			Width:  e.Width,
			Window: jsonWin(e.Window),
		})
	}
	return out
}

func jsonDiag(d core.Diag) DegradationJSON {
	jd := DegradationJSON{Net: d.Net, Stage: d.Stage, Degraded: d.Degraded}
	if d.Err != nil {
		jd.Error = d.Err.Error()
	}
	return jd
}

func jsonDiags(diags []core.Diag) []DegradationJSON {
	var out []DegradationJSON
	for _, d := range diags {
		out = append(out, jsonDiag(d))
	}
	return out
}

func jsonViolation(v core.Violation) ViolationJSON {
	return ViolationJSON{
		Net:      v.Net,
		Receiver: v.Receiver,
		State:    v.Kind.String(),
		Peak:     v.Peak,
		Limit:    v.Limit,
		Slack:    v.Slack,
		At:       finite(v.At),
		Members:  v.Members,
	}
}

// hasEvents is the rule behind NetJSON's event lists: only nets with any
// noise carry them.
func hasEvents(nn *core.NetNoise) bool { return nn.WorstPeak() > 0 }

func jsonNet(name string, nn *core.NetNoise) NetJSON {
	jn := NetJSON{
		Net:  name,
		Low:  jsonComb(nn.Comb[core.KindLow]),
		High: jsonComb(nn.Comb[core.KindHigh]),
	}
	if hasEvents(nn) {
		jn.LowEvents = jsonEvents(nn.Events[core.KindLow])
		jn.HighEvents = jsonEvents(nn.Events[core.KindHigh])
	}
	return jn
}

func jsonImpact(im core.DelayImpact) DelayImpactJSON {
	edge := "fall"
	if im.Rise {
		edge = "rise"
	}
	return DelayImpactJSON{
		Net:          im.Net,
		Edge:         edge,
		VictimWindow: jsonSet(im.VictimWindow),
		NoisePeak:    im.NoisePeak,
		Delta:        im.Delta,
		At:           finite(im.At),
		Members:      im.Members,
	}
}

// namedNet is one entry of a result's net map.
type namedNet struct {
	name string
	nn   *core.NetNoise
}

// sortedNets returns the result's nets in the export's order, by name.
func sortedNets(res *core.Result) []namedNet {
	nets := make([]namedNet, 0, len(res.Nets))
	for name, nn := range res.Nets {
		nets = append(nets, namedNet{name, nn})
	}
	slices.SortFunc(nets, func(a, b namedNet) int { return cmp.Compare(a.name, b.name) })
	return nets
}

// BuildJSON converts a result into the export schema. Nets are sorted by
// name for deterministic output.
func BuildJSON(res *core.Result) *ResultJSON {
	out := &ResultJSON{
		Mode:         res.Mode.String(),
		Stats:        res.Stats,
		Degradations: jsonDiags(res.Diags),
	}
	for _, v := range res.Violations {
		out.Violations = append(out.Violations, jsonViolation(v))
	}
	for _, n := range sortedNets(res) {
		out.Nets = append(out.Nets, jsonNet(n.name, n.nn))
	}
	return out
}

// BuildDelayJSON converts a delta-delay result into the export schema.
func BuildDelayJSON(res *core.DelayResult) *DelayResultJSON {
	out := &DelayResultJSON{
		Mode:         res.Mode.String(),
		Degradations: jsonDiags(res.Diags),
	}
	for _, im := range res.Impacts {
		out.Impacts = append(out.Impacts, jsonImpact(im))
	}
	return out
}

// ReadJSON parses a report previously written by WriteJSON (or returned
// by the snad service). Together with WriteJSON it round-trips losslessly:
// marshal → unmarshal → re-marshal is byte-identical, which is what makes
// the server's JSON responses stable for downstream consumers.
func ReadJSON(r io.Reader) (*ResultJSON, error) {
	var out ResultJSON
	dec := json.NewDecoder(r)
	if err := dec.Decode(&out); err != nil {
		return nil, err
	}
	return &out, nil
}
