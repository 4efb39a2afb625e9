package report

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"reflect"
	"strconv"
	"unicode/utf8"

	"repro/internal/core"
	"repro/internal/interval"
)

// WriteJSON serializes a full analysis result. It streams: each net is
// converted and encoded on its own, so memory stays flat in the design's
// size. A value JSON cannot carry fails the call before anything is
// written (see the NaN discipline in json.go).
func WriteJSON(w io.Writer, res *core.Result) error {
	nets := sortedNets(res)
	if err := checkNoise(res, nets); err != nil {
		return err
	}
	e := newEncoder(w)
	e.open('{')
	e.key("mode")
	e.str(res.Mode.String())
	e.key("stats")
	e.stats(res.Stats)
	e.list("violations", len(res.Violations), func(i int) {
		v := jsonViolation(res.Violations[i])
		e.violation(&v)
	})
	e.degradations(res.Diags)
	e.list("nets", len(nets), func(i int) {
		n := jsonNet(nets[i].name, nets[i].nn)
		e.net(&n)
	})
	e.close('}')
	return e.finish()
}

// WriteDelayJSON serializes a delta-delay result, streaming like
// WriteJSON.
func WriteDelayJSON(w io.Writer, res *core.DelayResult) error {
	if err := checkDelay(res); err != nil {
		return err
	}
	e := newEncoder(w)
	e.open('{')
	e.key("mode")
	e.str(res.Mode.String())
	e.list("impacts", len(res.Impacts), func(i int) {
		im := jsonImpact(res.Impacts[i])
		e.impact(&im)
	})
	e.degradations(res.Diags)
	e.close('}')
	return e.finish()
}

// checkNoise returns an error for the first value, in document order,
// that the noise export must carry as a number and JSON cannot. It visits
// exactly the non-nullable floats the converters pass through: the
// nullable instants go through finite, and window ends through jsonWin.
func checkNoise(res *core.Result, nets []namedNet) error {
	for _, v := range res.Violations {
		if err := checkNums(v.Peak, v.Limit, v.Slack); err != nil {
			return fmt.Errorf("report: violation on net %q: %w", v.Net, err)
		}
	}
	for _, n := range nets {
		if err := checkNet(n.nn); err != nil {
			return fmt.Errorf("report: net %q: %w", n.name, err)
		}
	}
	return nil
}

// checkDelay is checkNoise for the delta-delay export.
func checkDelay(res *core.DelayResult) error {
	for _, im := range res.Impacts {
		if err := checkImpact(im); err != nil {
			return fmt.Errorf("report: delay impact on net %q: %w", im.Net, err)
		}
	}
	return nil
}

func checkNet(nn *core.NetNoise) error {
	if err := checkComb(nn.Comb[core.KindLow]); err != nil {
		return err
	}
	if err := checkComb(nn.Comb[core.KindHigh]); err != nil {
		return err
	}
	if !hasEvents(nn) {
		return nil
	}
	if err := checkEvents(nn.Events[core.KindLow]); err != nil {
		return err
	}
	return checkEvents(nn.Events[core.KindHigh])
}

func checkImpact(im core.DelayImpact) error {
	for _, w := range im.VictimWindow.Windows() {
		if err := checkWindow(w); err != nil {
			return err
		}
	}
	return checkNums(im.NoisePeak, im.Delta)
}

func checkComb(c core.Combined) error {
	if err := checkNums(c.Peak, c.Width); err != nil {
		return err
	}
	return checkWindow(c.Window)
}

func checkEvents(events []core.Event) error {
	for _, ev := range events {
		if err := checkNums(ev.Peak, ev.Width); err != nil {
			return err
		}
		if err := checkWindow(ev.Window); err != nil {
			return err
		}
	}
	return nil
}

// checkWindow checks the ends jsonWin keeps as numbers: an empty window is
// null, and an end infinite in its own direction is a null endpoint.
func checkWindow(w interval.Window) error {
	if w.IsEmpty() {
		return nil
	}
	if !math.IsInf(w.Lo, -1) {
		if err := checkNums(w.Lo); err != nil {
			return err
		}
	}
	if !math.IsInf(w.Hi, 1) {
		return checkNums(w.Hi)
	}
	return nil
}

func checkNums(vs ...float64) error {
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return unsupported(v)
		}
	}
	return nil
}

// unsupported is the error encoding/json returns for a non-finite float.
func unsupported(v float64) error {
	return &json.UnsupportedValueError{Value: reflect.ValueOf(v), Str: strconv.FormatFloat(v, 'g', -1, 64)}
}

// encoder writes the export schema byte for byte as encoding/json's
// Encoder with SetIndent("", "  ") does, without reflection and without
// the Encoder's two whole-document buffers: values are appended to buf,
// which goes to the buffered writer after each element of a top-level
// array and is then reused.
type encoder struct {
	w     *bufio.Writer
	buf   []byte
	depth int
	more  bool // the innermost open container already has a member
	err   error
}

func newEncoder(w io.Writer) *encoder {
	return &encoder{w: bufio.NewWriterSize(w, 64<<10), buf: make([]byte, 0, 4<<10)}
}

func (e *encoder) flush() {
	if e.err == nil {
		_, e.err = e.w.Write(e.buf)
	}
	e.buf = e.buf[:0]
}

// finish ends the document with the newline Encoder.Encode appends.
func (e *encoder) finish() error {
	e.buf = append(e.buf, '\n')
	e.flush()
	if e.err != nil {
		return e.err
	}
	return e.w.Flush()
}

func (e *encoder) open(c byte) {
	e.buf = append(e.buf, c)
	e.depth++
	e.more = false
}

// close ends a container; an empty one stays on one line ({} or []).
func (e *encoder) close(c byte) {
	e.depth--
	if e.more {
		e.newline()
	}
	e.buf = append(e.buf, c)
	e.more = true
}

// sepIndent is a member separator, then a line break and indentation
// for the schema's deepest nesting (six levels) and then some.
const sepIndent = ",\n                "

func (e *encoder) newline() { e.buf = append(e.buf, sepIndent[1:2+2*e.depth]...) }

// elem starts the next member of the innermost container.
func (e *encoder) elem() {
	from := 1
	if e.more {
		from = 0
	}
	e.buf = append(e.buf, sepIndent[from:2+2*e.depth]...)
	e.more = true
}

// key starts an object member; keys are plain ASCII and need no escaping.
func (e *encoder) key(k string) {
	e.elem()
	e.buf = append(e.buf, '"')
	e.buf = append(e.buf, k...)
	e.buf = append(e.buf, '"', ':', ' ')
}

// list writes a top-level array of n elements, handing each to the writer
// once encoded. The Build converters leave an empty list nil, so it
// encodes as null.
func (e *encoder) list(key string, n int, elem func(i int)) {
	e.key(key)
	if n == 0 {
		e.null()
		return
	}
	e.open('[')
	for i := 0; i < n; i++ {
		e.elem()
		elem(i)
		e.flush()
	}
	e.close(']')
}

func (e *encoder) null() { e.buf = append(e.buf, "null"...) }

func (e *encoder) str(s string) { e.buf = appendString(e.buf, s) }

func (e *encoder) int(n int) { e.buf = strconv.AppendInt(e.buf, int64(n), 10) }

func (e *encoder) bool(b bool) { e.buf = strconv.AppendBool(e.buf, b) }

func (e *encoder) num(v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		// The pre-scan rejects these; failing here keeps a field it
		// missed from becoming invalid JSON.
		if e.err == nil {
			e.err = unsupported(v)
		}
		return
	}
	e.buf = appendFloat(e.buf, v)
}

func (e *encoder) optNum(p *float64) {
	if p == nil {
		e.null()
		return
	}
	e.num(*p)
}

// members writes an omitempty list of names.
func (e *encoder) members(ms []string) {
	if len(ms) == 0 {
		return
	}
	e.key("members")
	e.open('[')
	for _, m := range ms {
		e.elem()
		e.str(m)
	}
	e.close(']')
}

func (e *encoder) stats(s core.Stats) {
	e.open('{')
	e.key("Victims")
	e.int(s.Victims)
	e.key("AggressorPairs")
	e.int(s.AggressorPairs)
	e.key("Filtered")
	e.int(s.Filtered)
	e.key("Propagated")
	e.int(s.Propagated)
	e.key("Iterations")
	e.int(s.Iterations)
	e.key("Converged")
	e.bool(s.Converged)
	e.key("DegradedNets")
	e.int(s.DegradedNets)
	e.close('}')
}

func (e *encoder) window(w *WindowJSON) {
	if w == nil {
		e.null()
		return
	}
	e.open('{')
	e.key("lo")
	e.optNum(w.Lo)
	e.key("hi")
	e.optNum(w.Hi)
	e.close('}')
}

func (e *encoder) combined(c *CombinedJSON) {
	e.open('{')
	e.key("peakV")
	e.num(c.Peak)
	e.key("widthS")
	e.num(c.Width)
	e.key("atS")
	e.optNum(c.At)
	e.key("window")
	e.window(c.Window)
	e.members(c.Members)
	e.close('}')
}

// events writes an omitempty list of glitch events.
func (e *encoder) events(key string, evs []EventJSON) {
	if len(evs) == 0 {
		return
	}
	e.key(key)
	e.open('[')
	for i := range evs {
		ev := &evs[i]
		e.elem()
		e.open('{')
		e.key("source")
		e.str(ev.Source)
		e.key("peakV")
		e.num(ev.Peak)
		e.key("widthS")
		e.num(ev.Width)
		e.key("window")
		e.window(ev.Window)
		e.close('}')
	}
	e.close(']')
}

func (e *encoder) net(n *NetJSON) {
	e.open('{')
	e.key("net")
	e.str(n.Net)
	e.key("low")
	e.combined(&n.Low)
	e.key("high")
	e.combined(&n.High)
	e.events("lowEvents", n.LowEvents)
	e.events("highEvents", n.HighEvents)
	e.close('}')
}

func (e *encoder) violation(v *ViolationJSON) {
	e.open('{')
	e.key("net")
	e.str(v.Net)
	e.key("receiver")
	e.str(v.Receiver)
	e.key("state")
	e.str(v.State)
	e.key("peakV")
	e.num(v.Peak)
	e.key("limitV")
	e.num(v.Limit)
	e.key("slackV")
	e.num(v.Slack)
	e.key("atS")
	e.optNum(v.At)
	e.members(v.Members)
	e.close('}')
}

// degradations writes the omitempty degradation list.
func (e *encoder) degradations(diags []core.Diag) {
	if len(diags) == 0 {
		return
	}
	e.list("degradations", len(diags), func(i int) {
		d := jsonDiag(diags[i])
		e.open('{')
		e.key("net")
		e.str(d.Net)
		e.key("stage")
		e.str(d.Stage)
		e.key("error")
		e.str(d.Error)
		e.key("degraded")
		e.bool(d.Degraded)
		e.close('}')
	})
}

func (e *encoder) impact(im *DelayImpactJSON) {
	e.open('{')
	e.key("net")
	e.str(im.Net)
	e.key("edge")
	e.str(im.Edge)
	if len(im.VictimWindow) > 0 {
		e.key("victimWindow")
		e.open('[')
		for _, w := range im.VictimWindow {
			e.elem()
			e.window(w)
		}
		e.close(']')
	}
	e.key("noisePeakV")
	e.num(im.NoisePeak)
	e.key("deltaS")
	e.num(im.Delta)
	e.key("atS")
	e.optNum(im.At)
	e.members(im.Members)
	e.close('}')
}

// appendFloat formats v as encoding/json does, like ES6 number-to-string:
// 'f' form unless 0 < |v| < 1e-6 or |v| >= 1e21, and an exponent without
// a leading zero (1e-07 becomes 1e-7).
func appendFloat(b []byte, v float64) []byte {
	format := byte('f')
	if abs := math.Abs(v); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, v, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

const hexDigits = "0123456789abcdef"

// appendString quotes s as encoding/json does with HTML escaping on:
// <, > and & become \u003c-style escapes, control bytes are escaped, each
// byte of invalid UTF-8 becomes \ufffd, and U+2028/U+2029 are escaped.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
			i++
			start = i
			continue
		}
		if r == '\u2028' || r == '\u2029' {
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
