package shard

import (
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/interval"
)

// bitsEqual compares two values field by field, floats by their bits
// (so NaN equals the same NaN and -0 differs from 0), errors by message,
// and slices by their elements (nil and empty alike).
func bitsEqual(a, b reflect.Value) bool {
	if a.Kind() != b.Kind() {
		return false
	}
	switch a.Kind() {
	case reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return bitsEqual(a.Elem(), b.Elem())
	case reflect.Interface:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return a.Interface().(error).Error() == b.Interface().(error).Error()
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !bitsEqual(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	case reflect.Slice, reflect.Array:
		if a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !bitsEqual(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Map:
		if a.Len() != b.Len() {
			return false
		}
		for _, k := range a.MapKeys() {
			if bv := b.MapIndex(k); !bv.IsValid() || !bitsEqual(a.MapIndex(k), bv) {
				return false
			}
		}
		return true
	case reflect.String:
		return a.String() == b.String()
	case reflect.Bool:
		return a.Bool() == b.Bool()
	case reflect.Int:
		return a.Int() == b.Int()
	}
	panic("bitsEqual: unhandled kind " + a.Kind().String())
}

// TestProtocolJSONRoundTrip pins what remote workers rely on: every
// protocol message carrying core types survives encoding/json with its
// floats bit-identical, including the values plain JSON numbers cannot
// hold — a NaN alignment instant, infinite and empty windows — and
// diagnostics keep their error (or its absence).
func TestProtocolJSONRoundTrip(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	quiet := core.Combined{At: nan, Window: interval.Empty()}
	event := core.Event{Peak: 0.11, Width: 3.3e-11, Window: interval.Window{Lo: 1e-10, Hi: inf}, Source: "agg"}
	loud := core.Combined{
		Peak: 0.25, Width: 4e-11, Window: interval.Window{Lo: -inf, Hi: 3.000000000000001e-10}, At: 1e-10,
		Members: []string{"agg", "prop:x"}, MemberEvents: []core.Event{event, {Peak: math.Copysign(0, -1), Window: interval.Infinite()}},
	}
	msgs := []any{
		&EvalResponse{Updates: []core.WaveUpdate{{Net: "n1", Comb: [2]core.Combined{quiet, loud}}}},
		&InitRequest{Route: Route{Token: "t", Shard: 2}, Owned: []string{"n1"}, Padding: []PadEntry{{Net: "n1", Pad: 1e-12}},
			Restore: []core.WaveUpdate{{Net: "n0", Comb: [2]core.Combined{loud, quiet}}}},
		&DelayResponse{Impacts: []core.DelayImpact{
			{Net: "n1", Rise: true, VictimWindow: interval.NewSet(), At: nan},
			{Net: "n2", VictimWindow: interval.NewSet(interval.New(0, 1e-10), interval.New(2e-10, inf)),
				NoisePeak: 0.2, Delta: 7e-12, At: 5e-11, Members: []string{"agg"}},
		}},
		&core.ShardCollect{
			Nets: map[string]*core.NetNoise{"n1": {Net: "n1",
				Events: [2][]core.Event{{event}, nil}, Comb: [2]core.Combined{loud, quiet}}},
			Violations: []core.Violation{{Net: "n1", Receiver: "u1.A", Kind: core.KindHigh, Peak: 0.25, Slack: -0.01, At: nan}},
			Slacks:     []core.ReceiverSlack{{Net: "n1", Receiver: "u1.A", Peak: 0.25, Limit: 0.24, Slack: -0.01}},
			Diags: []core.Diag{
				{Net: "n1", Stage: core.StageEvaluate, Degraded: true},
				{Net: "n2", Stage: core.StageShard, Err: errors.New("shard 1 lost"), Degraded: true},
			},
			Pairs: 3, Filtered: 1, Propagated: 2,
		},
	}
	for _, msg := range msgs {
		data, err := json.Marshal(msg)
		if err != nil {
			t.Fatalf("%T: marshal: %v", msg, err)
		}
		back := reflect.New(reflect.TypeOf(msg).Elem())
		if err := json.Unmarshal(data, back.Interface()); err != nil {
			t.Fatalf("%T: unmarshal %s: %v", msg, data, err)
		}
		if !bitsEqual(reflect.ValueOf(msg), back) {
			t.Errorf("%T did not round-trip bit-identically:\n%s\n%#v", msg, data, back.Interface())
		}
	}
	// The empty window keeps its canonical bounds; a NaN bound is refused.
	var w interval.Window
	if err := json.Unmarshal([]byte(`["+Inf","-Inf"]`), &w); err != nil || !w.IsEmpty() || w != interval.Empty() {
		t.Fatalf("empty window decoded as %v (%v)", w, err)
	}
	if err := json.Unmarshal([]byte(`["NaN",1]`), &w); err == nil {
		t.Fatal("a NaN window bound decoded without error")
	}
}
