package interval

import (
	"encoding/json"
	"errors"
	"math"
	"strconv"
)

// JSON forms. Windows cross process boundaries (the distributed analysis
// protocol ships noise records between snad processes), and their bounds
// are routinely infinite: the empty window is [+Inf, -Inf], an unknown
// switching window is [-Inf, +Inf]. encoding/json refuses non-finite
// float64 values, so windows encode their bounds through JSONFloat.

// JSONFloat is a float64 whose JSON form also carries the values a JSON
// number cannot: NaN, +Inf and -Inf travel as the strings "NaN", "+Inf"
// and "-Inf". Finite values are written in the shortest form that parses
// back to the same float64, so every value round-trips bit-identically.
type JSONFloat float64

// MarshalJSON implements json.Marshaler.
func (f JSONFloat) MarshalJSON() ([]byte, error) {
	v := float64(f)
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return strconv.AppendQuote(nil, strconv.FormatFloat(v, 'g', -1, 64)), nil
	}
	return strconv.AppendFloat(nil, v, 'g', -1, 64), nil
}

// UnmarshalJSON implements json.Unmarshaler.
func (f *JSONFloat) UnmarshalJSON(b []byte) error {
	s := string(b)
	if len(s) >= 2 && s[0] == '"' && s[len(s)-1] == '"' {
		s = s[1 : len(s)-1]
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return err
	}
	*f = JSONFloat(v)
	return nil
}

// MarshalJSON encodes the window as the pair [lo, hi].
func (w Window) MarshalJSON() ([]byte, error) {
	return json.Marshal([2]JSONFloat{JSONFloat(w.Lo), JSONFloat(w.Hi)})
}

// UnmarshalJSON decodes the [lo, hi] pair MarshalJSON writes. Like New, it
// refuses NaN bounds; unlike New, it keeps any other pair bit-exact.
func (w *Window) UnmarshalJSON(b []byte) error {
	var lh [2]JSONFloat
	if err := json.Unmarshal(b, &lh); err != nil {
		return err
	}
	if math.IsNaN(float64(lh[0])) || math.IsNaN(float64(lh[1])) {
		return errors.New("interval: NaN window bound")
	}
	*w = Window{Lo: float64(lh[0]), Hi: float64(lh[1])}
	return nil
}

// MarshalJSON encodes the set as its list of disjoint windows.
func (s Set) MarshalJSON() ([]byte, error) {
	return json.Marshal(s.ws)
}

// UnmarshalJSON decodes a window list, normalizing it as NewSet does (a
// list MarshalJSON wrote is already normal and comes back unchanged).
func (s *Set) UnmarshalJSON(b []byte) error {
	var ws []Window
	if err := json.Unmarshal(b, &ws); err != nil {
		return err
	}
	*s = NewSet(ws...)
	return nil
}
