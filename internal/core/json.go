package core

import (
	"encoding/json"
	"errors"

	"repro/internal/interval"
)

// JSON forms of the records the distributed analysis protocol ships
// between processes. Field names are the Go names; the methods below only
// cover what encoding/json cannot carry on its own: an alignment instant
// At that is NaN when nothing aligns (encoded through interval.JSONFloat),
// and a Diag's error (encoded as its message, null for a nil error). Event
// windows and victim window sets encode themselves (interval.Window and
// interval.Set). Every float round-trips bit-identically.

// MarshalJSON implements json.Marshaler.
func (c Combined) MarshalJSON() ([]byte, error) {
	type plain Combined
	return json.Marshal(struct {
		plain
		At interval.JSONFloat
	}{plain(c), interval.JSONFloat(c.At)})
}

// UnmarshalJSON implements json.Unmarshaler.
func (c *Combined) UnmarshalJSON(b []byte) error {
	type plain Combined
	aux := struct {
		*plain
		At interval.JSONFloat
	}{plain: (*plain)(c)}
	if err := json.Unmarshal(b, &aux); err != nil {
		return err
	}
	c.At = float64(aux.At)
	return nil
}

// MarshalJSON implements json.Marshaler.
func (v Violation) MarshalJSON() ([]byte, error) {
	type plain Violation
	return json.Marshal(struct {
		plain
		At interval.JSONFloat
	}{plain(v), interval.JSONFloat(v.At)})
}

// UnmarshalJSON implements json.Unmarshaler.
func (v *Violation) UnmarshalJSON(b []byte) error {
	type plain Violation
	aux := struct {
		*plain
		At interval.JSONFloat
	}{plain: (*plain)(v)}
	if err := json.Unmarshal(b, &aux); err != nil {
		return err
	}
	v.At = float64(aux.At)
	return nil
}

// MarshalJSON implements json.Marshaler.
func (im DelayImpact) MarshalJSON() ([]byte, error) {
	type plain DelayImpact
	return json.Marshal(struct {
		plain
		At interval.JSONFloat
	}{plain(im), interval.JSONFloat(im.At)})
}

// UnmarshalJSON implements json.Unmarshaler.
func (im *DelayImpact) UnmarshalJSON(b []byte) error {
	type plain DelayImpact
	aux := struct {
		*plain
		At interval.JSONFloat
	}{plain: (*plain)(im)}
	if err := json.Unmarshal(b, &aux); err != nil {
		return err
	}
	im.At = float64(aux.At)
	return nil
}

// MarshalJSON implements json.Marshaler; the error crosses as its message.
func (d Diag) MarshalJSON() ([]byte, error) {
	type plain Diag
	var msg *string
	if d.Err != nil {
		s := d.Err.Error()
		msg = &s
	}
	return json.Marshal(struct {
		plain
		Err *string
	}{plain(d), msg})
}

// UnmarshalJSON implements json.Unmarshaler.
func (d *Diag) UnmarshalJSON(b []byte) error {
	type plain Diag
	aux := struct {
		*plain
		Err *string
	}{plain: (*plain)(d)}
	if err := json.Unmarshal(b, &aux); err != nil {
		return err
	}
	d.Err = nil
	if aux.Err != nil {
		d.Err = errors.New(*aux.Err)
	}
	return nil
}
