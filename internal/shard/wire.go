// Package shard implements fault-tolerant distributed noise analysis: a
// deterministic partitioner over the coupling/fanin affinity graph, a
// runner that drives one partition's core.ShardEngine behind a small op
// protocol, worker transports (in-process and, via internal/client, remote
// snad daemons), and a coordinator that drives the global noise/delay
// fixpoint across workers, exchanging boundary combinations wave by wave.
//
// Nothing here re-implements the analysis: the outer padding loop is
// core.RoundLoop (the one AnalyzeIterative runs), a shard engine runs the
// serial engine's own wave and dirty-set code, and the protocol carries
// the core result types themselves.
//
// The contract: a healthy distributed run is byte-identical (at the report
// JSON level) to the single-process core.AnalyzeIterative; a run that loses
// workers reassigns their shards to survivors and, when a shard is
// irrecoverable, substitutes the conservative full-rail bound for its nets
// with Diag{Stage: "shard"} records — a sound report, never a hang or a
// hard failure.
package shard

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/core"
)

// Protocol operations, in the order a run issues them. They double as the
// op names workload.WorkerFaults rules select on.
const (
	OpInit    = "init"
	OpEval    = "eval"
	OpRound   = "round"
	OpDelay   = "delay"
	OpCollect = "collect"
	OpClose   = "close"
	OpPing    = "ping"
)

// ErrEngineBroken is returned by a runner whose engine was left in an
// undefined state (a padding update died halfway). The coordinator
// recovers by re-initializing the shard — on the same worker or another —
// from its authoritative state; the worker itself is not suspect.
var ErrEngineBroken = errors.New("shard: engine broken, re-init required")

// FatalError wraps a deterministic analysis failure (a fail-fast
// evaluation error): retrying it anywhere reproduces it, so the
// coordinator aborts the run with it instead of burning the retry budget.
type FatalError struct{ Err error }

func (e *FatalError) Error() string { return e.Err.Error() }
func (e *FatalError) Unwrap() error { return e.Err }

// Requests and responses carry the core types directly: an in-process
// worker passes them through untouched, and over HTTP they encode
// themselves — the NaN alignment instants, infinite window bounds, and
// diagnostic errors that plain JSON cannot carry have their own JSON
// methods (core/json.go, interval/json.go), and every float round-trips
// bit-identically. Committed combinations are therefore shared, not
// copied, between engines and the coordinator; that is safe because a
// Combined's Members and MemberEvents are freshly built by each
// combination and never written after commit.

// PadEntry is one net's absolute window padding, seconds.
type PadEntry struct {
	Net string  `json:"net"`
	Pad float64 `json:"pad"`
}

// OptionsSpec is the serializable subset of analysis options a remote
// worker needs to rebuild the coordinator's engine configuration. It
// mirrors the snad session options.
type OptionsSpec struct {
	Mode             string  `json:"mode,omitempty"`
	Threshold        float64 `json:"threshold,omitempty"`
	NoPropagation    bool    `json:"no_propagation,omitempty"`
	LogicCorrelation bool    `json:"logic_correlation,omitempty"`
	Workers          int     `json:"workers,omitempty"`
	FailFast         bool    `json:"fail_fast,omitempty"`
	MaxIter          int     `json:"max_iter,omitempty"`
}

// DesignSpec ships the design sources to a remote worker so it can bind
// and analyze the same inputs the coordinator holds. In-process workers
// ignore it (they carry their own BuildDesign source).
type DesignSpec struct {
	Netlist string      `json:"netlist,omitempty"`
	Verilog string      `json:"verilog,omitempty"`
	SPEF    string      `json:"spef,omitempty"`
	Liberty string      `json:"liberty,omitempty"`
	Timing  string      `json:"timing,omitempty"`
	Options OptionsSpec `json:"options"`
}

// InitRequest builds (or rebuilds) one shard's engine on a worker: the
// owned nets, the cumulative padding to seed timing with, and the
// authoritative combinations to restore (empty on the first init, the
// coordinator's committed state on a mid-run rebuild).
type InitRequest struct {
	Route
	Owned   []string          `json:"owned"`
	Padding []PadEntry        `json:"padding,omitempty"`
	Restore []core.WaveUpdate `json:"restore,omitempty"`
	Design  *DesignSpec       `json:"design,omitempty"`
}

// EvalRequest evaluates the owned slice of one wave. Seq increases with
// every distinct wave dispatch; a runner that sees a Seq twice returns the
// accumulated response instead of re-evaluating, which is what makes a
// retried dispatch after a lost response exact. Boundary carries the fanin
// combinations committed on other shards since this shard's last eval.
type EvalRequest struct {
	Route
	Seq      int               `json:"seq"`
	Wave     int               `json:"wave"`
	Boundary []core.WaveUpdate `json:"boundary,omitempty"`
}

// EvalResponse lists the nets whose committed combination changed.
type EvalResponse struct {
	Updates []core.WaveUpdate `json:"updates,omitempty"`
}

// RoundRequest applies one round of padding growth (absolute values).
type RoundRequest struct {
	Route
	Changed []PadEntry `json:"changed"`
}

// DelayRequest runs the delta-delay pass over the shard's owned nets.
type DelayRequest struct {
	Route
}

// DelayResponse returns the shard's impacts in evaluation order.
type DelayResponse struct {
	Impacts []core.DelayImpact `json:"impacts,omitempty"`
}

// CollectRequest fetches the shard's slice of the final result; the
// response is a core.ShardCollect.
type CollectRequest struct {
	Route
}

// CloseRequest drops one shard's engine (or, with Shard -1, every engine
// of the token) on a worker. Best-effort cleanup.
type CloseRequest struct {
	Route
}

// Route addresses a request to one shard of one run; every request
// embeds it (its fields encode inline as "token" and "shard").
type Route struct {
	Token string `json:"token"`
	Shard int    `json:"shard"`
}

func (r *Route) route() *Route { return r }

// routed is implemented by every request through its Route, so the
// coordinator stamps the run token and shard id uniformly and workers
// find the shard a request targets.
type routed interface{ route() *Route }

func padEntries(padding map[string]float64) []PadEntry {
	if len(padding) == 0 {
		return nil
	}
	nets := make([]string, 0, len(padding))
	for net := range padding {
		nets = append(nets, net)
	}
	// Sorted so the wire bytes (and worker-side application order) are
	// deterministic.
	sort.Strings(nets)
	out := make([]PadEntry, len(nets))
	for i, net := range nets {
		out[i] = PadEntry{Net: net, Pad: padding[net]}
	}
	return out
}

func padMap(entries []PadEntry) map[string]float64 {
	out := make(map[string]float64, len(entries))
	for _, e := range entries {
		out[e.Net] = e.Pad
	}
	return out
}

// badRequestError marks a malformed protocol request (unknown op, missing
// engine, out-of-range wave) — a coordinator bug or a stale worker, not a
// transient fault.
func badRequestError(format string, args ...any) error {
	return &FatalError{Err: fmt.Errorf(format, args...)}
}
