package lint

// This file defines the interprocedural fact model: per-function taint
// summaries computed bottom-up over the package DAG and serialized through
// the unitchecker facts path (Config.PackageVetx in, Config.VetxOutput
// out), so `go vet -vettool=g5lint` carries cross-package dataflow exactly
// the way x/tools analyzers carry facts — one JSON document per package,
// cached by the go command alongside export data.
//
// Slot numbering. Every summary indexes function operands by "slot":
// slot 0 is the receiver (unused for plain functions), slot i+1 is
// parameter i. A call site maps its receiver expression to slot 0 and its
// argument expressions to slots 1..n, so method and function summaries
// share one shape.
//
// Taint classes are short strings (see interproc.go): "maporder",
// "fporder", "wallclock", "rand", "env", "ptrfmt", plus the internal
// pseudo-classes "param:N" / "rloop:N" that never leave the summarizer.

import (
	"encoding/json"
	"fmt"
	"sort"
)

// FuncSummary is the interprocedural abstract of one function: how taint
// moves through it and which determinism-critical sinks its parameters
// reach. The zero value is the sound default for an unknown function
// ("propagates nothing, sinks nothing") — callers that need conservatism
// for bodiless callees (interface methods, func values) apply it at the
// call site instead.
type FuncSummary struct {
	// Prop[slot] reports that taint on the operand in slot flows into at
	// least one result of the call.
	Prop []bool `json:",omitempty"`
	// Sources lists taint classes the results carry regardless of the
	// arguments (the function manufactures the taint, e.g. wraps
	// time.Now or ranges a map into its return value).
	Sources []string `json:",omitempty"`
	// Sinks[slot] lists the sink kinds ("stat", "trace", "ckpt",
	// "report") the operand in slot reaches inside the callee,
	// transitively.
	Sinks map[int][]string `json:",omitempty"`
	// Taints[slot] lists classes the callee writes into the object the
	// operand in slot refers to (receiver/pointer stores).
	Taints map[int][]string `json:",omitempty"`
	// Flows lists [src, dst] slot pairs: taint on operand src is stored
	// into the object operand dst refers to (e.g. a constructor storing
	// its System argument into the returned object's field).
	Flows [][2]int `json:",omitempty"`
	// FloatAcc[slot] reports that the operand in slot is accumulated
	// into a float (x += v with float x) inside the callee: calling it
	// with a map-order-tainted argument is order-sensitive.
	FloatAcc []bool `json:",omitempty"`
	// RangeSum[slot] reports that the callee iterates the collection in
	// slot in its given order while accumulating floats: passing a
	// map-ordered collection reproduces the Fig. 15 bug class.
	RangeSum []bool `json:",omitempty"`
}

// PkgSummary is the serialized fact set of one package.
type PkgSummary struct {
	// Path is the package import path the summary describes.
	Path string
	// Funcs maps types.Func.FullName() to its summary. Only functions
	// with a non-zero summary are present.
	Funcs map[string]*FuncSummary `json:",omitempty"`
	// Globals maps a package-level variable's full name to the taint
	// classes its value carries after package analysis.
	Globals map[string][]string `json:",omitempty"`
}

// empty reports whether the summary carries no information (and can be
// dropped from the package table).
func (s *FuncSummary) empty() bool {
	return s == nil || (!anyTrue(s.Prop) && len(s.Sources) == 0 && len(s.Sinks) == 0 &&
		len(s.Taints) == 0 && len(s.Flows) == 0 && !anyTrue(s.FloatAcc) && !anyTrue(s.RangeSum))
}

func anyTrue(bs []bool) bool {
	for _, b := range bs {
		if b {
			return true
		}
	}
	return false
}

// normalize sorts every unordered field so two equivalent summaries
// serialize identically — the fixpoint loop and the facts cache both
// compare serialized forms.
func (s *FuncSummary) normalize() {
	sort.Strings(s.Sources)
	s.Sources = dedup(s.Sources)
	for k, v := range s.Sinks {
		sort.Strings(v)
		s.Sinks[k] = dedup(v)
	}
	for k, v := range s.Taints {
		sort.Strings(v)
		s.Taints[k] = dedup(v)
	}
	sort.Slice(s.Flows, func(i, j int) bool {
		if s.Flows[i][0] != s.Flows[j][0] {
			return s.Flows[i][0] < s.Flows[j][0]
		}
		return s.Flows[i][1] < s.Flows[j][1]
	})
	out := s.Flows[:0]
	for i, f := range s.Flows {
		if i == 0 || f != s.Flows[i-1] {
			out = append(out, f)
		}
	}
	s.Flows = out
}

func dedup(ss []string) []string {
	out := ss[:0]
	for i, s := range ss {
		if i == 0 || s != ss[i-1] {
			out = append(out, s)
		}
	}
	return out
}

// EncodeSummary renders a package summary as deterministic JSON (the facts
// wire format written to Config.VetxOutput).
func EncodeSummary(ps *PkgSummary) ([]byte, error) {
	for _, fs := range ps.Funcs {
		fs.normalize()
	}
	for k, v := range ps.Globals {
		sort.Strings(v)
		ps.Globals[k] = dedup(v)
	}
	return json.MarshalIndent(ps, "", "\t")
}

// DecodeSummary parses a facts file written by EncodeSummary. Empty input
// (the facts file of a package outside the module, or one written by an
// older tool) decodes to nil: no cross-package information.
func DecodeSummary(data []byte) (*PkgSummary, error) {
	if len(data) == 0 {
		return nil, nil
	}
	ps := new(PkgSummary)
	if err := json.Unmarshal(data, ps); err != nil {
		return nil, fmt.Errorf("decoding package summary: %v", err)
	}
	return ps, nil
}
