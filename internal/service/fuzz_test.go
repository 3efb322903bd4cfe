package service

import (
	"bytes"
	"reflect"
	"testing"

	"repro/wcet"
)

// FuzzV2Prepare checks the /v2/analyze front door is total: arbitrary
// wire bytes either fail strict decoding, fail Prepare with an error, or
// prepare into an SDK request — never a panic — and Prepare is
// deterministic (two calls on the same decoded request agree). Every
// prepared request must also key: Key succeeds, is deterministic, and is
// unchanged when the contenders, templates or contender PTACs arrive in
// another order — the permutation invariance the result cache relies on.
func FuzzV2Prepare(f *testing.F) {
	// Seeds: the golden /v1 conversations (every v1 body is a valid v2
	// body) plus the v2-only shapes — model selection, templates, exact
	// PTACs, table refs — and near-misses for each.
	for _, g := range goldenRequests {
		f.Add(g.body)
	}
	f.Add(`{
  "scenario": 1,
  "models": ["ftc", "ilpPtac"],
  "analysed":   {"CCNT": 157800, "PS": 18000, "DS": 27000, "PM": 3000},
  "contenders": [{"CCNT": 500000, "PS": 50000, "DS": 60000, "PM": 8000}]
}`)
	f.Add(`{
  "scenario": 2,
  "models": ["templatePtac"],
  "analysed":   {"CCNT": 301000, "PS": 40000, "DS": 51000, "PM": 6100, "DMC": 1200, "DMD": 400},
  "templates": [{"name": "brakeCtl", "maxRequests": {"pf0/co": 120, "lmu/da": 40}}]
}`)
	f.Add(`{
  "scenario": 1,
  "models": ["ideal"],
  "analysed":   {"CCNT": 157800, "PS": 18000, "DS": 27000, "PM": 3000},
  "analysedPtac": {"pf0/co": 300, "dfl/da": 25},
  "contenderPtacs": [{"pf1/co": 500}]
}`)
	f.Add(`{"scenario": 1, "table": "tc27x/default", "analysed": {"CCNT": 1000, "PS": 100, "DS": 100}}`)
	f.Add(`{"scenario": 7, "analysed": {"CCNT": 1000}}`)
	f.Add(`{"scenario": 1, "stallMode": "banana"}`)
	f.Add(`{"scenario": 1, "models": [""]}`)
	f.Add(`{"scenario": 1, "models": ["ftc", "fTC"]}`)
	f.Add(`{"scenario": 1, "analysedPtac": {"pf9/co": -1}}`)
	f.Add(`{"scenario": 1, "unknownField": 1}`)
	f.Add(`{"scenario": 1} {"scenario": 2}`)
	f.Add(`[]`)
	f.Add(`{
  "scenario": 2,
  "models": ["ilpPtac", "templatePtac", "ideal"],
  "analysed":   {"CCNT": 301000, "PS": 40000, "DS": 51000, "PM": 6100, "DMC": 1200, "DMD": 400},
  "contenders": [{"CCNT": 500000, "PS": 50000, "DS": 60000, "PM": 8000}, {"CCNT": 220000, "PS": 21000, "DS": 16000, "PM": 2500}],
  "templates": [{"name": "a", "maxRequests": {"pf0/co": 120}}, {"name": "b", "maxRequests": {"lmu/da": 40}}],
  "analysedPtac": {},
  "contenderPtacs": [{"pf1/co": 500}, {"lmu/da": 70, "pf0/da": 3}],
  "rta": {"model": "ILP-PTAC", "task": {"periodCycles": 2000000, "priority": 2}}
}`)

	reg := wcet.DefaultRegistry()
	f.Fuzz(func(t *testing.T, in string) {
		var req V2Request
		if err := decodeStrict(bytes.NewReader([]byte(in)), &req); err != nil {
			return
		}
		first, err := req.Prepare(reg)
		if err != nil {
			return
		}
		second, err := req.Prepare(reg)
		if err != nil {
			t.Fatalf("Prepare succeeded then failed on the same request: %v", err)
		}
		if !reflect.DeepEqual(first, second) {
			t.Fatalf("Prepare is nondeterministic:\n first: %+v\nsecond: %+v", first, second)
		}

		key, err := first.Key(reg)
		if err != nil {
			t.Fatalf("Prepare accepted a request Key rejects: %v", err)
		}
		if again, err := second.Key(reg); err != nil || again != key {
			t.Fatalf("Key is nondeterministic: %s then %s (%v)", key, again, err)
		}
		perm := req
		perm.Contenders = reversed(req.Contenders)
		perm.Templates = reversed(req.Templates)
		perm.ContenderPTACs = reversed(req.ContenderPTACs)
		permuted, err := perm.Prepare(reg)
		if err != nil {
			t.Fatalf("Prepare rejected a permutation of a request it accepted: %v", err)
		}
		if got, err := permuted.Key(reg); err != nil || got != key {
			t.Fatalf("permuting contenders, templates and contender PTACs changed the key: %s then %s (%v)", key, got, err)
		}
	})
}

// reversed returns a reversed copy of xs.
func reversed[T any](xs []T) []T {
	if xs == nil {
		return nil
	}
	out := make([]T, len(xs))
	for i, x := range xs {
		out[len(xs)-1-i] = x
	}
	return out
}
