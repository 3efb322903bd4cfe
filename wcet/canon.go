package wcet

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"slices"
	"strconv"

	"repro/internal/platform"
)

// Key content-addresses the request for a result cache: two requests share
// a key iff an Analyzer is guaranteed to produce the same Result for both.
// It is the one request key of the repository — wcetd keys /v1, /v2 and
// batch results on it — so a field added to Request must be rendered here;
// a reflection test fails for any field that is not.
//
// Equivalent spellings collapse:
//   - contender, template and contender-PTAC order is canonicalized (every
//     model is permutation-invariant in the contender set);
//   - model names, in Models and RTA.Model, resolve through reg, so alias
//     spellings share a key (the Models order is kept: it is the order of
//     Result.Estimates);
//   - an unnamed RTA task keys as "analysed", the name RTA gives it.
//
// Left out on purpose:
//   - RTA.Task.WCET, which the selected model's bound overwrites;
//   - the Analyzer's own configuration (its fixed table, default scenario
//     and default models) — a caller that shares keys across analyzers or
//     tables pins TableRef to a table's immutable ID, as wcetd does.
//
// AnalysedPTAC nil and empty stay distinct (the ideal model rejects nil),
// and co-resident RTA task order is kept (priority ties break by
// declaration order). Key fails only on a model name reg does not know.
func (r Request) Key(reg *Registry) (string, error) {
	b := make([]byte, 0, 256)
	b = strconv.AppendQuote(append(b, "tab="...), r.TableRef)
	b = strconv.AppendInt(append(b, ";m="...), int64(len(r.Models)), 10)
	for _, name := range r.Models {
		canon, err := reg.Canonical(name)
		if err != nil {
			return "", err
		}
		b = strconv.AppendQuote(append(b, ','), canon)
	}
	b = appendInput(b, r.input(nil, r.Scenario))
	if r.RTA != nil {
		model, err := reg.Canonical(r.RTA.Model)
		if err != nil {
			return "", err
		}
		b = strconv.AppendQuote(append(b, ";rta="...), model)
		task := r.RTA.Task
		if task.Name == "" {
			task.Name = "analysed"
		}
		task.WCET = 0
		b = appendRTATask(append(b, ";t="...), task)
		b = strconv.AppendInt(append(b, ";o="...), int64(len(r.RTA.Others)), 10)
		for _, o := range r.RTA.Others {
			b = appendRTATask(append(b, ','), o)
		}
	}
	return hashKey(b), nil
}

// canonKey content-addresses one (model, input) evaluation for the
// Analyzer's estimate cache: two evaluations share a key iff the model is
// guaranteed to produce the same estimate for both. Unlike Request.Key,
// the platform characterisation is part of the key — experiment sweeps
// evaluate the same readings on perturbed tables.
func canonKey(model string, in Input) string {
	b := make([]byte, 0, 384)
	b = strconv.AppendQuote(append(b, "m="...), model)
	b = append(b, ";lat="...)
	if in.Latencies != nil {
		b = append(b, in.Latencies.Canonical()...)
	}
	return hashKey(appendInput(b, in))
}

// appendInput renders every Input field but Latencies, which Request.Key
// addresses by TableRef and canonKey by content.
func appendInput(b []byte, in Input) []byte {
	b = appendScenario(append(b, ";sc="...), in.Scenario)
	b = strconv.AppendInt(append(b, ";mode="...), int64(in.StallMode), 10)
	b = strconv.AppendBool(append(b, ";drop="...), in.DropContenderInfo)
	b = appendReadings(append(b, ";a="...), in.Analysed)
	b = appendSet(append(b, ";b="...), in.Contenders, appendReadings)
	b = appendSet(append(b, ";tp="...), in.Templates, appendTemplate)
	b = append(b, ";pa="...)
	if in.AnalysedPTAC == nil {
		b = append(b, '-')
	} else {
		b = appendPTAC(b, in.AnalysedPTAC)
	}
	return appendSet(append(b, ";pb="...), in.ContenderPTACs, appendPTAC)
}

// appendSet renders xs as an unordered collection: the count, then the
// element renderings in byte order, so every permutation of xs renders
// alike. Element renderings must be self-delimiting, which makes the
// sorted concatenation decode back to exactly one multiset.
func appendSet[T any](b []byte, xs []T, render func([]byte, T) []byte) []byte {
	b = append(strconv.AppendInt(b, int64(len(xs)), 10), ':')
	if len(xs) < 2 {
		for _, x := range xs {
			b = render(b, x)
		}
		return b
	}
	start := len(b)
	ends := make([]int, len(xs))
	for i, x := range xs {
		b = render(b, x)
		ends[i] = len(b)
	}
	segs := make([][]byte, len(xs))
	from := start
	for i, end := range ends {
		segs[i] = b[from:end]
		from = end
	}
	slices.SortFunc(segs, bytes.Compare)
	// Join copies, so overwriting b's tail cannot clobber a segment.
	return append(b[:start], bytes.Join(segs, nil)...)
}

// appendScenario renders the tailoring by content, not by label — custom
// scenarios may share a Name (or have none) yet differ in deployment or
// counter-interpretation flags, and those differences change the bounds.
func appendScenario(b []byte, sc Scenario) []byte {
	b = strconv.AppendQuote(b, sc.Name)
	b = appendPlacements(append(b, "/code="...), sc.Deploy.Code)
	b = appendPlacements(append(b, "/data="...), sc.Deploy.Data)
	b = strconv.AppendBool(append(b, "/cce="...), sc.CodeCountExact)
	return strconv.AppendBool(append(b, "/cdf="...), sc.CacheableDataFloor)
}

// appendPlacements keeps placement order: deployments are configuration
// as written, and nothing promises the models read them as sets.
func appendPlacements(b []byte, ps []platform.Placement) []byte {
	b = strconv.AppendInt(b, int64(len(ps)), 10)
	for _, p := range ps {
		b = strconv.AppendInt(append(b, ','), int64(p.Target), 10)
		if p.Cacheable {
			b = append(b, '$')
		}
	}
	return b
}

func appendReadings(b []byte, r Readings) []byte {
	b = strconv.AppendInt(append(b, 'c'), r.CCNT, 10)
	b = strconv.AppendInt(append(b, ",ps"...), r.PS, 10)
	b = strconv.AppendInt(append(b, ",ds"...), r.DS, 10)
	b = strconv.AppendInt(append(b, ",pm"...), r.PM, 10)
	b = strconv.AppendInt(append(b, ",mc"...), r.DMC, 10)
	b = strconv.AppendInt(append(b, ",md"...), r.DMD, 10)
	return append(b, ';')
}

// appendPTAC renders a PTAC in the fixed (target, op) grid order, so map
// iteration order never shows. The entry count leads, so an entry outside
// the grid — which Input.Validate rejects before any model runs — still
// changes the rendering.
func appendPTAC(b []byte, p PTAC) []byte {
	b = strconv.AppendInt(b, int64(len(p)), 10)
	for t := platform.Target(0); t < platform.NumTargets; t++ {
		for o := platform.Op(0); o < platform.NumOps; o++ {
			if n, ok := p[AccessPath{Target: t, Op: o}]; ok {
				b = append(b, ',')
				b = strconv.AppendInt(b, int64(t), 10)
				b = append(b, '.')
				b = strconv.AppendInt(b, int64(o), 10)
				b = append(b, '=')
				b = strconv.AppendInt(b, n, 10)
			}
		}
	}
	return append(b, ';')
}

func appendTemplate(b []byte, tp Template) []byte {
	return appendPTAC(strconv.AppendQuote(b, tp.Name), tp.MaxRequests)
}

func appendRTATask(b []byte, t RTATask) []byte {
	b = strconv.AppendQuote(b, t.Name)
	b = strconv.AppendInt(append(b, ",w"...), t.WCET, 10)
	b = strconv.AppendInt(append(b, ",p"...), t.Period, 10)
	b = strconv.AppendInt(append(b, ",d"...), t.Deadline, 10)
	return strconv.AppendInt(append(b, ",pr"...), int64(t.Priority), 10)
}

// hashKey folds a rendering into the fixed-size key: SHA-256, hex.
func hashKey(b []byte) string {
	sum := sha256.Sum256(b)
	var hx [2 * sha256.Size]byte
	hex.Encode(hx[:], sum[:])
	return string(hx[:])
}
