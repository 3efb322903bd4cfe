package service

import (
	"fmt"
	"io"

	"repro/internal/dsu"
	"repro/wcet"
)

// V2Request is the wire format of POST /v2/analyze: the generic,
// registry-driven successor of the v1 request. Callers name any subset of
// registered contention models and get exactly those estimates back, in
// request order; the input side additionally admits contender templates
// and exact PTACs so every registered model is reachable over the wire.
type V2Request struct {
	Scenario int `json:"scenario"`
	// Table selects the latency-table version to analyse under — a named
	// ref ("tc27x/default") or an immutable table ID from the daemon's
	// store; empty selects the serving default. Only the daemon honours
	// it (the CLI has no table store and rejects a selection).
	Table string `json:"table,omitempty"`
	// Models selects registered models by canonical name or alias; empty
	// selects the v1 pair ["ftc", "ilpPtac"].
	Models     []string       `json:"models,omitempty"`
	Analysed   dsu.Readings   `json:"analysed"`
	Contenders []dsu.Readings `json:"contenders,omitempty"`
	// Templates are contender resource-usage contracts (for templatePtac):
	// pledged per-path request budgets keyed by access path ("pf0/co").
	Templates []V2Template `json:"templates,omitempty"`
	// AnalysedPTAC / ContenderPTACs are exact per-target access counts
	// (for ideal), keyed by access path.
	AnalysedPTAC   map[string]int64   `json:"analysedPtac,omitempty"`
	ContenderPTACs []map[string]int64 `json:"contenderPtacs,omitempty"`
	// StallMode is "budget" (default) or "exact".
	StallMode string `json:"stallMode,omitempty"`
	// DropContenderInfo computes the fully time-composable ILP variant.
	DropContenderInfo bool `json:"dropContenderInfo,omitempty"`
	// RTA requests a schedulability verdict; unlike v1, Model may name any
	// model in Models.
	RTA *RTARequest `json:"rta,omitempty"`
}

// V2Template is one contender contract in wire form.
type V2Template struct {
	Name        string           `json:"name"`
	MaxRequests map[string]int64 `json:"maxRequests"`
}

// V2Estimate is one model's bound in v2 wire form: the v1 fields plus the
// canonical registry name the caller selected it by.
type V2Estimate struct {
	Name             string  `json:"name"`
	Model            string  `json:"model"`
	IsolationCycles  int64   `json:"isolationCycles"`
	ContentionCycles int64   `json:"contentionCycles"`
	WCETCycles       int64   `json:"wcetCycles"`
	Ratio            float64 `json:"ratio"`
}

// V2Response is the wire format of a /v2/analyze reply: the selected
// models' estimates in request order.
type V2Response struct {
	Estimates []V2Estimate `json:"estimates"`
	RTA       *RTAOut      `json:"rta,omitempty"`
}

// V2ModelInfo describes one registered model in GET /v2/models.
type V2ModelInfo struct {
	Name    string   `json:"name"`
	Aliases []string `json:"aliases,omitempty"`
}

// V2ModelsResponse is the wire format of GET /v2/models.
type V2ModelsResponse struct {
	Models []V2ModelInfo `json:"models"`
}

// parsePTAC decodes a wire PTAC map ("pf0/co" keys) into the SDK form,
// rejecting negative counts so they fail pre-admission, not in the solver.
func parsePTAC(m map[string]int64) (wcet.PTAC, error) {
	out := make(wcet.PTAC, len(m))
	for k, v := range m {
		path, err := wcet.ParseAccessPath(k)
		if err != nil {
			return nil, err
		}
		if v < 0 {
			return nil, fmt.Errorf("negative count %d for %s", v, k)
		}
		out[path] = v
	}
	return out, nil
}

// Prepare validates the wire request and converts it to the SDK form in
// one pass, so the serving hot path parses templates and PTAC maps exactly
// once. It rejects before admission: wire-encoding errors (unknown
// scenario, stall mode, access path, negative PTAC or template counts),
// impossible readings, unknown model names (listing the registered set),
// and an rta.model outside the selected model set. Model-specific input
// requirements (e.g. templatePtac with no templates) are the models' own
// errors and surface at evaluation time — the service cannot know them
// for arbitrary registered models.
func (r V2Request) Prepare(reg *wcet.Registry) (wcet.Request, error) {
	sc, err := scenario(r.Scenario)
	if err != nil {
		return wcet.Request{}, err
	}
	mode, err := stallMode(r.StallMode)
	if err != nil {
		return wcet.Request{}, err
	}
	out := wcet.Request{
		Analysed:          r.Analysed,
		Contenders:        r.Contenders,
		Scenario:          sc,
		StallMode:         mode,
		DropContenderInfo: r.DropContenderInfo,
		Models:            r.Models,
	}
	if len(out.Models) == 0 {
		out.Models = v1Models[:]
	}
	for i, tp := range r.Templates {
		budgets, err := parsePTAC(tp.MaxRequests)
		if err != nil {
			return wcet.Request{}, fmt.Errorf("templates[%d] (%s): %w", i, tp.Name, err)
		}
		out.Templates = append(out.Templates, wcet.Template{Name: tp.Name, MaxRequests: budgets})
	}
	if r.AnalysedPTAC != nil {
		if out.AnalysedPTAC, err = parsePTAC(r.AnalysedPTAC); err != nil {
			return wcet.Request{}, fmt.Errorf("analysedPtac: %w", err)
		}
	}
	for i, m := range r.ContenderPTACs {
		p, err := parsePTAC(m)
		if err != nil {
			return wcet.Request{}, fmt.Errorf("contenderPtacs[%d]: %w", i, err)
		}
		out.ContenderPTACs = append(out.ContenderPTACs, p)
	}
	if err := r.Analysed.Validate(); err != nil {
		return wcet.Request{}, fmt.Errorf("analysed readings: %w", err)
	}
	for i, b := range r.Contenders {
		if err := b.Validate(); err != nil {
			return wcet.Request{}, fmt.Errorf("contender %d readings: %w", i, err)
		}
	}
	for i, tp := range out.Templates {
		if err := tp.Validate(); err != nil {
			return wcet.Request{}, fmt.Errorf("templates[%d] (%s): %w", i, tp.Name, err)
		}
	}
	selected := make(map[string]bool, len(out.Models))
	for _, name := range out.Models {
		// An explicit empty entry would silently resolve to the registry's
		// ilpPtac default — reject it; omitting "models" entirely is how
		// callers ask for the default pair.
		if name == "" {
			return wcet.Request{}, fmt.Errorf(`models entries must be non-empty (omit "models" for the default pair)`)
		}
		canon, err := reg.Canonical(name)
		if err != nil {
			return wcet.Request{}, err
		}
		// Reject rather than silently collapse: the wire contract promises
		// exactly the selected estimates in request order, and a client
		// zipping its list against the response by index would misread a
		// deduplicated reply.
		if selected[canon] {
			return wcet.Request{}, fmt.Errorf("duplicate model selection %q (canonical %s)", name, canon)
		}
		selected[canon] = true
	}
	if r.RTA != nil {
		canon, err := reg.Canonical(r.RTA.Model)
		if err != nil {
			return wcet.Request{}, fmt.Errorf("rta.model: %w", err)
		}
		if !selected[canon] {
			return wcet.Request{}, fmt.Errorf("rta.model %s is not among the requested models", canon)
		}
		if out.RTA, err = toRTASpec(r.RTA.Model, r.RTA); err != nil {
			return wcet.Request{}, err
		}
	}
	return out, nil
}

func (r V2Request) prepare(reg *wcet.Registry) (wcet.Request, error) { return r.Prepare(reg) }

func (r V2Request) tableRef() string { return r.Table }

// EvaluateV2 runs the selected models (and the optional RTA step) on one
// v2 request through an analyzer. Like Evaluate it is a pure function of
// the request. A table selection is rejected here: only the daemon carries
// the store that could resolve it.
func EvaluateV2(an *wcet.Analyzer, req V2Request) (*V2Response, error) {
	return evaluateWire(an, req, renderV2)
}

// renderV2 renders a result in the v2 wire form: the selected models'
// estimates in request order.
func renderV2(res *wcet.Result) (*V2Response, error) {
	out := &V2Response{Estimates: make([]V2Estimate, len(res.Estimates))}
	for i, e := range res.Estimates {
		out.Estimates[i] = V2Estimate{
			Name:             e.Name,
			Model:            e.Model,
			IsolationCycles:  e.IsolationCycles,
			ContentionCycles: e.ContentionCycles,
			WCETCycles:       e.WCET(),
			Ratio:            e.Ratio(),
		}
	}
	if res.RTA != nil {
		out.RTA = toRTAOut(res.RTA)
	}
	return out, nil
}

// CanonicalKeyV2 is the result-cache key of a v2 request, names resolved
// through reg; see CanonicalKey. It is "" for a request Prepare rejects.
func CanonicalKeyV2(reg *wcet.Registry, req V2Request) string {
	return wireKey(reg, req, tagV2)
}

// DecodeV2Request reads one JSON v2 request with the service's strict
// decode policy.
func DecodeV2Request(r io.Reader) (V2Request, error) {
	var req V2Request
	if err := decodeStrict(r, &req); err != nil {
		return V2Request{}, err
	}
	return req, nil
}

// RunCLIV2 is cmd/wcet's -models behaviour: decode one v2-shaped request,
// override its model selection with the flag's list when one was given,
// evaluate through the default analyzer and write the v2 response — the
// same steps wcetd's /v2/analyze serves, so CLI and daemon emit
// byte-identical JSON in v2 mode too.
func RunCLIV2(in io.Reader, out io.Writer, models []string) error {
	return runCLI(in, out, func(req V2Request) (*V2Response, error) {
		if len(models) > 0 {
			req.Models = models
		}
		return EvaluateV2(defaultAnalyzer, req)
	})
}
