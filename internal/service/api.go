// Package service is the serving layer over the repro/wcet SDK: the
// request/response API shared by the cmd/wcet CLI and the cmd/wcetd
// daemon, content-addressed result caching, and an HTTP server with
// admission control that fans batch requests out across the campaign
// engine's worker pool.
//
// There is one request path. Each wire request — a /v1 Request, a /v2
// V2Request, each /v1/batch item — is validated and lowered in one pass
// to a wcet.Request, with the server pinning its latency table to a
// content address. Its result is cached under wcet.Request.Key plus a
// response-version tag (the package keeps no canonicaliser of its own),
// evaluated by one function, and rendered by renderV1 or renderV2: the
// two versions differ in nothing else.
//
// The industrial workflow the paper motivates — an OEM integrating tasks
// from many software providers, each needing contention-aware WCET
// verdicts from DSU readings — is a query stream, not a one-shot
// computation. This package turns the models into a service for that
// stream while guaranteeing the daemon and the CLI can never drift: both
// decode requests with DecodeRequest, evaluate them with Evaluate, and
// encode responses with EncodeJSON, so for the same input they emit
// byte-identical JSON (asserted by tests).
//
// Two API versions are served. /v1 is frozen: it always computes the fTC
// and ILP-PTAC pair and its wire format is pinned byte-for-byte by golden
// fixtures. /v2/analyze is generic over the wcet model registry — callers
// select any subset of registered models by name — so a newly registered
// ContentionModel is servable with no change to this package.
package service

import (
	"context"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/dsu"
	"repro/wcet"
)

// Request is one WCET-analysis query: the scenario the deployment is
// configured under, the analysed task's isolation readings, and the
// readings of its future contenders. It is the wire format of the
// cmd/wcet CLI, of wcetd's single-estimate endpoint, and of each element
// of wcetd's batch endpoint.
type Request struct {
	Scenario   int            `json:"scenario"`
	Analysed   dsu.Readings   `json:"analysed"`
	Contenders []dsu.Readings `json:"contenders"`
	// StallMode is "budget" (default) or "exact".
	StallMode string `json:"stallMode,omitempty"`
	// DropContenderInfo computes the fully time-composable ILP variant.
	DropContenderInfo bool `json:"dropContenderInfo,omitempty"`
	// RTA, when present, additionally requests a fixed-priority
	// response-time-analysis verdict for the analysed task among the
	// given co-resident tasks, using one of the computed WCET bounds.
	RTA *RTARequest `json:"rta,omitempty"`
}

// RTATask describes one periodic task for the RTA step. For the analysed
// task WCETCycles is ignored — it is filled in from the selected model's
// bound; co-resident tasks must state theirs.
type RTATask struct {
	Name           string `json:"name"`
	WCETCycles     int64  `json:"wcetCycles,omitempty"`
	PeriodCycles   int64  `json:"periodCycles"`
	DeadlineCycles int64  `json:"deadlineCycles,omitempty"`
	Priority       int    `json:"priority"`
}

// RTARequest asks for a schedulability verdict on the analysed task's
// core.
type RTARequest struct {
	// Model selects which bound becomes the analysed task's WCET:
	// "ilpPtac" (default — the paper's tighter, partially
	// time-composable bound) or "ftc".
	Model string `json:"model,omitempty"`
	// Task is the analysed task's timing parameters; its WCETCycles is
	// filled from the selected model.
	Task RTATask `json:"task"`
	// Others are the co-resident tasks on the same core, with their own
	// (already contention-aware) WCETs.
	Others []RTATask `json:"others,omitempty"`
}

// EstimateOut is one model's bound in wire form.
type EstimateOut struct {
	Model            string  `json:"model"`
	IsolationCycles  int64   `json:"isolationCycles"`
	ContentionCycles int64   `json:"contentionCycles"`
	WCETCycles       int64   `json:"wcetCycles"`
	Ratio            float64 `json:"ratio"`
}

// RTAResultOut is one task's response-time-analysis outcome in wire form.
type RTAResultOut struct {
	Task           string `json:"task"`
	ResponseCycles int64  `json:"responseCycles"`
	Schedulable    bool   `json:"schedulable"`
}

// RTAOut is the schedulability verdict for the analysed task's core.
type RTAOut struct {
	// Model names the bound used as the analysed task's WCET.
	Model string `json:"model"`
	// WCETCycles is that bound's value.
	WCETCycles int64 `json:"wcetCycles"`
	// Utilization is Σ C_i / T_i over the whole task set.
	Utilization float64 `json:"utilization"`
	// Schedulable reports whether every task meets its deadline.
	Schedulable bool           `json:"schedulable"`
	Results     []RTAResultOut `json:"results"`
}

// Response is the analysis result: both bounds, plus the RTA verdict when
// one was requested.
type Response struct {
	FTC EstimateOut `json:"ftc"`
	ILP EstimateOut `json:"ilpPtac"`
	RTA *RTAOut     `json:"rta,omitempty"`
}

// Validate rejects malformed requests before any model runs: unknown
// scenarios and stall modes, impossible DSU readings (negative counters,
// stalls or miss counts exceeding CCNT), and nonsensical RTA parameters.
// Model-name spellings are resolved against the default registry; a server
// carrying its own registry validates against that one instead.
func (r Request) Validate() error {
	_, err := r.prepare(defaultAnalyzer.Registry())
	return err
}

// prepare validates the v1 request and lowers it to the SDK form in one
// pass, against the registry the evaluation will resolve names through. A
// v1 body is a v2 body with the default model pair and no templates or
// PTACs, so it goes through V2Request.Prepare; only the RTA rule differs:
// /v1 computes the ftc and ilpPtac pair alone, and says so.
func (r Request) prepare(reg *wcet.Registry) (wcet.Request, error) {
	out, err := V2Request{
		Scenario:          r.Scenario,
		Analysed:          r.Analysed,
		Contenders:        r.Contenders,
		StallMode:         r.StallMode,
		DropContenderInfo: r.DropContenderInfo,
	}.Prepare(reg)
	if err != nil || r.RTA == nil {
		return out, err
	}
	model, err := rtaModel(reg, r.RTA.Model)
	if err != nil {
		return wcet.Request{}, err
	}
	if out.RTA, err = toRTASpec(model, r.RTA); err != nil {
		return wcet.Request{}, err
	}
	return out, nil
}

// tableRef is the v1 table selection: none, /v1 always analyses under the
// serving table.
func (r Request) tableRef() string { return "" }

// wireRequest is a decoded analysis request of either API version —
// Request (/v1) or V2Request (/v2). Both lower to one wcet.Request, the
// only form the serving path keys and evaluates.
type wireRequest interface {
	prepare(reg *wcet.Registry) (wcet.Request, error)
	// tableRef is the latency-table selection, "" for the serving default.
	tableRef() string
}

// CanonicalKey is the result-cache key of a v1 request, names resolved
// through the default registry: the wcet.Request.Key of its lowered form
// plus the v1 response tag. wcetd keys the same way with the serving
// table pinned into the request. It is "" for a request Validate rejects.
func CanonicalKey(req Request) string {
	return wireKey(wcet.DefaultRegistry(), req, tagV1)
}

// wireKey is CanonicalKey and CanonicalKeyV2: lower, key, tag. A table
// selection is keyed as spelled, unresolved.
func wireKey[Q wireRequest](reg *wcet.Registry, req Q, tag string) string {
	sdkReq, err := req.prepare(reg)
	if err != nil {
		return ""
	}
	sdkReq.TableRef = req.tableRef()
	key, err := sdkReq.Key(reg)
	if err != nil {
		return ""
	}
	return key + tag
}

// toRTASpec lowers the wire RTA block under an already-resolved model. Full
// task validation (periods, deadlines) happens in rta.Analyze once the
// analysed WCET is known; here only what cannot depend on it is caught.
func toRTASpec(model string, r *RTARequest) (*wcet.RTASpec, error) {
	spec := &wcet.RTASpec{
		Model:  model,
		Task:   toRTATask(r.Task),
		Others: make([]wcet.RTATask, len(r.Others)),
	}
	for i, o := range r.Others {
		if o.WCETCycles <= 0 {
			return nil, fmt.Errorf("rta.others[%d] (%s): wcetCycles must be positive", i, o.Name)
		}
		spec.Others[i] = toRTATask(o)
	}
	return spec, nil
}

// decodeStrict is the one decode policy for every payload shape the
// service accepts: unknown fields rejected, uniform error wrapping.
func decodeStrict(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("parsing request: %w", err)
	}
	return nil
}

// DecodeRequest reads one JSON request, rejecting unknown fields — the
// CLI's historical strictness, now shared with the daemon.
func DecodeRequest(r io.Reader) (Request, error) {
	var req Request
	if err := decodeStrict(r, &req); err != nil {
		return Request{}, err
	}
	return req, nil
}

// EncodeJSON writes v exactly as the cmd/wcet CLI always has: two-space
// indent, trailing newline. Byte-identical CLI/daemon output depends on
// every producer funnelling through here.
func EncodeJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// scenario maps the wire scenario number to the SDK tailoring.
func scenario(n int) (wcet.Scenario, error) {
	switch n {
	case 1:
		return wcet.Scenario1(), nil
	case 2:
		return wcet.Scenario2(), nil
	default:
		return wcet.Scenario{}, fmt.Errorf("scenario must be 1 or 2, got %d", n)
	}
}

// stallMode maps the wire stall-mode string to the ILP option.
func stallMode(s string) (wcet.StallMode, error) {
	switch s {
	case "", "budget":
		return wcet.StallBudget, nil
	case "exact":
		return wcet.StallExact, nil
	default:
		return 0, fmt.Errorf("stallMode must be budget or exact, got %q", s)
	}
}

// v1Models is the fixed pair every /v1 evaluation computes; the frozen v1
// wire format has one field per member.
var v1Models = [2]string{"ftc", "ilpPtac"}

// rtaModel resolves the wire RTA model selector through the given SDK
// registry (one parser for every alias, unknown names list the registered
// set) and then pins it to the pair /v1 actually computes.
func rtaModel(reg *wcet.Registry, s string) (string, error) {
	canon, err := reg.Canonical(s)
	if err != nil {
		return "", fmt.Errorf("rta.model: %w", err)
	}
	if canon != "ftc" && canon != "ilpPtac" {
		return "", fmt.Errorf("rta.model: /v1 computes only %s and %s, got %q (use /v2/analyze for other models)", v1Models[0], v1Models[1], s)
	}
	return canon, nil
}

// defaultAnalyzer backs the package-level Evaluate (the CLI path and every
// default-configured server): the shared default registry, the TC27x
// characterisation, the frozen v1 model pair.
var defaultAnalyzer = wcet.MustNewAnalyzer()

func toRTATask(t RTATask) wcet.RTATask {
	return wcet.RTATask{
		Name:     t.Name,
		WCET:     t.WCETCycles,
		Period:   t.PeriodCycles,
		Deadline: t.DeadlineCycles,
		Priority: t.Priority,
	}
}

// Evaluate runs the frozen v1 pair — the fTC and ILP-PTAC models — and
// the optional RTA step on one request, through the default SDK analyzer.
// It is a pure function of the request: the CLI calls it once per process,
// the daemon runs the same lowering and evaluation per cache miss.
func Evaluate(req Request) (*Response, error) {
	return evaluateWire(defaultAnalyzer, req, renderV1)
}

// evaluateWire prepares a wire request against an analyzer's registry and
// evaluates it — Evaluate and EvaluateV2. A table selection is rejected:
// only the daemon carries the store that could resolve it.
func evaluateWire[Q wireRequest, R any](an *wcet.Analyzer, req Q, render func(*wcet.Result) (R, error)) (R, error) {
	var zero R
	if req.tableRef() != "" {
		return zero, fmt.Errorf(`"table" selection requires the daemon's table store (POST the request to wcetd's /v2/analyze)`)
	}
	sdkReq, err := req.prepare(an.Registry())
	if err != nil {
		return zero, err
	}
	return evaluate(context.Background(), an, sdkReq, render)
}

// evaluate is the one evaluation of the service: run a lowered request
// through an analyzer and render the result in one wire version. /v1 and
// /v2 differ only in render. ctx carries trace spans only: evaluation runs
// to completion even if the request that started it is cancelled, because
// singleflight followers may still be waiting on the result.
func evaluate[R any](ctx context.Context, an *wcet.Analyzer, req wcet.Request, render func(*wcet.Result) (R, error)) (R, error) {
	res, err := an.Analyze(context.WithoutCancel(ctx), req)
	if err != nil {
		var zero R
		return zero, err
	}
	return render(res)
}

// renderV1 renders a result of the v1 pair in the frozen v1 wire form.
func renderV1(res *wcet.Result) (*Response, error) {
	ftcE, ok := res.Estimate("ftc")
	if !ok {
		return nil, fmt.Errorf("service: analyzer returned no ftc estimate")
	}
	ilpE, ok := res.Estimate("ilpPtac")
	if !ok {
		return nil, fmt.Errorf("service: analyzer returned no ilpPtac estimate")
	}
	resp := &Response{FTC: toEstimateOut(ftcE), ILP: toEstimateOut(ilpE)}
	if res.RTA != nil {
		resp.RTA = toRTAOut(res.RTA)
	}
	return resp, nil
}

// toRTAOut maps the SDK verdict onto the v1 wire form.
func toRTAOut(v *wcet.RTAVerdict) *RTAOut {
	out := &RTAOut{
		Model:       v.Model,
		WCETCycles:  v.WCETCycles,
		Utilization: v.Utilization,
		Schedulable: v.Schedulable,
		Results:     make([]RTAResultOut, len(v.Results)),
	}
	for i, r := range v.Results {
		out.Results[i] = RTAResultOut{
			Task:           r.Task,
			ResponseCycles: r.Response,
			Schedulable:    r.Schedulable,
		}
	}
	return out
}

func toEstimateOut(e wcet.Estimate) EstimateOut {
	return EstimateOut{
		Model:            e.Model,
		IsolationCycles:  e.IsolationCycles,
		ContentionCycles: e.ContentionCycles,
		WCETCycles:       e.WCET(),
		Ratio:            e.Ratio(),
	}
}

// RunCLI is cmd/wcet's whole behaviour: decode one request from in,
// evaluate it, write the response to out. The daemon serves the same
// decode, evaluation and encoding per request, which is what keeps the two
// front-ends byte-identical.
func RunCLI(in io.Reader, out io.Writer) error {
	return runCLI(in, out, Evaluate)
}

// runCLI is RunCLI and RunCLIV2: strict decode, evaluate, canonical encode.
func runCLI[Q, R any](in io.Reader, out io.Writer, eval func(Q) (R, error)) error {
	var req Q
	if err := decodeStrict(in, &req); err != nil {
		return err
	}
	resp, err := eval(req)
	if err != nil {
		return err
	}
	return EncodeJSON(out, resp)
}
