package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/dsu"
	"repro/wcet"
)

func postV2(t *testing.T, url, body string) (*http.Response, V2Response) {
	t.Helper()
	resp, err := http.Post(url+"/v2/analyze", "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out V2Response
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
	}
	return resp, out
}

const v2Analysed = `"analysed": {"CCNT": 157800, "PS": 18000, "DS": 27000, "PM": 3000},
  "contenders": [{"CCNT": 500000, "PS": 50000, "DS": 60000, "PM": 8000}]`

// TestV2AnalyzeSubset asserts the core v2 contract: the caller gets
// exactly the models it asked for, in request order, labelled with
// canonical names.
func TestV2AnalyzeSubset(t *testing.T) {
	srv := newServer(t, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, out := postV2(t, ts.URL, `{
  "scenario": 1,
  "models": ["ilpPtac", "ftcFsb"],
  `+v2Analysed+`
}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %s", resp.Status)
	}
	if len(out.Estimates) != 2 {
		t.Fatalf("estimates = %+v, want exactly the 2 selected", out.Estimates)
	}
	if out.Estimates[0].Name != "ilpPtac" || out.Estimates[1].Name != "ftcFsb" {
		t.Errorf("model order = %s, %s; want ilpPtac, ftcFsb", out.Estimates[0].Name, out.Estimates[1].Name)
	}
	if out.Estimates[1].Model != "fTC-FSB" {
		t.Errorf("display name = %q, want fTC-FSB", out.Estimates[1].Model)
	}

	// A single-model selection returns one estimate only.
	resp, out = postV2(t, ts.URL, `{"scenario": 1, "models": ["ftc"], `+v2Analysed+`}`)
	if resp.StatusCode != http.StatusOK || len(out.Estimates) != 1 || out.Estimates[0].Name != "ftc" {
		t.Errorf("single-model selection: status %s, estimates %+v", resp.Status, out.Estimates)
	}

	// Empty model list defaults to the v1 pair.
	resp, out = postV2(t, ts.URL, `{"scenario": 1, `+v2Analysed+`}`)
	if resp.StatusCode != http.StatusOK || len(out.Estimates) != 2 ||
		out.Estimates[0].Name != "ftc" || out.Estimates[1].Name != "ilpPtac" {
		t.Errorf("default selection: status %s, estimates %+v", resp.Status, out.Estimates)
	}
}

// TestV2UnknownModelListsRegistry asserts the self-diagnosing error the
// registry fold buys: a typo'd model name is a 400 naming the registered
// set.
func TestV2UnknownModelListsRegistry(t *testing.T) {
	srv := newServer(t, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v2/analyze", "application/json",
		bytes.NewReader([]byte(`{"scenario": 1, "models": ["ilpptacc"], `+v2Analysed+`}`)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %s, want 400", resp.Status)
	}
	var eb errorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"ilpptacc", "registered:", "ftc", "ilpPtac", "ideal"} {
		if !strings.Contains(eb.Error, want) {
			t.Errorf("error %q does not mention %s", eb.Error, want)
		}
	}
}

// TestV2TemplatesAndPTACs drives the wire encodings that make the
// template and ideal models reachable over HTTP.
func TestV2TemplatesAndPTACs(t *testing.T) {
	srv := newServer(t, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, out := postV2(t, ts.URL, `{
  "scenario": 1,
  "models": ["templatePtac"],
  "analysed": {"CCNT": 157800, "PS": 18000, "DS": 27000, "PM": 3000},
  "templates": [{"name": "pledged", "maxRequests": {"pf0/co": 400, "lmu/da": 900}}]
}`)
	if resp.StatusCode != http.StatusOK || len(out.Estimates) != 1 || out.Estimates[0].ContentionCycles <= 0 {
		t.Errorf("templatePtac over wire: status %s, estimates %+v", resp.Status, out.Estimates)
	}

	resp, out = postV2(t, ts.URL, `{
  "scenario": 1,
  "models": ["ideal"],
  "analysed": {"CCNT": 157800, "PS": 18000, "DS": 27000, "PM": 3000},
  "analysedPtac": {"pf0/co": 1000, "lmu/da": 2000},
  "contenderPtacs": [{"pf0/co": 300, "lmu/da": 700}]
}`)
	if resp.StatusCode != http.StatusOK || len(out.Estimates) != 1 || out.Estimates[0].ContentionCycles <= 0 {
		t.Errorf("ideal over wire: status %s, estimates %+v", resp.Status, out.Estimates)
	}

	// A negative PTAC count is a 400 pre-admission, not a solver error.
	resp3, err := http.Post(ts.URL+"/v2/analyze", "application/json", bytes.NewReader([]byte(`{
  "scenario": 1, "models": ["ideal"],
  "analysed": {"CCNT": 1000},
  "analysedPtac": {"pf0/co": -5}, "contenderPtacs": [{"pf0/co": 1}]
}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusBadRequest {
		t.Errorf("negative PTAC count: status %s, want 400", resp3.Status)
	}

	// A bad access path is a 400 with the path named.
	resp2, err := http.Post(ts.URL+"/v2/analyze", "application/json", bytes.NewReader([]byte(`{
  "scenario": 1, "models": ["ideal"],
  "analysed": {"CCNT": 1000},
  "analysedPtac": {"pf9/co": 1}, "contenderPtacs": [{"pf0/co": 1}]
}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Errorf("illegal access path: status %s, want 400", resp2.Status)
	}
}

// TestV2RTAAnyModel asserts v2 lifts the v1 restriction: the RTA verdict
// can ride on any selected model's bound.
func TestV2RTAAnyModel(t *testing.T) {
	srv := newServer(t, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, out := postV2(t, ts.URL, `{
  "scenario": 1,
  "models": ["ftcFsb"],
  `+v2Analysed+`,
  "rta": {
    "model": "ftcFsb",
    "task": {"name": "airbagCtl", "periodCycles": 2000000, "priority": 2}
  }
}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %s", resp.Status)
	}
	if out.RTA == nil || out.RTA.Model != "ftcFsb" || out.RTA.WCETCycles != out.Estimates[0].WCETCycles {
		t.Errorf("v2 RTA verdict = %+v (estimates %+v)", out.RTA, out.Estimates)
	}
}

// TestV2RTAModelMustBeSelected asserts an rta.model outside the selected
// model set is rejected pre-admission as a 400 — not after burning a full
// model fan-out.
func TestV2RTAModelMustBeSelected(t *testing.T) {
	srv := newServer(t, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v2/analyze", "application/json", bytes.NewReader([]byte(`{
  "scenario": 1,
  "models": ["ftcFsb"],
  `+v2Analysed+`,
  "rta": {"model": "ftc", "task": {"periodCycles": 2000000, "priority": 2}}
}`)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %s, want 400", resp.Status)
	}
	var eb errorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(eb.Error, "not among") {
		t.Errorf("error %q does not explain the model/selection mismatch", eb.Error)
	}
}

// TestCanonicalKeyV2Invariance pins the alias- and order-collapsing the
// cache documentation promises: rta.model alias spellings, template order
// and contender-PTAC order must not split cache entries.
func TestCanonicalKeyV2Invariance(t *testing.T) {
	reg := wcet.DefaultRegistry()
	base := V2Request{
		Scenario: 1,
		Models:   []string{"ilpPtac"},
		Analysed: dsu.Readings{CCNT: 157800, PS: 18000, DS: 27000, PM: 3000},
		RTA: &RTARequest{
			Model: "ILP-PTAC",
			Task:  RTATask{PeriodCycles: 2_000_000, Priority: 2},
		},
	}
	alias := base
	alias.RTA = &RTARequest{Model: "ilpPtac", Task: base.RTA.Task}
	if CanonicalKeyV2(reg, base) != CanonicalKeyV2(reg, alias) {
		t.Error("rta.model alias spellings produced different cache keys")
	}

	// The v1 key collapses rta.model aliases too — v1 validation accepts
	// them, so distinct spellings must not split entries or re-solve.
	v1 := Request{Scenario: 1, Analysed: base.Analysed,
		RTA: &RTARequest{Model: "FTC", Task: RTATask{PeriodCycles: 2_000_000, Priority: 2}}}
	v1alias := v1
	v1alias.RTA = &RTARequest{Model: "ftc", Task: v1.RTA.Task}
	if CanonicalKey(v1) != CanonicalKey(v1alias) {
		t.Error("v1 rta.model alias spellings produced different cache keys")
	}

	// Custom-registry aliases collapse too when the server's registry is
	// threaded through (canonicalKeyReg), not just the default set.
	creg := wcet.NewRegistry()
	if err := creg.Register(wcet.NewModel("toy", func(_ context.Context, in wcet.Input) (wcet.Estimate, error) {
		return wcet.Estimate{Model: "toy"}, nil
	}), "speedy"); err != nil {
		t.Fatal(err)
	}
	c1 := v1
	c1.RTA = &RTARequest{Model: "speedy", Task: v1.RTA.Task}
	c2 := v1
	c2.RTA = &RTARequest{Model: "toy", Task: v1.RTA.Task}
	if canonicalKeyReg(creg, c1) != canonicalKeyReg(creg, c2) {
		t.Error("custom-registry alias spellings produced different cache keys")
	}

	tp1 := V2Template{Name: "a", MaxRequests: map[string]int64{"pf0/co": 400}}
	tp2 := V2Template{Name: "b", MaxRequests: map[string]int64{"lmu/da": 900}}
	fwd := base
	fwd.RTA = nil
	fwd.Templates = []V2Template{tp1, tp2}
	fwd.ContenderPTACs = []map[string]int64{{"pf0/co": 300}, {"lmu/da": 700}}
	rev := fwd
	rev.Templates = []V2Template{tp2, tp1}
	rev.ContenderPTACs = []map[string]int64{{"lmu/da": 700}, {"pf0/co": 300}}
	if CanonicalKeyV2(reg, fwd) != CanonicalKeyV2(reg, rev) {
		t.Error("template/contender-PTAC order produced different cache keys")
	}
}

// TestV2DuplicateModelSelection asserts alias-equivalent duplicates in the
// models list are a 400, not a silently shorter response.
func TestV2DuplicateModelSelection(t *testing.T) {
	srv := newServer(t, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v2/analyze", "application/json",
		bytes.NewReader([]byte(`{"scenario": 1, "models": ["fTC", "ftc"], `+v2Analysed+`}`)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %s, want 400", resp.Status)
	}
	var eb errorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(eb.Error, "duplicate model") {
		t.Errorf("error %q does not name the duplicate", eb.Error)
	}

	// An explicit empty entry is a 400, not a silent ilpPtac default.
	resp2, err := http.Post(ts.URL+"/v2/analyze", "application/json",
		bytes.NewReader([]byte(`{"scenario": 1, "models": [""], `+v2Analysed+`}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Errorf("empty model entry: status %s, want 400", resp2.Status)
	}
}

// TestV2OnlyRegistryServer asserts a registry without the v1 pair yields a
// working v2-only server instead of a construction-time panic.
func TestV2OnlyRegistryServer(t *testing.T) {
	reg := wcet.NewRegistry()
	if err := reg.Register(wcet.NewModel("toy", func(_ context.Context, in wcet.Input) (wcet.Estimate, error) {
		return wcet.Estimate{Model: "toy", IsolationCycles: in.Analysed.CCNT, ContentionCycles: 7}, nil
	})); err != nil {
		t.Fatal(err)
	}
	srv := newServer(t, Config{Registry: reg})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, out := postV2(t, ts.URL, `{"scenario": 1, "models": ["toy"], `+v2Analysed+`}`)
	if resp.StatusCode != http.StatusOK || len(out.Estimates) != 1 || out.Estimates[0].ContentionCycles != 7 {
		t.Errorf("v2-only server: status %s, estimates %+v", resp.Status, out.Estimates)
	}

	// /v1 on the same server fails per-request — it needs the built-ins.
	v1resp, err := http.Post(ts.URL+"/v1/wcet", "application/json",
		bytes.NewReader([]byte(`{"scenario": 1, `+v2Analysed+`}`)))
	if err != nil {
		t.Fatal(err)
	}
	v1resp.Body.Close()
	if v1resp.StatusCode == http.StatusOK {
		t.Error("/v1 succeeded on a registry without the ftc/ilpPtac pair")
	}
}

// TestV2CacheAndAliasCollision asserts identical v2 requests hit the
// result cache, including when the second spelling uses aliases.
func TestV2CacheAndAliasCollision(t *testing.T) {
	srv := newServer(t, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body := `{"scenario": 1, "models": ["ilpPtac"], ` + v2Analysed + `}`
	alias := `{"scenario": 1, "models": ["ILP-PTAC"], ` + v2Analysed + `}`
	if resp, _ := postV2(t, ts.URL, body); resp.StatusCode != http.StatusOK {
		t.Fatalf("first: %s", resp.Status)
	}
	if resp, _ := postV2(t, ts.URL, alias); resp.StatusCode != http.StatusOK {
		t.Fatalf("alias: %s", resp.Status)
	}
	st := srv.StatsSnapshot()
	if st.Cache.Hits < 1 {
		t.Errorf("alias spelling missed the cache: %+v", st.Cache)
	}
	if st.V2Requests != 2 {
		t.Errorf("v2Requests = %d, want 2", st.V2Requests)
	}
}

// TestV2Models asserts the discovery endpoint lists the registry.
func TestV2Models(t *testing.T) {
	srv := newServer(t, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v2/models")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out V2ModelsResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(out.Models))
	for i, m := range out.Models {
		names[i] = m.Name
	}
	want := []string{"ftc", "ftcFsb", "ideal", "ilpPtac", "templatePtac"}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Errorf("models = %v, want %v", names, want)
	}
}

// TestV2NewModelZeroEdits is the acceptance criterion end to end: a toy
// ContentionModel registered into a registry handed to the server via
// Config becomes servable through /v2/analyze — no change to the service
// package, no new endpoint, no switch to extend.
func TestV2NewModelZeroEdits(t *testing.T) {
	reg := wcet.NewDefaultRegistry()
	toy := wcet.NewModel("toy", func(_ context.Context, in wcet.Input) (wcet.Estimate, error) {
		return wcet.Estimate{Model: "toy-display", IsolationCycles: in.Analysed.CCNT, ContentionCycles: 4242}, nil
	})
	if err := reg.Register(toy, "TOY"); err != nil {
		t.Fatal(err)
	}

	srv := newServer(t, Config{Registry: reg})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Discoverable.
	resp, err := http.Get(ts.URL + "/v2/models")
	if err != nil {
		t.Fatal(err)
	}
	var models V2ModelsResponse
	if err := json.NewDecoder(resp.Body).Decode(&models); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	found := false
	for _, m := range models.Models {
		if m.Name == "toy" {
			found = true
		}
	}
	if !found {
		t.Fatalf("registered toy model not listed: %+v", models.Models)
	}

	// Servable, alone and next to a built-in, by alias too.
	hresp, out := postV2(t, ts.URL, `{"scenario": 1, "models": ["TOY", "ftc"], `+v2Analysed+`}`)
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("status %s", hresp.Status)
	}
	if len(out.Estimates) != 2 || out.Estimates[0].Name != "toy" ||
		out.Estimates[0].ContentionCycles != 4242 || out.Estimates[0].WCETCycles != 157800+4242 {
		t.Errorf("toy over wire = %+v", out.Estimates)
	}

	// And /v1 on the same server stays the frozen pair.
	v1resp, err := http.Post(ts.URL+"/v1/wcet", "application/json",
		bytes.NewReader([]byte(`{"scenario": 1, `+v2Analysed+`}`)))
	if err != nil {
		t.Fatal(err)
	}
	defer v1resp.Body.Close()
	var v1out Response
	if err := json.NewDecoder(v1resp.Body).Decode(&v1out); err != nil {
		t.Fatal(err)
	}
	if v1out.FTC.Model != "fTC" || v1out.ILP.Model != "ILP-PTAC" {
		t.Errorf("/v1 drifted on a custom-registry server: %+v", v1out)
	}
}
