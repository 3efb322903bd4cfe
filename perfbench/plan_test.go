package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"testing"

	"repro/internal/experiments"
	"repro/internal/platform"
	"repro/internal/service"
	"repro/internal/workload"
)

func planJSON(t *testing.T, w string, seed uint64) []byte {
	t.Helper()
	p, err := buildPlan(w, seed)
	if err != nil {
		t.Fatalf("%s seed %d: %v", w, seed, err)
	}
	data, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestPlanDeterminism: the same seed yields a byte-identical op sequence
// and a different seed changes it.
func TestPlanDeterminism(t *testing.T) {
	for _, w := range []string{wServeHot, wAnalyzeCold, wCampaign} {
		a, b, c := planJSON(t, w, defaultSeed), planJSON(t, w, defaultSeed), planJSON(t, w, defaultSeed+1)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: two plans for seed %d differ", w, defaultSeed)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: seeds %d and %d give the same plan", w, defaultSeed, defaultSeed+1)
		}
	}
}

func TestTable6Constants(t *testing.T) {
	for sc, want := range table6 {
		app, cont, err := experiments.Table6Readings(platform.TC27xLatencies(), workload.Scenario(sc))
		if err != nil {
			t.Fatal(err)
		}
		if app != want[0] || cont != want[1] {
			t.Errorf("scenario %d: Table 6 regenerates as %+v / %+v, constants say %+v / %+v", sc, app, cont, want[0], want[1])
		}
	}
}

func committedResponses(t *testing.T) map[string]responseWant {
	t.Helper()
	var m map[string]responseWant
	if err := loadExpected("responses.json", &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestAnalyzeColdCorpus: every corpus request validates and solves, to the
// committed response and node count; the warm-up never repeats a corpus
// request.
func TestAnalyzeColdCorpus(t *testing.T) {
	committed := committedResponses(t)
	corpus := map[string]bool{}
	for i, b := range analyzeColdCorpus() {
		corpus[b.key()] = true
		req, err := service.DecodeRequest(bytes.NewReader(b.JSON))
		if err == nil {
			err = req.Validate()
		}
		if err != nil {
			t.Fatalf("corpus body %d: %v", i, err)
		}
		before := readSolver()
		resp, err := expectedResponse(b)
		if err != nil {
			t.Fatalf("corpus body %d: %v", i, err)
		}
		got := responseWant{SHA256: hashHex(resp), Nodes: int64(readSolver().nodes - before.nodes)}
		if want := committed[b.key()]; got != want {
			t.Errorf("corpus body %d: got %+v, committed %+v", i, got, want)
		}
	}
	for _, b := range analyzeColdPlan(defaultSeed).Warmup {
		if corpus[b.key()] {
			t.Errorf("warm-up request %s is in the corpus", b.JSON)
		}
		if _, err := expectedResponse(b); err != nil {
			t.Errorf("warm-up request %s: %v", b.JSON, err)
		}
	}
}

func benchmarkJSON(t *testing.T) (doc struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

// checkRankMargins asserts that, with the committed node counts, the p50
// rank and the tail rank of a run each sit at least 5% of the ops away
// from the boundary between light and heavy ops, so neither percentile
// can flip between the two modes.
func checkRankMargins(t *testing.T, w string) {
	t.Helper()
	p, err := buildPlan(w, defaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	nodes := append([]int64(nil), p.Nodes...)
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
	light := sort.Search(len(nodes), func(i int) bool { return nodes[i] > heavySolveNodes })
	boundary := float64(light) / float64(len(nodes))
	samples := len(nodes) * repetitions(w, benchmarkJSON(t).RunSeconds)
	for _, pct := range []int{50, tailPercentile(samples)} {
		rank := float64(nearestRank(pct, samples)) / float64(samples)
		if d := rank - boundary; d < 0.05 && d > -0.05 {
			t.Errorf("p%d rank %.3f is %.3f from the light/heavy boundary %.3f", pct, rank, d, boundary)
		}
	}
	t.Logf("%d heavy of %d; boundary at %.3f; %d samples per run, tail p%d",
		len(nodes)-light, len(nodes), boundary, samples, tailPercentile(samples))
}

func TestRankMargins(t *testing.T) { checkRankMargins(t, wAnalyzeCold) }

func TestCampaignRankMargins(t *testing.T) { checkRankMargins(t, wCampaign) }

func TestExpectedFigure4MatchesBench10(t *testing.T) {
	want, err := bench10Figure4("../BENCH_10.json")
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]figure4Want
	if err := loadExpected("figure4.json", &got); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) || len(got) != 6 {
		t.Errorf("expected/figure4.json = %v, BENCH_10.json has %v", got, want)
	}
}

func TestExpectedArtifacts(t *testing.T) {
	var committed map[string]responseWant
	if err := loadExpected("artifacts.json", &committed); err != nil {
		t.Fatal(err)
	}
	for _, s := range append([]int64{100}, campaignScales...) {
		before := readSolver()
		data, err := sweepArtifact(s)
		if err != nil {
			t.Fatal(err)
		}
		got := responseWant{SHA256: hashHex(data), Nodes: int64(readSolver().nodes - before.nodes)}
		if want := committed[fmt.Sprint(s)]; got != want {
			t.Errorf("scaling %d%%: artifact %+v, committed %+v", s, got, want)
		}
	}
}

// TestCampaignScalesDistinctTables: every job's scaling, and the set-up
// job's base table, round to latency tables of their own, so each job is
// new to the process.
func TestCampaignScalesDistinctTables(t *testing.T) {
	base := platform.TC27xLatencies()
	seen := map[platform.LatencyTable]int64{base: 100}
	for _, s := range campaignScales {
		lat := experiments.ScaleLatencies("", s, 100).Apply(base)
		if prior, ok := seen[lat]; ok {
			t.Errorf("scalings %d%% and %d%% give the same latency table", prior, s)
		}
		seen[lat] = s
	}
}

func TestServeHotDefaultSeedCommitted(t *testing.T) {
	committed := committedResponses(t)
	for i, b := range serveHotPlan(defaultSeed).Bodies {
		resp, err := expectedResponse(b)
		if err != nil {
			t.Fatalf("body %d: %v", i, err)
		}
		if got, want := hashHex(resp), committed[b.key()].SHA256; got != want {
			t.Errorf("body %d: response %s, committed %s", i, got, want)
		}
	}
}

// TestBenchmarkJSON: BENCHMARK.json lists exactly the workloads and
// metrics this command runs and reports.
func TestBenchmarkJSON(t *testing.T) {
	doc := benchmarkJSON(t)
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
		if _, ok := repSeconds[w.Name]; !ok {
			t.Errorf("workload %s is not implemented", w.Name)
		}
	}
	if len(names) != len(repSeconds) {
		t.Errorf("BENCHMARK.json lists %v, the command runs %d workloads", names, len(repSeconds))
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricSpec) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the command reports %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), command %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct{ n, want int }{{30, 66}, {480, 97}, {150000, 99}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}
