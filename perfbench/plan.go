package main

import (
	"bytes"
	"crypto/sha256"
	"embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand/v2"

	"repro/internal/dsu"
	"repro/internal/service"
	"repro/wcet"
)

// Workload names, as BENCHMARK.json lists them.
const (
	wServeHot    = "serve-hot"
	wAnalyzeCold = "analyze-cold"
	wFigure4     = "figure4"
	wCampaign    = "campaign-jobs"
)

// Request paths the request workloads drive.
const (
	pathV1    = "/v1/wcet"
	pathV2    = "/v2/analyze"
	pathBatch = "/v1/batch"
)

// defaultSeed is the seed whose expected values are committed under
// expected/; every other seed has its seed-dependent expected values
// recomputed in the parent process before any child starts.
const defaultSeed = 1

// table6 holds the Table 6 isolation readings of the analysed
// application and the H-Load contender per scenario, exactly as
// experiments.Table6Readings regenerates them on the TC27x latency table
// (asserted by TestTable6Constants). Keeping them as constants makes the
// generators pure: no simulation runs to build a plan.
var table6 = map[int][2]dsu.Readings{
	1: {
		{CCNT: 157800, PS: 18000, DS: 27000, PM: 3000},
		{CCNT: 169694, PS: 34224, DS: 57040, PM: 5704},
	},
	2: {
		{CCNT: 232050, PS: 18000, DS: 67500, PM: 3000, DMC: 3750},
		{CCNT: 302312, PS: 58512, DS: 99958, PM: 9752, DMC: 2438},
	},
}

// factor is an exact rational scaling Num/Den.
type factor struct{ Num, Den int64 }

// scale multiplies every counter of r by f. Cycle totals (CCNT and the
// stall counters) round up and event counts (misses) round down, so a
// scaled reading stays one a core could produce: each miss still has at
// least its minimum stall inside the stall total. Rounding both to
// nearest breaks that for about a third of the factors in [0.5, 2] and
// makes the ILP infeasible.
func scale(r dsu.Readings, f factor) dsu.Readings {
	up := func(v int64) int64 { return (v*f.Num + f.Den - 1) / f.Den }
	down := func(v int64) int64 { return v * f.Num / f.Den }
	return dsu.Readings{CCNT: up(r.CCNT), PS: up(r.PS), DS: up(r.DS), PM: down(r.PM), DMC: down(r.DMC), DMD: down(r.DMD)}
}

// scaledRequest is one contender, that scenario's Table 6 readings, all
// scaled by f.
func scaledRequest(sc int, f factor) service.Request {
	r := table6[sc]
	return service.Request{Scenario: sc, Analysed: scale(r[0], f), Contenders: []dsu.Readings{scale(r[1], f)}}
}

// body is one request body of a request workload with the hash of the
// response it must produce.
type body struct {
	Path string          `json:"path"`
	JSON json.RawMessage `json:"json"`
	// Want is the hex SHA-256 of the expected response body.
	Want string `json:"want"`
}

// key identifies a request body in expected/responses.json.
func (b body) key() string {
	h := sha256.Sum256(append([]byte(b.Path+" "), b.JSON...))
	return hex.EncodeToString(h[:])
}

// plan is everything a child process needs to run one workload
// repetition: the generated inputs and their expected outputs. The
// parent process builds it once per run and every repetition replays it in full.
type plan struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Clients  int    `json:"clients"`

	// Request workloads: Bodies is the working set (serve-hot) or corpus
	// (analyze-cold); Ops[c] is client c's sequence of indexes into it;
	// Warmup is sent once, in order, during set-up.
	Bodies []body   `json:"bodies,omitempty"`
	Ops    [][]int  `json:"ops,omitempty"`
	Warmup []body   `json:"warmup,omitempty"`
	Nodes  []int64  `json:"nodes,omitempty"` // committed B&B nodes per corpus body or job
	Scales []int64  `json:"scales,omitempty"`
	Arts   []string `json:"artifacts,omitempty"` // expected artifact hash per Scales entry

	// WarmArt is the expected artifact hash of the set-up job.
	WarmArt string `json:"warmArtifact,omitempty"`
	// OpsPerRep is the number of timed ops of figure4 and campaign-jobs.
	OpsPerRep int `json:"opsPerRep,omitempty"`
	// Figure4 holds the expected ratios per cell.
	Figure4 map[string]figure4Want `json:"figure4,omitempty"`
}

// figure4Want is one cell's ratios as BENCH_10.json records them.
type figure4Want struct {
	Observed float64 `json:"observed_x"`
	ILP      float64 `json:"ilp_x"`
	FTC      float64 `json:"ftc_x"`
}

// responseWant is one committed expected response or artifact.
type responseWant struct {
	SHA256 string `json:"sha256"`
	// Nodes is the branch & bound node count of the request's ILP-PTAC
	// solve (analyze-cold corpus) or of the job's sweep (campaign-jobs).
	Nodes int64 `json:"nodes,omitempty"`
}

//go:embed expected/*.json
var expectedFS embed.FS

func loadExpected(name string, v any) error {
	data, err := expectedFS.ReadFile("expected/" + name)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, v)
}

// buildPlan generates the plan of one workload for seed and attaches the
// expected outputs: committed ones where they exist, recomputed ones
// otherwise.
func buildPlan(workload string, seed uint64) (*plan, error) {
	var p *plan
	switch workload {
	case wServeHot:
		p = serveHotPlan(seed)
	case wAnalyzeCold:
		p = analyzeColdPlan(seed)
	case wFigure4:
		p = &plan{Workload: wFigure4, Seed: seed, Clients: 1, OpsPerRep: figure4OpsPerRep}
		if err := loadExpected("figure4.json", &p.Figure4); err != nil {
			return nil, err
		}
		return p, nil
	case wCampaign:
		return campaignPlan(seed)
	default:
		return nil, fmt.Errorf("unknown workload %q", workload)
	}
	if err := attachResponses(p); err != nil {
		return nil, err
	}
	return p, nil
}

// attachResponses fills Want (and Nodes for the corpus) of every body.
func attachResponses(p *plan) error {
	var committed map[string]responseWant
	if err := loadExpected("responses.json", &committed); err != nil {
		return err
	}
	for i := range p.Bodies {
		b := &p.Bodies[i]
		if w, ok := committed[b.key()]; ok {
			b.Want = w.SHA256
			if p.Workload == wAnalyzeCold {
				p.Nodes = append(p.Nodes, w.Nodes)
			}
			continue
		}
		if p.Workload == wAnalyzeCold {
			return fmt.Errorf("analyze-cold corpus body %d has no committed expected response", i)
		}
		resp, err := expectedResponse(*b)
		if err != nil {
			return fmt.Errorf("%s body %d: %w", p.Workload, i, err)
		}
		b.Want = hashHex(resp)
	}
	return nil
}

func hashHex(data []byte) string {
	h := sha256.Sum256(data)
	return hex.EncodeToString(h[:])
}

// expectedResponse computes a body's response the way cmd/wcet does:
// decode, evaluate and encode in-process, with no server, transport or
// result cache involved. wcetd must serve the same bytes.
func expectedResponse(b body) ([]byte, error) {
	var out any
	switch b.Path {
	case pathV1:
		req, err := service.DecodeRequest(bytes.NewReader(b.JSON))
		if err != nil {
			return nil, err
		}
		if out, err = service.Evaluate(req); err != nil {
			return nil, err
		}
	case pathV2:
		req, err := service.DecodeV2Request(bytes.NewReader(b.JSON))
		if err != nil {
			return nil, err
		}
		if out, err = service.EvaluateV2(v2Analyzer, req); err != nil {
			return nil, err
		}
	case pathBatch:
		var batch service.BatchRequest
		if err := json.Unmarshal(b.JSON, &batch); err != nil {
			return nil, err
		}
		res := service.BatchResponse{Results: make([]service.BatchItem, len(batch.Requests))}
		for i, req := range batch.Requests {
			r, err := service.Evaluate(req)
			if err != nil {
				return nil, err
			}
			res.Results[i] = service.BatchItem{Response: r}
		}
		out = res
	default:
		return nil, fmt.Errorf("unknown path %q", b.Path)
	}
	var buf bytes.Buffer
	if err := service.EncodeJSON(&buf, out); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// v2Analyzer evaluates expected /v2/analyze responses; like the CLI it
// runs on the built-in TC27x table, which is what wcetd serves by
// default.
var v2Analyzer = wcet.MustNewAnalyzer()

func mustJSON(v any) json.RawMessage {
	data, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return data
}

// serve-hot shape: equal numbers of v1, v2 and batch bodies and equal
// shares of each in the op sequence. No recorded request mix exists to
// derive shares from, so the mix is the plainest one that drives all three
// endpoints; README.md gives the reason for each number. The 72-body
// working set is far smaller than the 1024-entry result cache.
const (
	serveBodiesPerPath = 24
	serveBatchItems    = 4
	serveOpsPerRep     = 20000 // both clients together
	serveWarmupPasses  = 3
)

// serveHotPlan draws the working set and both clients' op sequences from
// seed. Bodies are scenario-1 requests: their solves are sub-millisecond
// and happen only while the set-up primes the cache, so set-up time does
// not depend on which factors the seed drew. /v2/analyze bodies leave the
// model selection empty, which selects the v1 pair.
func serveHotPlan(seed uint64) *plan {
	rng := rand.New(rand.NewPCG(seed, 0x5e17e))
	p := &plan{Workload: wServeHot, Seed: seed, Clients: clientCount(2)}
	seen := map[int64]bool{}
	draw := func() factor {
		for {
			n := 32768 + rng.Int64N(3*32768+1) // [0.5, 2] in 1/65536 steps
			if !seen[n] {
				seen[n] = true
				return factor{n, 65536}
			}
		}
	}
	var v1 []service.Request
	for i := 0; i < serveBodiesPerPath; i++ {
		req := scaledRequest(1, draw())
		v1 = append(v1, req)
		p.Bodies = append(p.Bodies, body{Path: pathV1, JSON: mustJSON(req)})
	}
	for i := 0; i < serveBodiesPerPath; i++ {
		req := scaledRequest(1, draw())
		p.Bodies = append(p.Bodies, body{Path: pathV2, JSON: mustJSON(service.V2Request{
			Scenario:   req.Scenario,
			Analysed:   req.Analysed,
			Contenders: req.Contenders,
		})})
	}
	for i := 0; i < serveBodiesPerPath; i++ {
		var batch service.BatchRequest
		for j := 0; j < serveBatchItems; j++ {
			batch.Requests = append(batch.Requests, v1[rng.IntN(len(v1))])
		}
		p.Bodies = append(p.Bodies, body{Path: pathBatch, JSON: mustJSON(batch)})
	}

	// The set-up primes every body, then replays the working set a few
	// more times so the timed region starts on warm connections and code.
	for pass := 0; pass < serveWarmupPasses; pass++ {
		for _, i := range rng.Perm(len(p.Bodies)) {
			p.Warmup = append(p.Warmup, body{Path: p.Bodies[i].Path, JSON: p.Bodies[i].JSON})
		}
	}

	perClient := serveOpsPerRep / p.Clients
	for c := 0; c < p.Clients; c++ {
		ops := make([]int, 0, perClient)
		for path := 0; path < 3; path++ {
			for i := 0; i < perClient/3; i++ {
				ops = append(ops, path*serveBodiesPerPath+rng.IntN(serveBodiesPerPath))
			}
		}
		rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
		p.Ops = append(p.Ops, ops)
	}
	return p
}

// analyze-cold corpus: coldLattice evenly spaced factors over [0.5, 2]
// per scenario. Factor i is (coldLattice-1 + 3i) / (2(coldLattice-1)).
// At 36 points the corpus has 10 heavy solves in 72 and one pass takes
// about 1.2 s, so a 20 s run repeats it about ten times.
const coldLattice = 36

// coldFactor is lattice point i; half shifts it by half a step, which the
// warm-up uses so it never sends a corpus request.
func coldFactor(i int, half bool) factor {
	n := int64(coldLattice - 1)
	if half {
		return factor{2*n + 6*int64(i) + 3, 4 * n}
	}
	return factor{n + 3*int64(i), 2 * n}
}

// coldWarmupStep is the half step the set-up warms the server at, for
// both scenarios, whatever the run's seed: factor 1.25, where scenario 2
// needs about 26k branch & bound nodes. One heavy solve puts set-up in
// the hundreds of milliseconds, where a few milliseconds of process and
// listener noise no longer dominate it.
const coldWarmupStep = 17

// analyzeColdCorpus is the fixed corpus: both scenarios at every lattice
// factor, scenario 1 first.
func analyzeColdCorpus() []body {
	var out []body
	for _, sc := range []int{1, 2} {
		for i := 0; i < coldLattice; i++ {
			out = append(out, body{Path: pathV1, JSON: mustJSON(scaledRequest(sc, coldFactor(i, false)))})
		}
	}
	return out
}

// analyzeColdPlan sends the whole corpus once per repetition, in an order
// drawn from seed. The factor set itself is fixed: ILP-PTAC cost is
// bimodal in the factor with no smooth pattern (scenario 2 needs either
// a few nodes or 3k-37k), so drawing the factors from the seed would make
// the heavy share a binomial variable — about ±12% at 80 draws — and
// with it every metric of the run.
func analyzeColdPlan(seed uint64) *plan {
	rng := rand.New(rand.NewPCG(seed, 0xc01d))
	p := &plan{Workload: wAnalyzeCold, Seed: seed, Clients: 1, Bodies: analyzeColdCorpus()}
	p.Ops = [][]int{rng.Perm(len(p.Bodies))}
	for _, sc := range []int{1, 2} {
		p.Warmup = append(p.Warmup, body{Path: pathV1, JSON: mustJSON(scaledRequest(sc, coldFactor(coldWarmupStep, true)))})
	}
	return p
}

// figure4OpsPerRep is the number of timed Figure 4 runs per repetition.
const figure4OpsPerRep = 6

// campaignScales is the fixed set of latency-table scalings (percent of
// the TC27x figures) campaign-jobs submits, one job each per
// repetition. Like the analyze-cold factors, the set is fixed and the
// seed only orders it, because job cost depends on the scaling in
// steps: below 100% the ILPs of these scalings solve in a few nodes (a
// job takes about 200 ms), above it scenario 2 needs 12k-27k nodes
// (330-440 ms). Three light and nine heavy jobs put the p50 and tail
// ranks well inside the heavy mode (TestCampaignRankMargins). Every
// scaling rounds to a latency table of its own (101% rounds to the base
// table the set-up job already ran).
var campaignScales = []int64{90, 92, 96, 103, 105, 107, 108, 109, 112, 114, 117, 120}

// campaignSpec is the job submission for one scaling of the default 2x3
// grid; percent 100 is the unscaled base table.
func campaignSpec(percent int64) []byte {
	grid := map[string]any{}
	if percent != 100 {
		grid["perturbations"] = []map[string]any{{"name": fmt.Sprintf("s%d", percent), "scalePercent": percent}}
	}
	return mustJSON(map[string]any{"grid": grid})
}

func campaignPlan(seed uint64) (*plan, error) {
	rng := rand.New(rand.NewPCG(seed, 0xca4a))
	var arts map[string]responseWant
	if err := loadExpected("artifacts.json", &arts); err != nil {
		return nil, err
	}
	p := &plan{Workload: wCampaign, Seed: seed, Clients: 1, OpsPerRep: len(campaignScales), WarmArt: arts["100"].SHA256}
	for _, i := range rng.Perm(len(campaignScales)) {
		s := campaignScales[i]
		want, ok := arts[fmt.Sprint(s)]
		if !ok {
			return nil, fmt.Errorf("no committed artifact hash for scaling %d%%", s)
		}
		p.Scales = append(p.Scales, s)
		p.Arts = append(p.Arts, want.SHA256)
		p.Nodes = append(p.Nodes, want.Nodes)
	}
	if p.WarmArt == "" {
		return nil, fmt.Errorf("no committed artifact hash for the base table")
	}
	return p, nil
}
