// Command perfbench is the repository benchmark: four workloads against
// wcetd (internal/service) and the campaign stack (internal/experiments,
// internal/campaign, internal/jobs), run in-process from this package.
// See README.md for why each workload exists and what each metric
// predicts. Run it from the repository root:
//
//	bash perfbench/run.sh --workload analyze-cold --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; a human summary goes to standard
// error. Every repetition runs in a fresh child process, so caches and the
// peak-RSS high-water mark cannot leak between repetitions or workloads.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/campaign"
	"repro/internal/experiments"
	"repro/internal/jobs"
	"repro/internal/platform"
)

// repSeconds is the nominal length of one repetition of each workload,
// set-up included, on a 2-core x86-64 box. A run makes
// round(--seconds / repSeconds) repetitions, at least two, so the amount
// of work follows from --seconds alone and never from a clock.
var repSeconds = map[string]float64{
	wServeHot:    2,
	wAnalyzeCold: 1.8,
	wFigure4:     3.4,
	wCampaign:    5.5,
}

// repetitions is the number of timed repetitions of an untraced run.
func repetitions(workload string, seconds int) int {
	return max(2, int(math.Round(float64(seconds)/repSeconds[workload])))
}

// setupSamples is how many set-ups a run times at least; runs with fewer
// timed repetitions add set-up-only child processes.
const setupSamples = 9

// runBudget bounds a whole run, children included.
const runBudget = 170 * time.Second

// metricSpec is one reported metric.
type metricSpec struct{ name, unit string }

var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
	{"peak_rss_mb", "MiB"},
}

// perLayer is every metric of the traced run. A layer that does no work
// on a workload reports 0 there.
var perLayer = []metricSpec{
	{"transport.us_per_req", "us"},
	{"transport.conns_dialed", "count"},
	{"handler.us_per_req", "us"},
	{"decode.us_per_req", "us"},
	{"validate.us_per_req", "us"},
	{"canon_key.us_per_req", "us"},
	{"encode.us_per_req", "us"},
	{"cache.hit_ratio", "ratio"},
	{"cache.lookups", "count"},
	{"cache.evictions", "count"},
	{"admission.rejected", "count"},
	{"model.ilpPtac.ms_per_call", "ms"},
	{"model.ftc.us_per_call", "us"},
	{"ilp.solves", "count"},
	{"ilp.nodes_per_solve", "count"},
	{"ilp.heavy_solves", "count"},
	{"ilp.cold_solve_ratio", "ratio"},
	{"lp.pivots_per_node", "count"},
	{"sim.ms_per_op", "ms"},
	{"sim.isolation_ms_per_op", "ms"},
	{"sim.corun_ms_per_op", "ms"},
	{"sim.runs_per_op", "count"},
	{"memo.isolation_hit_ratio", "ratio"},
	{"jobs.submit_ms", "ms"},
	{"jobs.cell_gap_ms", "ms"},
	{"jobs.finalize_ms", "ms"},
	{"jobs.artifact_ms", "ms"},
	{"runtime.alloc_kb_per_op", "KiB"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"trace.overhead_frac", "ratio"},
}

func main() {
	var (
		workload      = flag.String("workload", "", "workload to run: serve-hot, analyze-cold, figure4 or campaign-jobs")
		seed          = flag.Uint64("seed", defaultSeed, "input seed")
		seconds       = flag.Int("seconds", 20, "nominal run length; sets the number of repetitions")
		trace         = flag.Int("trace", 0, "1 reports the per-layer metrics of a traced run instead of the end-to-end ones")
		child         = flag.String("child", "", "run one repetition in this process: run, trace or setup (used by the parent process)")
		planPath      = flag.String("plan", "", "plan file of a child repetition")
		jobsDir       = flag.String("jobs-dir", "", "campaign-job directory of a child repetition")
		writeExpected = flag.Bool("write-expected", false, "recompute the committed expected values under perfbench/expected")
	)
	flag.Parse()
	var err error
	switch {
	case *writeExpected:
		err = writeExpectedFiles(filepath.Join("perfbench", "expected"))
	case *child != "":
		err = runChild(*child, *planPath, *jobsDir)
	default:
		err = drive(*workload, *seed, *seconds, *trace == 1)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// runChild runs one repetition and prints its repResult as JSON.
func runChild(mode, planPath, jobsDir string) error {
	data, err := os.ReadFile(planPath)
	if err != nil {
		return err
	}
	var p plan
	if err := json.Unmarshal(data, &p); err != nil {
		return fmt.Errorf("reading plan: %w", err)
	}
	if mode == "setup" {
		// A set-up-only repetition: the same set-up, no timed ops.
		p.Ops = make([][]int, len(p.Ops))
		p.Scales, p.Arts, p.OpsPerRep = nil, nil, 0
	}
	traced := mode == "trace"
	var res *repResult
	switch p.Workload {
	case wServeHot, wAnalyzeCold:
		res, err = runRequests(&p, traced)
	case wFigure4:
		res, err = runFigure4(&p, traced)
	case wCampaign:
		res, err = runCampaignJobs(&p, traced, jobsDir)
	default:
		err = fmt.Errorf("unknown workload %q", p.Workload)
	}
	if err != nil {
		return err
	}
	if mode == "setup" {
		res.Failed, res.Errors = 0, nil // whole-run checks need timed ops
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}

// repetition is one child's result plus what the parent measured of it.
type repetition struct {
	mode string
	res  repResult
	// rssMiB is the child's peak resident set.
	rssMiB float64
}

func drive(workload string, seed uint64, seconds int, trace bool) error {
	if _, ok := repSeconds[workload]; !ok {
		return fmt.Errorf("unknown workload %q (want serve-hot, analyze-cold, figure4 or campaign-jobs)", workload)
	}
	if seconds < 1 {
		return fmt.Errorf("--seconds must be positive, got %d", seconds)
	}
	p, err := buildPlan(workload, seed)
	if err != nil {
		return err
	}
	work := filepath.Join(".bench_build", "perfbench")
	if err := os.MkdirAll(work, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(work, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	planPath := filepath.Join(dir, "plan.json")
	data, err := json.Marshal(p)
	if err != nil {
		return err
	}
	if err := os.WriteFile(planPath, data, 0o644); err != nil {
		return err
	}

	reps := repetitions(workload, seconds)
	var modes []string
	if trace {
		// Untraced and traced repetitions alternate; the untraced ones
		// are the baseline of trace.overhead_frac.
		for i := 0; i < max(1, reps/2); i++ {
			modes = append(modes, "run", "trace")
		}
	} else {
		for i := 0; i < reps; i++ {
			modes = append(modes, "run")
		}
		for len(modes) < setupSamples {
			modes = append(modes, "setup")
		}
	}

	self, err := os.Executable()
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), runBudget)
	defer cancel()
	var got []repetition
	for i, mode := range modes {
		cmd := exec.CommandContext(ctx, self, "--child", mode, "--plan", planPath,
			"--jobs-dir", filepath.Join(dir, fmt.Sprintf("jobs-%d", i)))
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("repetition %d (%s): %w", i, mode, err)
		}
		var r repetition
		r.mode = mode
		if err := json.Unmarshal(lastLine(out), &r.res); err != nil {
			return fmt.Errorf("repetition %d (%s): %w", i, mode, err)
		}
		if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
			r.rssMiB = float64(ru.Maxrss) / 1024 // Maxrss is in KiB on Linux
		}
		got = append(got, r)
	}
	return report(p, got, trace)
}

func lastLine(out []byte) []byte {
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	return lines[len(lines)-1]
}

// errFailed makes the command exit nonzero after printing its result.
var errFailed = errors.New("failed ops or output checks; see above")

// report aggregates the repetitions, prints the summary to standard error
// and the result line to standard output.
func report(p *plan, reps []repetition, trace bool) error {
	attempted, failed := 0, 0
	var setups, opsPerS, tracedOpsPerS, rss []float64
	var lat []float64
	layers := map[string][]float64{}
	for _, r := range reps {
		attempted += r.res.Attempted
		failed += r.res.Failed
		for _, e := range r.res.Errors {
			fmt.Fprintf(os.Stderr, "perfbench: %s: FAILED: %s\n", r.mode, e)
		}
		setups = append(setups, r.res.SetupS)
		if r.mode == "setup" {
			continue
		}
		rate := float64(r.res.Attempted-r.res.Failed) / r.res.WallS
		if r.mode == "trace" {
			tracedOpsPerS = append(tracedOpsPerS, rate)
			for k, v := range r.res.Layers {
				layers[k] = append(layers[k], v)
			}
			continue
		}
		opsPerS = append(opsPerS, rate)
		rss = append(rss, r.rssMiB)
		lat = append(lat, r.res.LatMs...)
	}
	if attempted == 0 {
		return fmt.Errorf("no ops attempted")
	}

	metrics := map[string]map[string]any{}
	put := func(m metricSpec, v float64) {
		metrics[m.name] = map[string]any{"value": v, "unit": m.unit}
	}
	sort.Float64s(lat)
	tailP := tailPercentile(len(lat))
	if trace {
		layers["trace.overhead_frac"] = []float64{1 - median(tracedOpsPerS)/median(opsPerS)}
		for _, m := range perLayer {
			put(m, median(layers[m.name]))
		}
	} else {
		for i, v := range []float64{median(setups), median(opsPerS), percentile(lat, 50), percentile(lat, tailP), median(rss)} {
			put(endToEnd[i], v)
		}
	}

	fmt.Fprintf(os.Stderr, "perfbench: %s seed=%d trace=%v repetitions=%d set-ups=%d ops=%d failed=%d\n",
		p.Workload, p.Seed, trace, len(reps)-countMode(reps, "setup"), len(setups), attempted, failed)
	fmt.Fprintf(os.Stderr, "perfbench: latency samples=%d p50=%.3fms tail=p%d %.3fms\n",
		len(lat), percentile(lat, 50), tailP, percentile(lat, tailP))
	fmt.Fprintf(os.Stderr, "perfbench: ops/s per repetition %.5g, set-up seconds %.4g\n", opsPerS, setups)
	if len(p.Nodes) > 0 {
		heavy := 0
		for _, n := range p.Nodes {
			if n > heavySolveNodes {
				heavy++
			}
		}
		fmt.Fprintf(os.Stderr, "perfbench: composition: %d of %d ops need over %d branch & bound nodes (committed counts)\n",
			heavy, len(p.Nodes), heavySolveNodes)
	}
	keys := make([]string, 0, len(metrics))
	for k := range metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(os.Stderr, "perfbench:   %-28s %14.6g %s\n", k, metrics[k]["value"], metrics[k]["unit"])
	}

	out, err := json.Marshal(map[string]any{
		"correct":   failed == 0,
		"attempted": attempted,
		"failed":    failed,
		"metrics":   metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	if failed > 0 {
		return errFailed
	}
	return nil
}

func countMode(reps []repetition, mode string) int {
	n := 0
	for _, r := range reps {
		if r.mode == mode {
			n++
		}
	}
	return n
}

// minBeyond is how many samples must lie above the tail percentile.
const minBeyond = 10

// tailPercentile is the highest whole percentile below 100 with at least
// minBeyond of n samples above its nearest-rank position.
func tailPercentile(n int) int {
	for p := 99; p > 50; p-- {
		if n-nearestRank(p, n) >= minBeyond {
			return p
		}
	}
	return 50
}

func nearestRank(p, n int) int {
	return max(1, int(math.Ceil(float64(p)/100*float64(n))))
}

// percentile is the nearest-rank percentile of sorted samples; a failed
// op's sample (negative) ranks above every measured one.
func percentile(sorted []float64, p int) float64 {
	if len(sorted) == 0 {
		return 0
	}
	ok := sorted
	for len(ok) > 0 && ok[0] < 0 {
		ok = ok[1:]
	}
	rank := nearestRank(p, len(sorted))
	if rank > len(ok) {
		return math.MaxFloat64
	}
	return ok[rank-1]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// writeExpectedFiles recomputes the committed expected values: the
// analyze-cold corpus and default-seed serve-hot responses with their
// node counts, the campaign artifacts, and the Figure 4 ratios recorded
// in BENCH_10.json at the repository root.
func writeExpectedFiles(dir string) error {
	responses := map[string]responseWant{}
	for _, b := range analyzeColdCorpus() {
		before := readSolver()
		resp, err := expectedResponse(b)
		if err != nil {
			return err
		}
		responses[b.key()] = responseWant{SHA256: hashHex(resp), Nodes: int64(readSolver().nodes - before.nodes)}
	}
	for _, b := range serveHotPlan(defaultSeed).Bodies {
		resp, err := expectedResponse(b)
		if err != nil {
			return err
		}
		responses[b.key()] = responseWant{SHA256: hashHex(resp)}
	}
	arts := map[string]responseWant{}
	for _, s := range append([]int64{100}, campaignScales...) {
		before := readSolver()
		data, err := sweepArtifact(s)
		if err != nil {
			return err
		}
		arts[fmt.Sprint(s)] = responseWant{SHA256: hashHex(data), Nodes: int64(readSolver().nodes - before.nodes)}
	}
	fig, err := bench10Figure4("BENCH_10.json")
	if err != nil {
		return err
	}
	for name, v := range map[string]any{"responses.json": responses, "artifacts.json": arts, "figure4.json": fig} {
		data, err := json.MarshalIndent(v, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dir, name), append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// sweepArtifact is the artifact a campaign job at percent must produce:
// Runner.Sweep over the same compiled grid, encoded by EncodeArtifact.
func sweepArtifact(percent int64) ([]byte, error) {
	var spec jobs.Spec
	if err := json.Unmarshal(campaignSpec(percent), &spec); err != nil {
		return nil, err
	}
	grid, err := spec.Grid.Compile(nil, nil)
	if err != nil {
		return nil, err
	}
	pts, err := experiments.NewRunner(campaign.New(engineWidth())).Sweep(context.Background(), platform.TC27xLatencies(), grid)
	if err != nil {
		return nil, err
	}
	return experiments.EncodeArtifact(experiments.WirePoints(pts))
}

// bench10Figure4 reads the Figure 4 ratios of BENCH_10.json.
func bench10Figure4(path string) (map[string]figure4Want, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc struct {
		Benchmarks map[string]struct {
			Metrics figure4Want `json:"metrics"`
		} `json:"benchmarks"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, err
	}
	out := map[string]figure4Want{}
	for name, b := range doc.Benchmarks {
		if cell, ok := strings.CutPrefix(name, "BenchmarkFigure4/"); ok {
			out[cell] = b.Metrics
		}
	}
	return out, nil
}
