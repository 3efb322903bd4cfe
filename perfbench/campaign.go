package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/campaign"
	"repro/internal/experiments"
	"repro/internal/platform"
	"repro/internal/service"
	"repro/wcet"
)

// runFigure4 runs one figure4 repetition. Set-up regenerates Figure 4 once,
// so the process-wide estimate cache holds every cell's solve; each op then
// regenerates it on a fresh engine, which re-simulates isolation and
// co-run but serves the bounds from that cache.
func runFigure4(p *plan, traced bool) (*repResult, error) {
	ctx := context.Background()
	lat := platform.TC27xLatencies()
	res := &repResult{}
	t0 := time.Now()
	rows, err := experiments.NewRunner(campaign.New(engineWidth())).Figure4(ctx, lat)
	if err != nil {
		return nil, fmt.Errorf("set-up Figure 4: %w", err)
	}
	if err := checkFigure4(rows, p.Figure4); err != nil {
		return nil, fmt.Errorf("set-up Figure 4: %w", err)
	}
	res.SetupS = time.Since(t0).Seconds()

	var isoNs, opNs, runs, hits, misses int64
	rt0, sv0 := readRuntime(), readSolver()
	start := time.Now()
	for op := 0; op < p.OpsPerRep; op++ {
		eng := campaign.New(engineWidth())
		t := time.Now()
		rows, err := experiments.NewRunner(eng).Figure4(ctx, lat)
		d := time.Since(t)
		st := eng.Stats()
		if err == nil {
			err = checkFigure4(rows, p.Figure4)
		}
		if err == nil && st.IsolationMisses == 0 {
			err = errors.New("no isolation simulation on a fresh engine")
		}
		res.op(d, err)
		opNs += d.Nanoseconds()
		runs, hits, misses = runs+st.SimRuns, hits+st.IsolationHits, misses+st.IsolationMisses
	}
	res.WallS = time.Since(start).Seconds()
	rt1, sv1 := readRuntime(), readSolver()

	if traced {
		// The same grid as a sweep runs only the isolation half.
		for op := 0; op < p.OpsPerRep; op++ {
			t := time.Now()
			if _, err := experiments.NewRunner(campaign.New(engineWidth())).Sweep(ctx, lat, experiments.Grid{}); err != nil {
				return nil, fmt.Errorf("isolation sweep: %w", err)
			}
			isoNs += time.Since(t).Nanoseconds()
		}
		l := map[string]float64{}
		n := float64(p.OpsPerRep)
		// Every bound of an op comes from the estimate cache (ilp.solves
		// reads 0), so the op is simulation end to end.
		l["sim.ms_per_op"] = float64(opNs) / 1e6 / n
		l["sim.isolation_ms_per_op"] = float64(isoNs) / 1e6 / n
		l["sim.corun_ms_per_op"] = float64(opNs-isoNs) / 1e6 / n
		l["sim.runs_per_op"] = float64(runs) / n
		if hits+misses > 0 {
			l["memo.isolation_hit_ratio"] = float64(hits) / float64(hits+misses)
		}
		addRuntimeLayers(l, rt0, rt1, p.OpsPerRep)
		addSolverLayers(l, sv0, sv1)
		res.Layers = l
	}
	return res, nil
}

// figure4Key names a Figure 4 cell as BENCH_10.json does.
func figure4Key(r experiments.Figure4Row) string {
	return fmt.Sprintf("scenario%d/%s", r.Scenario, r.Level)
}

// checkFigure4 compares each cell's three ratios with the recorded
// values at the 4 significant digits BENCH_10.json keeps.
func checkFigure4(rows []experiments.Figure4Row, want map[string]figure4Want) error {
	if len(rows) != len(want) {
		return fmt.Errorf("%d Figure 4 cells, want %d", len(rows), len(want))
	}
	round := func(x float64) float64 {
		v, _ := strconv.ParseFloat(strconv.FormatFloat(x, 'g', 4, 64), 64)
		return v
	}
	for _, r := range rows {
		w, ok := want[figure4Key(r)]
		got := figure4Want{Observed: round(r.ObservedRatio()), ILP: round(r.ILP.Ratio()), FTC: round(r.FTC.Ratio())}
		if !ok || got != w {
			return fmt.Errorf("cell %s: ratios %+v, want %+v", figure4Key(r), got, w)
		}
	}
	return nil
}

// runCampaignJobs runs one campaign-jobs repetition: a fresh server with
// a jobs directory of its own; set-up runs one job on the base table,
// then each op is one job on a scaling the process has not seen.
func runCampaignJobs(p *plan, traced bool, jobsDir string) (*repResult, error) {
	res := &repResult{}
	t0 := time.Now()
	var (
		reg *wcet.Registry
		mt  *modelTimer
	)
	if traced {
		reg, mt = timedRegistry()
	}
	eng := campaign.New(engineWidth())
	srv, err := startServer(service.Config{Workers: engineWidth(), Registry: reg, JobsDir: jobsDir}, eng)
	if err != nil {
		return nil, err
	}
	cl := newClient(1)
	if _, err := runJob(cl, srv.url, 100, p.WarmArt); err != nil {
		return nil, fmt.Errorf("set-up job: %w", err)
	}
	res.SetupS = time.Since(t0).Seconds()

	var submitNs, gapNs, finalizeNs, artifactNs, opNs, modelNs, gaps int64
	var runs, hits, misses int64
	if traced {
		mt.reset()
	}
	rt0, sv0 := readRuntime(), readSolver()
	start := time.Now()
	for i, s := range p.Scales {
		st0 := eng.Stats()
		var model0 int64
		if traced {
			model0 = mt.modelWall()
		}
		t := time.Now()
		tm, err := runJob(cl, srv.url, s, p.Arts[i])
		d := time.Since(t)
		st1 := eng.Stats()
		if err == nil && st1.IsolationMisses == st0.IsolationMisses {
			err = errors.New("no isolation memo misses on a new scaling")
		}
		if err != nil {
			err = fmt.Errorf("job at %d%%: %w", s, err)
		}
		res.op(d, err)
		runs += st1.SimRuns - st0.SimRuns
		hits += st1.IsolationHits - st0.IsolationHits
		misses += st1.IsolationMisses - st0.IsolationMisses
		opNs += d.Nanoseconds()
		if traced {
			modelNs += mt.modelWall() - model0
			submitNs += tm.submit.Nanoseconds()
			finalizeNs += tm.finalize.Nanoseconds()
			artifactNs += tm.artifact.Nanoseconds()
			for _, g := range tm.gaps {
				gapNs += g.Nanoseconds()
			}
			gaps += int64(len(tm.gaps))
		}
	}
	res.WallS = time.Since(start).Seconds()
	rt1, sv1 := readRuntime(), readSolver()
	if sv1.nodes-sv0.nodes <= 0 {
		res.fail("campaign-jobs: no branch & bound nodes in the timed region")
	}
	if dials := cl.dials.Load(); dials != 1 {
		res.fail("%d connections dialed for one closed-loop client", dials)
	}

	if traced {
		l := map[string]float64{}
		n := float64(len(p.Scales))
		l["transport.conns_dialed"] = float64(cl.dials.Load())
		l["jobs.submit_ms"] = float64(submitNs) / 1e6 / n
		if gaps > 0 {
			l["jobs.cell_gap_ms"] = float64(gapNs) / 1e6 / float64(gaps)
		}
		l["jobs.finalize_ms"] = float64(finalizeNs) / 1e6 / n
		l["jobs.artifact_ms"] = float64(artifactNs) / 1e6 / n
		l["sim.ms_per_op"] = float64(opNs-modelNs) / 1e6 / n
		l["sim.runs_per_op"] = float64(runs) / n
		if hits+misses > 0 {
			l["memo.isolation_hit_ratio"] = float64(hits) / float64(hits+misses)
		}
		addRuntimeLayers(l, rt0, rt1, len(p.Scales))
		addSolverLayers(l, sv0, sv1)
		mt.addLayers(l)
		res.Layers = l
	}
	cl.close()
	if err := srv.stop(); err != nil {
		return nil, fmt.Errorf("server shutdown: %w", err)
	}
	return res, nil
}

// jobTimes splits one job's latency along the jobs pipeline as the client
// sees it.
type jobTimes struct {
	submit   time.Duration   // POST /v2/campaigns round trip
	gaps     []time.Duration // between consecutive SSE cell events
	finalize time.Duration   // last cell event to the terminal event
	artifact time.Duration   // GET artifact plus verification
}

// runJob submits one job, follows its SSE stream to the terminal event
// and verifies the artifact against wantArt.
func runJob(cl *client, url string, percent int64, wantArt string) (jobTimes, error) {
	var tm jobTimes
	t := time.Now()
	data, status, err := cl.do(http.MethodPost, url+"/v2/campaigns", campaignSpec(percent))
	tm.submit = time.Since(t)
	if err != nil || status != http.StatusAccepted {
		return tm, fmt.Errorf("submit: status %d, err %v: %s", status, err, data)
	}
	var job struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(data, &job); err != nil || job.ID == "" {
		return tm, fmt.Errorf("submit: no job id in %s", data)
	}

	resp, err := cl.http.Get(url + "/v2/campaigns/" + job.ID + "/stream")
	if err != nil {
		return tm, fmt.Errorf("stream: %w", err)
	}
	events, err := readSSE(resp.Body)
	resp.Body.Close()
	if err != nil {
		return tm, fmt.Errorf("stream: %w", err)
	}
	var last time.Time
	var final *sseEvent
	for i := range events {
		ev := &events[i]
		switch ev.name {
		case "cell":
			if !last.IsZero() {
				tm.gaps = append(tm.gaps, ev.at.Sub(last))
			}
			last = ev.at
		case "state":
			final = ev
			if !last.IsZero() {
				tm.finalize = ev.at.Sub(last)
			}
		}
	}
	if final == nil || !strings.Contains(final.data, `"state":"done"`) {
		return tm, fmt.Errorf("stream ended without a done state")
	}

	t = time.Now()
	art, status, err := cl.do(http.MethodGet, url+"/v2/campaigns/"+job.ID+"/artifact", nil)
	ok := err == nil && status == http.StatusOK && hashHex(art) == wantArt
	tm.artifact = time.Since(t)
	if !ok {
		return tm, fmt.Errorf("artifact: status %d, err %v, or content differs from Runner.Sweep's", status, err)
	}
	return tm, nil
}

// sseEvent is one dispatched server-sent event with its arrival time.
type sseEvent struct {
	name, data string
	at         time.Time
}

// readSSE reads an event stream to EOF.
func readSSE(r io.Reader) ([]sseEvent, error) {
	var out []sseEvent
	var cur sseEvent
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if cur.name != "" {
				cur.at = time.Now()
				out = append(out, cur)
			}
			cur = sseEvent{}
		case strings.HasPrefix(line, "event: "):
			cur.name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = strings.TrimPrefix(line, "data: ")
		}
	}
	return out, sc.Err()
}
