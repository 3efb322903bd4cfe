package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"repro/internal/campaign"
	"repro/internal/service"
	"repro/wcet"
)

// runRequests runs one repetition of serve-hot or analyze-cold: a fresh
// server on loopback, the plan's warm-up, then every client replays its
// op sequence in a closed loop.
func runRequests(p *plan, traced bool) (*repResult, error) {
	res := &repResult{}
	t0 := time.Now()
	var (
		reg *wcet.Registry
		mt  *modelTimer
	)
	if traced {
		reg, mt = timedRegistry()
	}
	srv, err := startServer(service.Config{Workers: engineWidth(), Registry: reg}, campaign.New(engineWidth()))
	if err != nil {
		return nil, err
	}
	cl := newClient(p.Clients)
	for i, b := range p.Warmup {
		if _, status, err := cl.do(http.MethodPost, srv.url+b.Path, b.JSON); err != nil || status != http.StatusOK {
			return nil, fmt.Errorf("warm-up request %d: status %d, err %v", i, status, err)
		}
	}
	res.SetupS = time.Since(t0).Seconds()

	// Per-client results, merged after the loop.
	type clientOut struct {
		lat    []float64
		failed []string
		resps  map[int][]byte // traced: a served response per body
	}
	outs := make([]clientOut, p.Clients)
	if traced {
		mt.reset()
	}
	stats0, rt0, sv0 := srv.srv.StatsSnapshot(), readRuntime(), readSolver()
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < p.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			out := &outs[c]
			out.lat = make([]float64, 0, len(p.Ops[c]))
			out.resps = map[int][]byte{}
			for _, idx := range p.Ops[c] {
				b := p.Bodies[idx]
				t := time.Now()
				data, status, err := cl.do(http.MethodPost, srv.url+b.Path, b.JSON)
				d := time.Since(t)
				ms := float64(d.Nanoseconds()) / 1e6
				switch {
				case err != nil:
					out.failed, ms = append(out.failed, fmt.Sprintf("body %d: %v", idx, err)), failedOp
				case status != http.StatusOK:
					out.failed, ms = append(out.failed, fmt.Sprintf("body %d: status %d: %s", idx, status, data)), failedOp
				case hashHex(data) != b.Want:
					out.failed, ms = append(out.failed, fmt.Sprintf("body %d: response differs from the expected one", idx)), failedOp
				}
				out.lat = append(out.lat, ms)
				if traced {
					out.resps[idx] = data
				}
			}
		}(c)
	}
	wg.Wait()
	res.WallS = time.Since(start).Seconds()
	stats1, rt1, sv1 := srv.srv.StatsSnapshot(), readRuntime(), readSolver()

	resps := map[int][]byte{}
	for _, out := range outs {
		for idx, data := range out.resps {
			resps[idx] = data
		}
		res.LatMs = append(res.LatMs, out.lat...)
		res.Attempted += len(out.lat)
		for _, f := range out.failed {
			res.fail("%s", f)
		}
	}

	// Whole-run checks: the workload did the work it exists to measure.
	hits, misses := stats1.Cache.Hits-stats0.Cache.Hits, stats1.Cache.Misses-stats0.Cache.Misses
	switch p.Workload {
	case wServeHot:
		if misses != 0 {
			res.fail("serve-hot: %d cache misses in the timed region; the working set must be all hits", misses)
		}
	case wAnalyzeCold:
		if hits != 0 || misses != int64(res.Attempted) {
			res.fail("analyze-cold: %d hits and %d misses for %d unique requests", hits, misses, res.Attempted)
		}
		if sv1.nodes-sv0.nodes <= 0 {
			res.fail("analyze-cold: no branch & bound nodes in the timed region")
		}
	}
	if dials := cl.dials.Load(); dials != int64(p.Clients) {
		res.fail("%d connections dialed for %d closed-loop clients", dials, p.Clients)
	}

	if traced {
		l := map[string]float64{}
		l["transport.conns_dialed"] = float64(cl.dials.Load())
		if p.Workload == wServeHot {
			// On analyze-cold an in-process replay would hit the cache
			// for requests whose round trip solved, so only serve-hot
			// splits transport from handler.
			handlerUs := replayInProcess(p, srv.srv.Handler())
			var rtMs float64
			for _, ms := range res.LatMs {
				rtMs += ms
			}
			l["handler.us_per_req"] = handlerUs
			l["transport.us_per_req"] = rtMs*1e3/float64(len(res.LatMs)) - handlerUs
		}
		if lookups := hits + misses; lookups > 0 {
			l["cache.hit_ratio"] = float64(hits) / float64(lookups)
			l["cache.lookups"] = float64(lookups)
		}
		l["cache.evictions"] = float64(stats1.Cache.Evictions - stats0.Cache.Evictions)
		l["admission.rejected"] = float64(stats1.RejectedOverload - stats0.RejectedOverload)
		addRuntimeLayers(l, rt0, rt1, res.Attempted)
		addSolverLayers(l, sv0, sv1)
		mt.addLayers(l)
		if err := requestPathLayers(l, p, reg, resps); err != nil {
			return nil, err
		}
		res.Layers = l
	}
	cl.close()
	if err := srv.stop(); err != nil {
		return nil, fmt.Errorf("server shutdown: %w", err)
	}
	return res, nil
}

// replayInProcess replays every client's op sequence, with the same
// concurrency, through the server's handler in-process, and returns the
// mean handler time per request in microseconds. The round trip minus
// this is what transport costs.
func replayInProcess(p *plan, h http.Handler) float64 {
	ns := make([]int64, p.Clients)
	var wg sync.WaitGroup
	for c := 0; c < p.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for _, idx := range p.Ops[c] {
				b := p.Bodies[idx]
				req := httptest.NewRequest(http.MethodPost, b.Path, bytes.NewReader(b.JSON))
				rec := httptest.NewRecorder()
				t := time.Now()
				h.ServeHTTP(rec, req)
				ns[c] += time.Since(t).Nanoseconds()
			}
		}(c)
	}
	wg.Wait()
	var total int64
	ops := 0
	for c := range ns {
		total += ns[c]
		ops += len(p.Ops[c])
	}
	return float64(total) / 1e3 / float64(ops)
}

// requestPathLayers times the request path's public functions, one call
// at a time, on the plan's v1 and v2 bodies: decode, validate, canonical
// key, and encoding of the response the server returned for the body.
func requestPathLayers(l map[string]float64, p *plan, reg *wcet.Registry, resps map[int][]byte) error {
	const rounds = 20
	var decodeNs, validateNs, canonNs, encodeNs, calls int64
	timed := func(acc *int64, fn func() error) error {
		t := time.Now()
		err := fn()
		*acc += time.Since(t).Nanoseconds()
		return err
	}
	for i, b := range p.Bodies {
		resp, ok := resps[i]
		if !ok || b.Path == pathBatch {
			continue
		}
		var err error
		for r := 0; r < rounds; r++ {
			calls++
			switch b.Path {
			case pathV1:
				var req service.Request
				var out service.Response
				err = firstErr(
					timed(&decodeNs, func() (err error) { req, err = service.DecodeRequest(bytes.NewReader(b.JSON)); return }),
					timed(&validateNs, func() error { return req.Validate() }),
					timed(&canonNs, func() error { _ = service.CanonicalKey(req); return nil }),
					json.Unmarshal(resp, &out),
					timed(&encodeNs, func() error { return service.EncodeJSON(io.Discard, &out) }),
				)
			case pathV2:
				var req service.V2Request
				var out service.V2Response
				err = firstErr(
					timed(&decodeNs, func() (err error) { req, err = service.DecodeV2Request(bytes.NewReader(b.JSON)); return }),
					timed(&validateNs, func() error { _, err := req.Prepare(reg); return err }),
					timed(&canonNs, func() error { _ = service.CanonicalKeyV2(reg, req); return nil }),
					json.Unmarshal(resp, &out),
					timed(&encodeNs, func() error { return service.EncodeJSON(io.Discard, &out) }),
				)
			}
			if err != nil {
				return fmt.Errorf("request path layers: %w", err)
			}
		}
	}
	if calls > 0 {
		l["decode.us_per_req"] = float64(decodeNs) / 1e3 / float64(calls)
		l["validate.us_per_req"] = float64(validateNs) / 1e3 / float64(calls)
		l["canon_key.us_per_req"] = float64(canonNs) / 1e3 / float64(calls)
		l["encode.us_per_req"] = float64(encodeNs) / 1e3 / float64(calls)
	}
	return nil
}

func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
