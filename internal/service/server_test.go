package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

func newTestServer(t testing.TB, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := newServer(t, cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// newServer builds a Server that is shut down when the test ends. Every
// Server runs a metrics-history sampler; left running, the samplers of
// earlier tests pile up and slow every later one, most visibly under
// -race -count=N.
func newServer(t testing.TB, cfg Config) *Server {
	t.Helper()
	s := New(cfg, nil)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return s
}

func post(t testing.TB, url string, body []byte) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, buf.Bytes()
}

// TestSingleEndpointByteIdenticalToCLI is the drift gate: for the same
// request, wcetd's single-estimate endpoint and cmd/wcet's stdout must be
// byte-for-byte equal — on a cache miss and on the subsequent hit.
func TestSingleEndpointByteIdenticalToCLI(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	reqs := []Request{sampleRequest(0), sampleRequest(1), rtaRequest()}
	exact := sampleRequest(2)
	exact.StallMode = "exact"
	exact.DropContenderInfo = true
	reqs = append(reqs, exact)

	for i, req := range reqs {
		body := encodeRequest(t, req)
		var cli bytes.Buffer
		if err := RunCLI(bytes.NewReader(body), &cli); err != nil {
			t.Fatalf("req %d: CLI: %v", i, err)
		}
		for pass, label := range []string{"cold", "warm"} {
			status, got := post(t, ts.URL+"/v1/wcet", body)
			if status != http.StatusOK {
				t.Fatalf("req %d (%s): status %d: %s", i, label, status, got)
			}
			if !bytes.Equal(got, cli.Bytes()) {
				t.Errorf("req %d (pass %d): daemon body differs from CLI\ndaemon: %s\ncli: %s", i, pass, got, cli.Bytes())
			}
		}
	}
}

func TestSingleEndpointErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	bad := sampleRequest(0)
	bad.Scenario = 7
	status, body := post(t, ts.URL+"/v1/wcet", encodeRequest(t, bad))
	if status != http.StatusBadRequest {
		t.Errorf("invalid scenario: status %d, want 400", status)
	}
	var e errorBody
	if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
		t.Errorf("error body %q not a JSON error", body)
	}

	if status, _ := post(t, ts.URL+"/v1/wcet", []byte(`{"scenario":1,"nope":1}`)); status != http.StatusBadRequest {
		t.Errorf("unknown field: status %d, want 400", status)
	}

	resp, err := http.Get(ts.URL + "/v1/wcet")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET: status %d, want 405", resp.StatusCode)
	}
}

func TestBatchOrderAndPartialErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	good0, good1 := sampleRequest(0), sampleRequest(1)
	bad := sampleRequest(2)
	bad.Analysed.PS = -1

	body, err := json.Marshal(BatchRequest{Requests: []Request{good0, bad, good1}})
	if err != nil {
		t.Fatal(err)
	}
	status, out := post(t, ts.URL+"/v1/batch", body)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, out)
	}
	var batch BatchResponse
	if err := json.Unmarshal(out, &batch); err != nil {
		t.Fatal(err)
	}
	if len(batch.Results) != 3 {
		t.Fatalf("got %d results, want 3", len(batch.Results))
	}
	if batch.Results[0].Response == nil || batch.Results[2].Response == nil {
		t.Fatal("valid cells failed")
	}
	if batch.Results[1].Error == "" || batch.Results[1].Response != nil {
		t.Fatalf("invalid cell not reported: %+v", batch.Results[1])
	}
	// Input order: results must correspond to their requests.
	if got := batch.Results[0].Response.FTC.IsolationCycles; got != good0.Analysed.CCNT {
		t.Errorf("result 0 isolation %d, want %d", got, good0.Analysed.CCNT)
	}
	if got := batch.Results[2].Response.FTC.IsolationCycles; got != good1.Analysed.CCNT {
		t.Errorf("result 2 isolation %d, want %d", got, good1.Analysed.CCNT)
	}
}

func TestCacheHitAccounting(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	body := encodeRequest(t, sampleRequest(0))

	post(t, ts.URL+"/v1/wcet", body)
	st := s.StatsSnapshot()
	if st.Cache.Hits != 0 || st.Cache.Misses != 1 || st.Cache.Entries != 1 {
		t.Fatalf("after first request: %+v", st.Cache)
	}

	post(t, ts.URL+"/v1/wcet", body)
	st = s.StatsSnapshot()
	if st.Cache.Hits != 1 || st.Cache.Misses != 1 {
		t.Fatalf("after repeat request: %+v", st.Cache)
	}

	// A batch of the same request plus one new one: one more miss, the
	// duplicates all hit (or dedup onto the in-flight solve).
	batchBody, err := json.Marshal(BatchRequest{Requests: []Request{
		sampleRequest(0), sampleRequest(0), sampleRequest(3),
	}})
	if err != nil {
		t.Fatal(err)
	}
	status, out := post(t, ts.URL+"/v1/batch", batchBody)
	if status != http.StatusOK {
		t.Fatalf("batch status %d: %s", status, out)
	}
	st = s.StatsSnapshot()
	if st.Cache.Misses+st.Cache.Dedup < 2 || st.Cache.Hits < 3 {
		t.Errorf("after batch: %+v", st.Cache)
	}
	if st.SingleRequests != 2 || st.BatchRequests != 1 || st.BatchItems != 3 {
		t.Errorf("request counters: %+v", st)
	}

	// The stats endpoint serves the same snapshot.
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var wire Stats
	if err := json.NewDecoder(resp.Body).Decode(&wire); err != nil {
		t.Fatal(err)
	}
	if wire.Cache.Misses != st.Cache.Misses || wire.Cache.Hits < st.Cache.Hits {
		t.Errorf("stats endpoint %+v inconsistent with snapshot %+v", wire.Cache, st.Cache)
	}
	if wire.Workers <= 0 || wire.MaxInFlight <= 0 {
		t.Errorf("stats missing configuration: %+v", wire)
	}
}

// TestConcurrentBatchHammer fires 64 concurrent batch requests (the
// acceptance bar) at one server and asserts every response is
// byte-identical to the serially-computed reference for its variant —
// deterministic results under full concurrency, race detector on in CI.
func TestConcurrentBatchHammer(t *testing.T) {
	const clients = 64
	const variants = 4
	s, ts := newTestServer(t, Config{MaxInFlight: clients, QueueDepth: clients})

	// Each variant is a batch mixing unique and duplicate requests.
	bodies := make([][]byte, variants)
	refs := make([][]byte, variants)
	for v := 0; v < variants; v++ {
		batch := BatchRequest{Requests: []Request{
			sampleRequest(v), sampleRequest(v + 1), sampleRequest(v), rtaRequest(),
		}}
		b, err := json.Marshal(batch)
		if err != nil {
			t.Fatal(err)
		}
		bodies[v] = b
		status, ref := post(t, ts.URL+"/v1/batch", b)
		if status != http.StatusOK {
			t.Fatalf("variant %d reference: status %d: %s", v, status, ref)
		}
		refs[v] = ref
	}

	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			v := c % variants
			resp, err := http.Post(ts.URL+"/v1/batch", "application/json", bytes.NewReader(bodies[v]))
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			var buf bytes.Buffer
			if _, err := buf.ReadFrom(resp.Body); err != nil {
				errs <- err
				return
			}
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("client %d: status %d: %s", c, resp.StatusCode, buf.Bytes())
				return
			}
			if !bytes.Equal(buf.Bytes(), refs[v]) {
				errs <- fmt.Errorf("client %d: response differs from reference\ngot: %s\nwant: %s", c, buf.Bytes(), refs[v])
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	st := s.StatsSnapshot()
	if st.RejectedOverload != 0 {
		t.Errorf("rejected %d requests despite capacity", st.RejectedOverload)
	}
	// Only the reference pass can miss; all 64 hammer batches (256 items)
	// must be served from the cache.
	if st.Cache.Hits < clients*4 {
		t.Errorf("cache hits %d, want >= %d: %+v", st.Cache.Hits, clients*4, st.Cache)
	}
}

func TestAdmissionOverload(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxInFlight: 1, QueueDepth: 0})

	// Occupy the only slot.
	release, err := s.admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer release()

	status, body := post(t, ts.URL+"/v1/wcet", encodeRequest(t, sampleRequest(0)))
	if status != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429: %s", status, body)
	}
	if st := s.StatsSnapshot(); st.RejectedOverload != 1 {
		t.Errorf("rejectedOverload = %d, want 1", st.RejectedOverload)
	}

	// Cache hits must bypass admission even while saturated: warm the
	// cache with the slot free, re-saturate, and repeat the request.
	release()
	if status, _ := post(t, ts.URL+"/v1/wcet", encodeRequest(t, sampleRequest(0))); status != http.StatusOK {
		t.Fatalf("warming request failed: %d", status)
	}
	release, err = s.admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	if status, _ := post(t, ts.URL+"/v1/wcet", encodeRequest(t, sampleRequest(0))); status != http.StatusOK {
		t.Errorf("cache hit rejected while saturated: %d", status)
	}
}

func TestBodyAndBatchLimits(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBodyBytes: 2048, MaxBatchItems: 2})

	// Oversized body: rejected with 413 before any evaluation.
	big := encodeRequest(t, sampleRequest(0))
	big = append(big[:len(big)-1], bytes.Repeat([]byte(" "), 4096)...)
	big = append(big, '}')
	if status, _ := post(t, ts.URL+"/v1/wcet", big); status != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized single body: status %d, want 413", status)
	}

	// Over-long batch: rejected with 413 before admission.
	batch := BatchRequest{Requests: []Request{sampleRequest(0), sampleRequest(1), sampleRequest(2)}}
	body, err := json.Marshal(batch)
	if err != nil {
		t.Fatal(err)
	}
	status, out := post(t, ts.URL+"/v1/batch", body)
	if status != http.StatusRequestEntityTooLarge {
		t.Errorf("over-long batch: status %d, want 413: %s", status, out)
	}

	// At the limit: fine.
	batch.Requests = batch.Requests[:2]
	if body, err = json.Marshal(batch); err != nil {
		t.Fatal(err)
	}
	if status, out := post(t, ts.URL+"/v1/batch", body); status != http.StatusOK {
		t.Errorf("at-limit batch: status %d: %s", status, out)
	}
}

func TestQueuedRequestTimesOut(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxInFlight: 1, QueueDepth: 4, RequestTimeout: 20 * time.Millisecond})

	release, err := s.admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer release()

	start := time.Now()
	status, body := post(t, ts.URL+"/v1/wcet", encodeRequest(t, sampleRequest(0)))
	if status != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503: %s", status, body)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("timeout took %v", elapsed)
	}
	if st := s.StatsSnapshot(); st.Canceled == 0 {
		t.Error("canceled counter not incremented")
	}
}

func TestAdmitRespectsCancelledContext(t *testing.T) {
	s := newServer(t, Config{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.admit(ctx); err == nil {
		t.Fatal("admit succeeded with cancelled context")
	}
	if st := s.StatsSnapshot(); st.Canceled != 1 {
		t.Errorf("canceled = %d, want 1", st.Canceled)
	}
}

func TestGracefulShutdown(t *testing.T) {
	s := New(Config{}, nil)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- s.Serve(ln) }()

	url := "http://" + ln.Addr().String()
	status, _ := post(t, url+"/v1/wcet", encodeRequest(t, sampleRequest(0)))
	if status != http.StatusOK {
		t.Fatalf("pre-shutdown request: %d", status)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-done; err != http.ErrServerClosed {
		t.Errorf("Serve returned %v, want ErrServerClosed", err)
	}
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz status %d", resp.StatusCode)
	}
}
