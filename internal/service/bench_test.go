package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
)

// BenchmarkCacheHit measures the canonical-request cache's hot path: an
// already-seen request resolved key-to-response. This is the acceptance
// bar for duplicate provider submissions — it must be sub-microsecond
// (it is a sharded map lookup plus a CLOCK ref-bit set).
func BenchmarkCacheHit(b *testing.B) {
	s := newServer(b, Config{})
	sdkReq, key, err := lower(s, sampleRequest(0), s.servingID(), tagV1)
	if err != nil {
		b.Fatal(err)
	}
	compute := func(ctx context.Context) (*cached, error) {
		return newCached(evaluate(ctx, s.analyzer, sdkReq, renderV1))
	}
	if _, err := s.lookupOrCompute(context.Background(), key, compute); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.lookupOrCompute(context.Background(), key, compute); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	st := s.StatsSnapshot()
	if st.Cache.Misses != 1 {
		b.Fatalf("benchmark loop missed the cache: %+v", st.Cache)
	}
}

// BenchmarkDuplicateRequestEndToEnd is the honest version of
// BenchmarkCacheHit: the full duplicate-query cost including JSON decode,
// lowering and keying, without HTTP transport.
func BenchmarkDuplicateRequestEndToEnd(b *testing.B) {
	s := newServer(b, Config{})
	body := encodeRequest(b, sampleRequest(0))
	serve := func() error {
		dec, err := DecodeRequest(bytes.NewReader(body))
		if err != nil {
			return err
		}
		sdkReq, key, err := lower(s, dec, s.servingID(), tagV1)
		if err != nil {
			return err
		}
		_, err = s.lookupOrCompute(context.Background(), key, func(ctx context.Context) (*cached, error) {
			return newCached(evaluate(ctx, s.analyzer, sdkReq, renderV1))
		})
		return err
	}
	if err := serve(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := serve(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkColdEvaluate is the miss cost the cache amortizes away: a
// full fTC + ILP-PTAC evaluation per iteration.
func BenchmarkColdEvaluate(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		// Vary the request so no two iterations could share a solve.
		req := sampleRequest(i)
		if _, err := Evaluate(req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSustainedBatchThroughput drives the HTTP batch endpoint with
// concurrent clients submitting batches that mix fresh and duplicate
// requests (a realistic integration-campaign stream) and reports
// items/sec plus the cache hit rate the stream achieved.
func BenchmarkSustainedBatchThroughput(b *testing.B) {
	const batchSize = 16
	const uniquePool = 32
	s := newServer(b, Config{MaxInFlight: 256, QueueDepth: 1024})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	bodies := make([][]byte, uniquePool)
	for v := range bodies {
		batch := BatchRequest{}
		for j := 0; j < batchSize; j++ {
			// Half the cells repeat across batches, half are
			// batch-specific duplicates of the variant.
			batch.Requests = append(batch.Requests, sampleRequest((v+j)%8))
		}
		var err error
		bodies[v], err = json.Marshal(batch)
		if err != nil {
			b.Fatal(err)
		}
	}

	// One dedicated transport whose idle pool holds a connection per
	// client goroutine; draining each body lets its connection return to
	// that pool, so the stream measures the server, not TCP dials.
	procs := runtime.GOMAXPROCS(0)
	tr := &http.Transport{MaxIdleConns: procs, MaxIdleConnsPerHost: procs}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr}

	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			body := bodies[i%uniquePool]
			i++
			resp, err := client.Post(ts.URL+"/v1/batch", "application/json", bytes.NewReader(body))
			if err != nil {
				b.Error(err)
				return
			}
			_, err = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if err != nil {
				b.Error(err)
				return
			}
			if resp.StatusCode != http.StatusOK {
				b.Errorf("status %d", resp.StatusCode)
			}
		}
	})
	b.StopTimer()

	st := s.StatsSnapshot()
	items := st.BatchItems
	if items > 0 {
		b.ReportMetric(float64(items)/b.Elapsed().Seconds(), "items/s")
	}
	if lookups := st.Cache.Hits + st.Cache.Misses; lookups > 0 {
		b.ReportMetric(float64(st.Cache.Hits)/float64(lookups), "cache_hit_rate")
	}
	if b.N > uniquePool && st.Cache.Hits == 0 {
		b.Fatal(fmt.Sprintf("sustained stream never hit the cache: %+v", st.Cache))
	}
}
