package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/campaign"
	"repro/internal/service"
	"repro/internal/telemetry"
	"repro/wcet"
)

// repResult is what one child process reports to the parent process.
type repResult struct {
	SetupS    float64   `json:"setup_s"`
	WallS     float64   `json:"wall_s"`
	LatMs     []float64 `json:"lat_ms"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	// Errors holds the first few failure descriptions.
	Errors []string `json:"errors,omitempty"`
	// Layers holds the per-layer metrics of a traced repetition.
	Layers map[string]float64 `json:"layers,omitempty"`
}

// failedOp is the latency sample of a failed op; the parent ranks it
// above every measured sample, so a failed op always misses the tail.
const failedOp = -1

// op records one timed op.
func (r *repResult) op(d time.Duration, err error) {
	r.Attempted++
	if err != nil {
		r.LatMs = append(r.LatMs, failedOp)
		r.fail("%v", err)
		return
	}
	r.LatMs = append(r.LatMs, float64(d.Nanoseconds())/1e6)
}

// fail records a failed op or a failed whole-run check.
func (r *repResult) fail(format string, args ...any) {
	r.Failed++
	if len(r.Errors) < 5 {
		r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
	}
}

// clientCount caps a workload's closed-loop clients at the CPU count.
func clientCount(want int) int {
	return min(want, runtime.NumCPU())
}

// engineWidth is the campaign-engine width of every workload: one slot per
// CPU, as wcetd and cmd/experiments default to.
func engineWidth() int { return runtime.NumCPU() }

var quietLogger = slog.New(slog.NewTextHandler(io.Discard, nil))

// liveServer is a wcetd server on a loopback listener.
type liveServer struct {
	srv  *service.Server
	url  string
	done chan error
}

func startServer(cfg service.Config, eng *campaign.Engine) (*liveServer, error) {
	cfg.Logger = quietLogger
	srv := service.New(cfg, eng)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &liveServer{srv: srv, url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { s.done <- srv.Serve(ln) }()
	return s, nil
}

// stop drains the server and waits for its accept loop to exit.
func (s *liveServer) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if serr := <-s.done; err == nil && !errors.Is(serr, http.ErrServerClosed) {
		err = serr
	}
	return err
}

// client is an HTTP client on a dedicated transport that counts the
// connections it dials. Every response body is read to EOF, so a
// closed-loop client keeps reusing one connection.
type client struct {
	http  *http.Client
	tr    *http.Transport
	dials atomic.Int64
}

func newClient(conns int) *client {
	c := &client{}
	dialer := &net.Dialer{}
	c.tr = &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			c.dials.Add(1)
			return dialer.DialContext(ctx, network, addr)
		},
		// One connection per closed-loop client: without the cap, a
		// request that starts before the previous response's connection
		// is back in the idle pool dials a spare.
		MaxConnsPerHost:     conns,
		MaxIdleConns:        conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}
	c.http = &http.Client{Transport: c.tr}
	return c
}

func (c *client) do(method, url string, payload []byte) ([]byte, int, error) {
	var rd io.Reader
	if payload != nil {
		rd = bytes.NewReader(payload)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return nil, 0, err
	}
	if payload != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return data, resp.StatusCode, err
}

func (c *client) close() { c.tr.CloseIdleConnections() }

// runtimeStats samples the Go runtime counters behind runtime.* metrics.
type runtimeStats struct{ allocBytes, gcCPU, totalCPU float64 }

func readRuntime() runtimeStats {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return runtimeStats{float64(s[0].Value.Uint64()), s[1].Value.Float64(), s[2].Value.Float64()}
}

// addRuntimeLayers reports allocation per op and the GC share of CPU
// between two samples.
func addRuntimeLayers(layers map[string]float64, from, to runtimeStats, ops int) {
	layers["runtime.alloc_kb_per_op"] = (to.allocBytes - from.allocBytes) / 1024 / float64(ops)
	if cpu := to.totalCPU - from.totalCPU; cpu > 0 {
		layers["runtime.gc_cpu_frac"] = (to.gcCPU - from.gcCPU) / cpu
	}
}

// solverCounters reads the solver_* counters of telemetry.Default().
type solverCounters struct{ nodes, solves, cold, pivots float64 }

func readSolver() solverCounters {
	snap := telemetry.Default().Snapshot()
	return solverCounters{
		nodes:  snap["solver_bb_nodes_total"],
		solves: snap["solver_ilp_solves_total"],
		cold:   snap["solver_cold_solves_total"],
		pivots: snap["solver_pivots_total"],
	}
}

// addSolverLayers reports the solver work between two samples.
func addSolverLayers(layers map[string]float64, from, to solverCounters) {
	nodes, solves := to.nodes-from.nodes, to.solves-from.solves
	layers["ilp.solves"] = solves
	if solves > 0 {
		layers["ilp.nodes_per_solve"] = nodes / solves
	}
	if nodes > 0 {
		layers["ilp.cold_solve_ratio"] = (to.cold - from.cold) / nodes
		layers["lp.pivots_per_node"] = (to.pivots - from.pivots) / nodes
	}
}

// heavySolveNodes is the node count above which a solve is heavy.
const heavySolveNodes = 1000

// modelTimer wraps every model of the default registry to time its
// Estimate calls from outside the program. It also tracks the wall time
// during which at least one model call is running, which is what a
// campaign op minus model time leaves to the simulator, and counts heavy
// ILP-PTAC solves from the node count each estimate carries.
type modelTimer struct {
	mu       sync.Mutex
	calls    map[string]int64
	ns       map[string]int64
	inFlight int
	since    time.Time
	wallNs   int64
	heavy    int
}

// timedRegistry returns a registry with every default model wrapped by a
// fresh modelTimer.
func timedRegistry() (*wcet.Registry, *modelTimer) {
	mt := &modelTimer{calls: map[string]int64{}, ns: map[string]int64{}}
	def := wcet.DefaultRegistry()
	reg := wcet.NewRegistry()
	for _, name := range def.Names() {
		inner, err := def.Resolve(name)
		if err != nil {
			panic(err)
		}
		reg.MustRegister(wcet.NewModel(name, func(ctx context.Context, in wcet.Input) (wcet.Estimate, error) {
			return mt.call(name, func() (wcet.Estimate, error) { return inner.Estimate(ctx, in) })
		}), def.Aliases(name)...)
	}
	return reg, mt
}

func (mt *modelTimer) call(name string, fn func() (wcet.Estimate, error)) (wcet.Estimate, error) {
	mt.mu.Lock()
	if mt.inFlight == 0 {
		mt.since = time.Now()
	}
	mt.inFlight++
	mt.mu.Unlock()

	start := time.Now()
	est, err := fn()
	d := time.Since(start)

	mt.mu.Lock()
	mt.calls[name]++
	mt.ns[name] += d.Nanoseconds()
	mt.inFlight--
	if mt.inFlight == 0 {
		mt.wallNs += time.Since(mt.since).Nanoseconds()
	}
	if name == "ilpPtac" && est.Nodes > heavySolveNodes {
		mt.heavy++
	}
	mt.mu.Unlock()
	return est, err
}

// reset forgets every call so far; runs call it where the timed region
// starts, so set-up solves stay out of the per-layer figures.
func (mt *modelTimer) reset() {
	mt.mu.Lock()
	defer mt.mu.Unlock()
	mt.calls, mt.ns, mt.wallNs, mt.heavy = map[string]int64{}, map[string]int64{}, 0, 0
}

// modelWall returns the wall nanoseconds during which some model ran.
func (mt *modelTimer) modelWall() int64 {
	mt.mu.Lock()
	defer mt.mu.Unlock()
	return mt.wallNs
}

// addLayers reports per-call model times and the heavy-solve count.
func (mt *modelTimer) addLayers(layers map[string]float64) {
	mt.mu.Lock()
	defer mt.mu.Unlock()
	if n := mt.calls["ilpPtac"]; n > 0 {
		layers["model.ilpPtac.ms_per_call"] = float64(mt.ns["ilpPtac"]) / 1e6 / float64(n)
	}
	if n := mt.calls["ftc"]; n > 0 {
		layers["model.ftc.us_per_call"] = float64(mt.ns["ftc"]) / 1e3 / float64(n)
	}
	layers["ilp.heavy_solves"] = float64(mt.heavy)
}
