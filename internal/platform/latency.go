package platform

import (
	"fmt"
	"strconv"
)

// Latency holds the timing characterisation of one SRI target for one
// operation type, as measured in isolation (paper Table 2).
//
// Max is the maximum observable end-to-end latency of a single transaction;
// it is what a request of a *contender* is assumed to occupy the slave for
// in the worst case, and therefore the per-request delay coefficient l^{t,o}
// in the models. Min is the minimum observable end-to-end latency. Stall is
// the minimum number of pipeline stall cycles a single request charges to
// the issuing core's PMEM_STALL/DMEM_STALL counter (cs^{t,o}); it is lower
// than the end-to-end latency because prefetching and SRI pipelining hide
// part of it. Minimum stalls are what divide observed stall totals to
// over-approximate access counts (Eq. 4).
type Latency struct {
	Max   int64
	Min   int64
	Stall int64
}

// LatencyTable maps every legal (target, op) pair to its Latency. Illegal
// pairs (code on dfl) hold zero values and must not be consulted.
type LatencyTable [NumTargets][NumOps]Latency

// Lookup returns the latency entry for (t, o) and an error for illegal
// pairs.
func (lt *LatencyTable) Lookup(t Target, o Op) (Latency, error) {
	if !CanAccess(t, o) {
		return Latency{}, fmt.Errorf("platform: no %s access path to %s", o, t)
	}
	return lt[t][o], nil
}

// MaxLatency returns l^{t,o}, the worst-case per-request delay coefficient,
// panicking on illegal pairs (model code validates pairs up front).
func (lt *LatencyTable) MaxLatency(t Target, o Op) int64 {
	l, err := lt.Lookup(t, o)
	if err != nil {
		panic(err)
	}
	return l.Max
}

// MinStall returns cs^{t,o}, the minimum stall cycles a single (t,o) request
// charges to the issuing core, panicking on illegal pairs.
func (lt *LatencyTable) MinStall(t Target, o Op) int64 {
	l, err := lt.Lookup(t, o)
	if err != nil {
		panic(err)
	}
	return l.Stall
}

// MinStallFor returns the lowest per-request stall cycle count over all
// targets reachable by operation o: cs^co_min (Eq. 2) or cs^da_min (Eq. 3).
// Dividing a task's total observed stall cycles by this value over-
// approximates its number of SRI requests of that operation type (Eq. 4).
func (lt *LatencyTable) MinStallFor(o Op) int64 {
	var min int64 = -1
	for _, t := range Targets {
		if !CanAccess(t, o) {
			continue
		}
		if s := lt[t][o].Stall; min < 0 || s < min {
			min = s
		}
	}
	return min
}

// MaxLatencyFor returns the largest per-request delay over all targets
// reachable by operation o of the task under analysis, considering that the
// contender may hit the same target with either operation type. For code it
// is l^co_max (Eq. 6); for data, l^da_max (Eq. 7).
func (lt *LatencyTable) MaxLatencyFor(o Op) int64 {
	var max int64
	for _, t := range Targets {
		if !CanAccess(t, o) {
			continue
		}
		// The contender request occupying the slave can be of either
		// operation type that is legal on this target.
		for _, ob := range Ops {
			if !CanAccess(t, ob) {
				continue
			}
			if l := lt[t][ob].Max; l > max {
				max = l
			}
		}
	}
	return max
}

// Validate checks internal consistency: positive latencies on all legal
// pairs (which subsumes rejecting negative stall-cycle figures), Min <=
// Max, Stall <= Max (a request cannot stall the pipeline for longer than
// its own end-to-end latency), and strictly zero entries on illegal
// pairs. The last check matters now that tables arrive from disk and the
// wire, not only from code: a figure smuggled into an inaccessible slot
// (code on dfl) would silently survive and corrupt any future consumer
// that iterates raw indices instead of AccessPairs.
func (lt *LatencyTable) Validate() error {
	for _, to := range AccessPairs() {
		l := lt[to.Target][to.Op]
		switch {
		case l.Max <= 0 || l.Min <= 0 || l.Stall <= 0:
			return fmt.Errorf("platform: non-positive latency for %s: %+v", to, l)
		case l.Min > l.Max:
			return fmt.Errorf("platform: min latency %d exceeds max %d for %s", l.Min, l.Max, to)
		case l.Stall > l.Max:
			return fmt.Errorf("platform: stall %d exceeds max latency %d for %s", l.Stall, l.Max, to)
		}
	}
	for _, t := range Targets {
		for _, o := range Ops {
			if !CanAccess(t, o) && lt[t][o] != (Latency{}) {
				return fmt.Errorf("platform: illegal pair %s/%s holds non-zero latency %+v (must be zero)", t, o, lt[t][o])
			}
		}
	}
	return nil
}

// Canonical renders the table in its one canonical form: every legal
// access path in AccessPairs order as "path:max/min/stall;". Two tables
// have equal renderings iff every model-visible figure is equal, so a hash
// of it is a sound content address — the table store's IDs and the wcet
// SDK's estimate-cache keys both use it.
func (lt *LatencyTable) Canonical() string {
	b := make([]byte, 0, 128)
	for _, to := range AccessPairs() {
		l := lt[to.Target][to.Op]
		b = append(b, to.String()...)
		b = append(b, ':')
		b = strconv.AppendInt(b, l.Max, 10)
		b = append(b, '/')
		b = strconv.AppendInt(b, l.Min, 10)
		b = append(b, '/')
		b = strconv.AppendInt(b, l.Stall, 10)
		b = append(b, ';')
	}
	return string(b)
}

// TC27xLatencies returns the latency table of the TC27x as characterised in
// the paper's Table 2:
//
//	target  lmax     lmin  cs(code)  cs(data)
//	lmu     11 (21)  11    11        10
//	pf0/1   16       12    6         11
//	dfl     43       43    -         42
//
// The 21-cycle figure for the LMU applies only to dirty data-cache misses
// (write-back plus linefill); it is exposed separately as
// TC27xLMUDirtyMissLatency because it applies "only on limited scenarios"
// and the models decide per scenario whether to use it.
func TC27xLatencies() LatencyTable {
	var lt LatencyTable
	lt[PF0][Code] = Latency{Max: 16, Min: 12, Stall: 6}
	lt[PF1][Code] = Latency{Max: 16, Min: 12, Stall: 6}
	lt[LMU][Code] = Latency{Max: 11, Min: 11, Stall: 11}
	lt[PF0][Data] = Latency{Max: 16, Min: 12, Stall: 11}
	lt[PF1][Data] = Latency{Max: 16, Min: 12, Stall: 11}
	lt[LMU][Data] = Latency{Max: 11, Min: 11, Stall: 10}
	lt[DFL][Data] = Latency{Max: 43, Min: 43, Stall: 42}
	return lt
}

// TC27xLMUDirtyMissLatency is the end-to-end LMU latency when a cacheable
// data access misses on a dirty line and the eviction write-back is folded
// into the transaction (the bracketed 21 in Table 2).
const TC27xLMUDirtyMissLatency int64 = 21
