package ilp

import (
	"errors"
	"math"
	"testing"
)

type bfConstraint struct {
	coeffs []float64
	sense  Sense
	rhs    float64
}

// bfInstance is one random box-bounded integer program.
type bfInstance struct {
	obj  []float64
	hi   []int
	cons []bfConstraint
}

// randomInstances draws trials seeded instances of minVars to
// minVars+spread-1 variables with mixed constraint senses.
func randomInstances(seed uint32, trials, minVars, spread int) []bfInstance {
	rnd := seed
	next := func(mod uint32) int {
		rnd = rnd*1664525 + 1013904223
		return int(rnd % mod)
	}
	out := make([]bfInstance, trials)
	for trial := range out {
		n := minVars + next(uint32(spread))
		hi := make([]int, n)
		obj := make([]float64, n)
		for j := 0; j < n; j++ {
			hi[j] = 2 + next(4)
			obj[j] = float64(next(7)) - 2 // may be negative or zero
		}
		nCons := 1 + next(3)
		var cons []bfConstraint
		for k := 0; k < nCons; k++ {
			c := bfConstraint{coeffs: make([]float64, n)}
			for j := 0; j < n; j++ {
				c.coeffs[j] = float64(next(5)) - 1
			}
			switch next(3) {
			case 0:
				c.sense = LE
				c.rhs = float64(next(15))
			case 1:
				c.sense = GE
				c.rhs = float64(next(6))
			default:
				c.sense = EQ
				c.rhs = float64(next(8))
			}
			cons = append(cons, c)
		}
		out[trial] = bfInstance{obj: obj, hi: hi, cons: cons}
	}
	return out
}

// bruteForce enumerates every integer point of the box and returns the
// best feasible objective, or -Inf when none is feasible.
func (in bfInstance) bruteForce() float64 {
	point := make([]float64, len(in.obj))
	best := math.Inf(-1)
	var walk func(i int)
	walk = func(i int) {
		if i == len(point) {
			if !in.feasible(point) {
				return
			}
			var v float64
			for j, x := range point {
				v += in.obj[j] * x
			}
			best = math.Max(best, v)
			return
		}
		for x := 0; x <= in.hi[i]; x++ {
			point[i] = float64(x)
			walk(i + 1)
		}
	}
	walk(0)
	return best
}

// feasible reports whether the point satisfies every constraint.
func (in bfInstance) feasible(x []float64) bool {
	for _, c := range in.cons {
		var lhs float64
		for j, xj := range x {
			lhs += c.coeffs[j] * xj
		}
		switch c.sense {
		case LE:
			if lhs > c.rhs+1e-9 {
				return false
			}
		case GE:
			if lhs < c.rhs-1e-9 {
				return false
			}
		case EQ:
			if math.Abs(lhs-c.rhs) > 1e-9 {
				return false
			}
		}
	}
	return true
}

// TestSolveMatchesBruteForce cross-validates the branch & bound against
// exhaustive enumeration on hundreds of random small instances of 2-3
// variables with mixed constraint senses.
func TestSolveMatchesBruteForce(t *testing.T) {
	checkAgainstBruteForce(t, "2-3 vars", randomInstances(0x5EED, 300, 2, 2))
}

// TestSolveMatchesBruteForceFuzz repeats the cross-validation on a second
// seeded family of 2-4 variable instances.
func TestSolveMatchesBruteForceFuzz(t *testing.T) {
	checkAgainstBruteForce(t, "2-4 vars", randomInstances(0xD15EED, 100, 2, 3))
}

// checkAgainstBruteForce solves every instance and compares it with
// exhaustive enumeration: the status must match, the objective must equal
// the enumerated optimum and the proved upper bound of the completed
// search, and the returned vector must be an integral, in-box, feasible
// point attaining that objective.
func checkAgainstBruteForce(t *testing.T, name string, instances []bfInstance) {
	t.Helper()
	feasibleTrials := 0
	for trial, in := range instances {
		want := in.bruteForce()
		n := len(in.obj)

		p := New()
		vars := make([]Var, n)
		for j := 0; j < n; j++ {
			vars[j] = p.AddInt(string(rune('a'+j)), 0, float64(in.hi[j]))
			p.SetObjective(vars[j], in.obj[j])
		}
		for _, c := range in.cons {
			terms := make([]Term, n)
			for j := 0; j < n; j++ {
				terms[j] = Term{vars[j], c.coeffs[j]}
			}
			p.Add(terms, c.sense, c.rhs)
		}
		sol, err := p.Solve(Options{})

		if math.IsInf(want, -1) {
			if !errors.Is(err, ErrInfeasible) {
				t.Fatalf("%s trial %d: brute force says infeasible, solver said %v (obj %v)", name, trial, err, sol.Objective)
			}
			continue
		}
		feasibleTrials++
		if err != nil {
			t.Fatalf("%s trial %d: solver error %v on feasible instance (want %g)", name, trial, err, want)
		}
		if math.Abs(sol.Objective-want) > 1e-6 {
			t.Fatalf("%s trial %d: solver %g, brute force %g\nobj=%v hi=%v cons=%+v",
				name, trial, sol.Objective, want, in.obj, in.hi, in.cons)
		}
		if math.Abs(sol.UpperBound-sol.Objective) > 1e-6 {
			t.Fatalf("%s trial %d: completed search reports upper bound %g for objective %g",
				name, trial, sol.UpperBound, sol.Objective)
		}
		xs := make([]float64, n)
		var obj float64
		for j, v := range vars {
			xs[j] = sol.ValueOf(v)
			if xs[j] != math.Round(xs[j]) || xs[j] < 0 || xs[j] > float64(in.hi[j]) {
				t.Fatalf("%s trial %d: x[%d] = %g outside the integer box [0, %d]", name, trial, j, xs[j], in.hi[j])
			}
			obj += in.obj[j] * xs[j]
		}
		if !in.feasible(xs) {
			t.Fatalf("%s trial %d: returned point %v violates a constraint\ncons=%+v", name, trial, xs, in.cons)
		}
		if math.Abs(obj-sol.Objective) > 1e-6 {
			t.Fatalf("%s trial %d: returned point scores %g, reported objective %g", name, trial, obj, sol.Objective)
		}
	}
	if feasibleTrials < len(instances)/4 {
		t.Fatalf("%s: generator drift, only %d of %d instances feasible", name, feasibleTrials, len(instances))
	}
}
