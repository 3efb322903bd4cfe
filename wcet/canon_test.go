package wcet

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/platform"
)

// keyedRequest fills every field of Request, nested ones included, with a
// distinct non-zero value, so perturbing any one of them is visible.
func keyedRequest(t *testing.T) Request {
	return Request{
		Analysed:   Readings{CCNT: 157800, PS: 18000, DS: 27000, PM: 3000, DMC: 120, DMD: 40},
		Contenders: []Readings{testContender, {CCNT: 220000, PS: 21000, DS: 16000, PM: 2500, DMC: 7, DMD: 3}},
		Templates: []Template{
			{Name: "brakeCtl", MaxRequests: PTAC{mustPath(t, "pf0/co"): 120, mustPath(t, "lmu/da"): 40}},
		},
		AnalysedPTAC:      PTAC{mustPath(t, "pf0/co"): 300, mustPath(t, "dfl/da"): 25},
		ContenderPTACs:    []PTAC{{mustPath(t, "pf1/co"): 500}, {mustPath(t, "lmu/da"): 90}},
		Scenario:          Scenario2(),
		TableRef:          "tc27x/default",
		StallMode:         StallExact,
		DropContenderInfo: true,
		Models:            []string{"ftc", "ilpPtac"},
		RTA: &RTASpec{
			Model:  "ilpPtac",
			Task:   RTATask{Name: "airbagCtl", WCET: 1, Period: 2_000_000, Deadline: 1_900_000, Priority: 2},
			Others: []RTATask{{Name: "ctrl", WCET: 50_000, Period: 500_000, Deadline: 400_000, Priority: 1}},
		},
	}
}

// keyedInput is keyedRequest's model input under the TC27x table.
func keyedInput(t *testing.T) Input {
	lat := TC27x()
	return keyedRequest(t).input(&lat, Scenario2())
}

// perturb walks v and calls visit with the path and a mutation of every
// leaf: scalars change value, slices grow by one element, pointers flip
// between nil and set, maps change each value (or gain an entry when
// empty), and strings grow — or, when listed in rename, take the given
// value. It stops as soon as visit reports true: the mutation it made may
// have invalidated the rest of the walk.
func perturb(t *testing.T, v reflect.Value, path string, rename map[string]string, visit func(path string, mutate func()) bool) bool {
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() {
			return visit(path+"=new", func() { v.Set(reflect.New(v.Type().Elem())) })
		}
		if visit(path+"=nil", func() { v.Set(reflect.Zero(v.Type())) }) {
			return true
		}
		return perturb(t, v.Elem(), path, rename, visit)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if perturb(t, v.Field(i), path+"."+v.Type().Field(i).Name, rename, visit) {
				return true
			}
		}
	case reflect.Slice:
		if visit(path+"[+]", func() { v.Set(reflect.Append(v, reflect.Zero(v.Type().Elem()))) }) {
			return true
		}
		fallthrough
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			if perturb(t, v.Index(i), fmt.Sprintf("%s[%d]", path, i), rename, visit) {
				return true
			}
		}
	case reflect.Map:
		if v.Len() == 0 {
			return visit(path+"{+}", func() {
				m := reflect.MakeMap(v.Type())
				m.SetMapIndex(reflect.Zero(v.Type().Key()), reflect.Zero(v.Type().Elem()))
				v.Set(m)
			})
		}
		for _, k := range v.MapKeys() {
			if visit(fmt.Sprintf("%s[%v]", path, k), func() {
				v.SetMapIndex(k, reflect.ValueOf(v.MapIndex(k).Int()+1).Convert(v.Type().Elem()))
			}) {
				return true
			}
		}
	case reflect.Int, reflect.Int64:
		return visit(path, func() { v.SetInt(v.Int() + 1) })
	case reflect.Bool:
		return visit(path, func() { v.SetBool(!v.Bool()) })
	case reflect.String:
		if name, ok := rename[path]; ok {
			return visit(path, func() { v.SetString(name) })
		}
		return visit(path, func() { v.SetString(v.String() + "x") })
	default:
		t.Fatalf("%s: no perturbation for kind %s; teach perturb (and the key) about it", path, v.Kind())
	}
	return false
}

// checkEveryFieldKeyed perturbs each leaf of a fresh value in turn and
// requires the key to change, except at the documented exclusions.
func checkEveryFieldKeyed[T any](t *testing.T, fresh func() T, key func(T) (string, error), excluded map[string]bool, rename map[string]string) {
	t.Helper()
	base := fresh()
	want, err := key(base)
	if err != nil {
		t.Fatal(err)
	}
	var paths []string
	perturb(t, reflect.ValueOf(&base).Elem(), "", rename, func(path string, _ func()) bool {
		paths = append(paths, path)
		return false
	})
	for _, target := range paths {
		v := fresh()
		perturb(t, reflect.ValueOf(&v).Elem(), "", rename, func(path string, mutate func()) bool {
			if path != target {
				return false
			}
			mutate()
			return true
		})
		got, err := key(v)
		switch {
		case err != nil:
			t.Errorf("%s: key failed after perturbation: %v", target, err)
		case excluded[target] && got != want:
			t.Errorf("%s is documented as not keyed, yet perturbing it changed the key", target)
		case !excluded[target] && got == want:
			t.Errorf("%s is not keyed: perturbing it left the key unchanged (a stale result would be served)", target)
		}
	}
}

// TestRequestKeyCoversEveryField is the guard on Request.Key: any field
// of Request — present or added later — must change the key when it
// changes, except the documented exclusions.
func TestRequestKeyCoversEveryField(t *testing.T) {
	reg := DefaultRegistry()
	checkEveryFieldKeyed(t, func() Request { return keyedRequest(t) },
		func(r Request) (string, error) { return r.Key(reg) },
		map[string]bool{".RTA.Task.WCET": true},
		// Model names must stay resolvable: perturb to another registered
		// model instead of an unknown spelling.
		map[string]string{".Models[0]": "ftcFsb", ".Models[1]": "ideal", ".RTA.Model": "ftc"})
}

// TestCanonKeyCoversEveryField is the same guard on the estimate-cache
// key over Input. Latency slots of illegal access paths are excluded:
// Validate requires them zero, and Canonical renders legal paths only.
func TestCanonKeyCoversEveryField(t *testing.T) {
	excluded := map[string]bool{}
	for tg := platform.Target(0); tg < platform.NumTargets; tg++ {
		for op := platform.Op(0); op < platform.NumOps; op++ {
			if (AccessPath{Target: tg, Op: op}).Valid() {
				continue
			}
			for _, f := range []string{"Max", "Min", "Stall"} {
				excluded[fmt.Sprintf(".Latencies[%d][%d].%s", tg, op, f)] = true
			}
		}
	}
	if len(excluded) == 0 {
		t.Fatal("expected at least one illegal access path on the TC27x")
	}
	checkEveryFieldKeyed(t, func() Input { return keyedInput(t) },
		func(in Input) (string, error) { return canonKey("ilpPtac", in), nil }, excluded, nil)
}

// TestRequestKeyEquivalences pins the spellings Key collapses and the
// distinctions it keeps.
func TestRequestKeyEquivalences(t *testing.T) {
	reg := DefaultRegistry()
	key := func(r Request) string {
		t.Helper()
		k, err := r.Key(reg)
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	base := keyedRequest(t)
	same := func(what string, r Request) {
		t.Helper()
		if key(r) != key(base) {
			t.Errorf("%s changed the key", what)
		}
	}
	differ := func(what string, r Request) {
		t.Helper()
		if key(r) == key(base) {
			t.Errorf("%s left the key unchanged", what)
		}
	}

	r := keyedRequest(t)
	r.Contenders[0], r.Contenders[1] = r.Contenders[1], r.Contenders[0]
	r.ContenderPTACs[0], r.ContenderPTACs[1] = r.ContenderPTACs[1], r.ContenderPTACs[0]
	same("permuting contenders and contender PTACs", r)

	r = keyedRequest(t)
	r.Templates = append(r.Templates, Template{Name: "wiper", MaxRequests: PTAC{mustPath(t, "pf1/co"): 9}})
	r2 := keyedRequest(t)
	r2.Templates = append([]Template{{Name: "wiper", MaxRequests: PTAC{mustPath(t, "pf1/co"): 9}}}, r2.Templates...)
	if key(r) != key(r2) {
		t.Error("permuting templates changed the key")
	}

	r = keyedRequest(t)
	r.Models = []string{"FTC", "ILP-PTAC"}
	r.RTA.Model = "ILP-PTAC"
	same("alias spellings of the models", r)

	r = keyedRequest(t)
	r.Models = []string{"ilpPtac", "ftc"}
	differ("reordering the models (the result order)", r)

	r = keyedRequest(t)
	r.RTA.Others = append(r.RTA.Others, RTATask{Name: "z", WCET: 1000, Period: 100_000, Priority: 1})
	r2 = keyedRequest(t)
	r2.RTA.Others = append([]RTATask{{Name: "z", WCET: 1000, Period: 100_000, Priority: 1}}, r2.RTA.Others...)
	if key(r) == key(r2) {
		t.Error("co-resident RTA task order ignored (priority ties break by declaration order)")
	}

	unnamed, named := keyedRequest(t), keyedRequest(t)
	unnamed.RTA.Task.Name = ""
	named.RTA.Task.Name = "analysed"
	if key(unnamed) != key(named) {
		t.Error(`an unnamed RTA task does not key as "analysed"`)
	}

	r = keyedRequest(t)
	r.AnalysedPTAC = nil
	r2 = keyedRequest(t)
	r2.AnalysedPTAC = PTAC{}
	if key(r) == key(r2) {
		t.Error("AnalysedPTAC nil and empty share a key (the ideal model rejects nil)")
	}

	r = keyedRequest(t)
	r.Models = []string{"bogus"}
	if _, err := r.Key(reg); err == nil {
		t.Error("an unknown model name keyed without error")
	}
}

// TestLatencyTableCanonicalPinned pins the table rendering byte for byte:
// the table store's IDs are hashes of it, persisted on disk and verified
// on load, so any drift would orphan every stored table.
func TestLatencyTableCanonicalPinned(t *testing.T) {
	lat := TC27x()
	const want = "pf0/co:16/12/6;pf1/co:16/12/6;lmu/co:11/11/11;pf0/da:16/12/11;pf1/da:16/12/11;dfl/da:43/43/42;lmu/da:11/11/10;"
	if got := lat.Canonical(); got != want {
		t.Errorf("Canonical() = %q, want %q", got, want)
	}
}
