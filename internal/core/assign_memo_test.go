package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"testing"

	"mpmc/internal/machine"
	"mpmc/internal/workload"
)

// referenceBestAssignment is the search without the request-scoped memo:
// every canonical candidate is built on its own and estimated through
// EstimateAssignmentContext, then the candidates are sorted by the same
// sort.Slice call.
func referenceBestAssignment(t *testing.T, cm *CombinedModel, procs []*FeatureVector) []AssignmentResult {
	t.Helper()
	n := cm.Machine.NumCores
	total := 1
	for range procs {
		total *= n
	}
	var results []AssignmentResult
	choice := make([]int, len(procs))
	first := make([]int, n)
	for idx := 0; idx < total; idx++ {
		v := idx
		for i := range choice {
			choice[i] = v % n
			v /= n
		}
		if !canonicalChoice(choice, cm.Machine.Groups, first) {
			continue
		}
		asg := make(Assignment, n)
		for i, c := range choice {
			asg[c] = append(asg[c], procs[i])
		}
		watts, err := cm.EstimateAssignmentContext(context.Background(), asg)
		if err != nil {
			t.Fatal(err)
		}
		if want := recursiveEstimate(t, cm, asg); math.Float64bits(watts) != math.Float64bits(want) {
			t.Fatalf("EstimateAssignment %v W, recursive Eq. 10 %v W", watts, want)
		}
		results = append(results, AssignmentResult{Assignment: asg, Watts: watts})
	}
	sort.Slice(results, func(i, j int) bool { return results[i].Watts < results[j].Watts })
	return results
}

// recursiveEstimate is Eq. 10 written as the nested recursion over each
// busy core's candidates, with no memo of any kind: the enumeration order
// estimateGroup's odometer must reproduce.
func recursiveEstimate(t *testing.T, cm *CombinedModel, asg Assignment) float64 {
	t.Helper()
	total := 0.0
	for _, group := range cm.Machine.Groups {
		var busy []int
		idle := 0
		for _, c := range group {
			if len(asg[c]) > 0 {
				busy = append(busy, c)
			} else {
				idle++
			}
		}
		watts := float64(idle) * cm.Power.PIdle()
		if len(busy) == 0 {
			total += watts
			continue
		}
		combo := make([]*FeatureVector, len(busy))
		var sum float64
		var count int
		var rec func(i int)
		rec = func(i int) {
			if i == len(busy) {
				preds, err := PredictGroup(combo, cm.Machine.Assoc, cm.Solver)
				if err != nil {
					t.Fatal(err)
				}
				for _, p := range preds {
					sum += cm.ProcessCorePower(p)
				}
				count++
				return
			}
			for _, f := range asg[busy[i]] {
				combo[i] = f
				rec(i + 1)
			}
		}
		rec(0)
		total += watts + sum/float64(count)
	}
	return total
}

// TestBestAssignmentMatchesPerCandidateEstimates pins the memoized search
// bit for bit against the per-candidate reference: the same watts (by
// Float64bits) and the same layouts in the same order after the sort, on
// every machine preset, at 1..6 processes, with and without a solver
// state, and with duplicated feature pointers as manager rebalance passes
// them.
func TestBestAssignmentMatchesPerCandidateEstimates(t *testing.T) {
	pm, err := SyntheticPowerModel()
	if err != nil {
		t.Fatal(err)
	}
	maxK := 6
	if testing.Short() {
		maxK = 4
	}
	presets := []func() *machine.Machine{
		machine.FourCoreServer, machine.TwoCoreWorkstation, machine.TwoCoreLaptop, machine.FourCoreLittle,
	}
	for _, preset := range presets {
		m := preset()
		feats := map[string]*FeatureVector{}
		for _, s := range workload.ModelSet() {
			feats[s.Name] = TruthFeature(s, m)
		}
		lists := map[string][]string{
			"distinct":   {"mcf", "art", "gzip", "vpr", "equake", "twolf"},
			"duplicated": {"mcf", "art", "mcf", "gzip", "art", "mcf"},
		}
		for _, listName := range []string{"distinct", "duplicated"} {
			names := lists[listName]
			for k := 1; k <= maxK; k++ {
				procs := make([]*FeatureVector, k)
				for i, name := range names[:k] {
					procs[i] = feats[name]
				}
				for _, withState := range []bool{false, true} {
					t.Run(fmt.Sprintf("%s/%s/k=%d/state=%v", m.Name, listName, k, withState), func(t *testing.T) {
						cm := NewCombinedModel(m, pm)
						ref := NewCombinedModel(m, pm)
						if withState {
							cm.State, ref.State = NewSolverState(0), NewSolverState(0)
						}
						want := referenceBestAssignment(t, ref, procs)
						got, err := cm.BestAssignment(procs, 0)
						if err != nil {
							t.Fatal(err)
						}
						if len(got) != len(want) {
							t.Fatalf("%d results, reference has %d", len(got), len(want))
						}
						for i := range want {
							if math.Float64bits(got[i].Watts) != math.Float64bits(want[i].Watts) {
								t.Fatalf("result %d: %v W, reference %v W", i, got[i].Watts, want[i].Watts)
							}
							if !sameAssignment(got[i].Assignment, want[i].Assignment) {
								t.Fatalf("result %d: layout differs from the reference", i)
							}
						}
					})
				}
			}
		}
	}
}

func sameAssignment(a, b Assignment) bool {
	if len(a) != len(b) {
		return false
	}
	for c := range a {
		if len(a[c]) != len(b[c]) {
			return false
		}
		for i := range a[c] {
			if a[c][i] != b[c][i] {
				return false
			}
		}
	}
	return true
}

// TestBestAssignmentSearchSpaceTooLarge: the size guard checks before it
// multiplies, so 32 processes on 4 cores (4^32 wraps int to 0) fail with
// the typed error instead of returning no results and no error.
func TestBestAssignmentSearchSpaceTooLarge(t *testing.T) {
	m := machine.FourCoreServer()
	pm, err := SyntheticPowerModel()
	if err != nil {
		t.Fatal(err)
	}
	cm := NewCombinedModel(m, pm)
	f := TruthFeature(workload.ByName("mcf"), m)
	for _, k := range []int{11, 32} {
		procs := make([]*FeatureVector, k)
		for i := range procs {
			procs[i] = f
		}
		res, err := cm.BestAssignment(procs, 0)
		if !errors.Is(err, ErrSearchSpaceTooLarge) {
			t.Fatalf("%d processes: err = %v, want ErrSearchSpaceTooLarge", k, err)
		}
		if res != nil {
			t.Fatalf("%d processes: %d results alongside the error", k, len(res))
		}
	}
	// 10 processes is 4^10 = 2^20 layouts: exactly at the bound, allowed.
	procs := make([]*FeatureVector, 10)
	for i := range procs {
		procs[i] = f
	}
	if testing.Short() {
		return
	}
	if _, err := cm.BestAssignment(procs, 1); err != nil {
		t.Fatalf("10 processes at the bound: %v", err)
	}
}

// TestBestAssignmentSingleCoreManyProcesses: a single-core machine has one
// layout at any process count, so 70 processes pass the size guard while
// their group key would overflow 64 bits; the search then runs without the
// memo and still returns the plain estimate.
func TestBestAssignmentSingleCoreManyProcesses(t *testing.T) {
	m := machine.TwoCoreWorkstation()
	m.NumCores, m.Groups = 1, [][]int{{0}}
	pm, err := SyntheticPowerModel()
	if err != nil {
		t.Fatal(err)
	}
	cm := NewCombinedModel(m, pm)
	procs := make([]*FeatureVector, 70)
	for i := range procs {
		procs[i] = TruthFeature(workload.ModelSet()[i%3], m)
	}
	if newAssignMemo(m, procs) != nil {
		t.Fatal("built a memo whose keys overflow")
	}
	got, err := cm.BestAssignment(procs, 0)
	if err != nil {
		t.Fatal(err)
	}
	want, err := cm.EstimateAssignment(Assignment{procs})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("%d results, want the single layout", len(got))
	}
	if math.Float64bits(got[0].Watts) != math.Float64bits(want) {
		t.Fatalf("%v W, want %v W", got[0].Watts, want)
	}
}

// TestBestAssignmentRejectsInvalidProcess: every process is validated
// once, up front.
func TestBestAssignmentRejectsInvalidProcess(t *testing.T) {
	m := machine.TwoCoreWorkstation()
	pm, err := SyntheticPowerModel()
	if err != nil {
		t.Fatal(err)
	}
	cm := NewCombinedModel(m, pm)
	f := TruthFeature(workload.ByName("mcf"), m)
	if _, err := cm.BestAssignment([]*FeatureVector{f, nil}, 0); err == nil {
		t.Fatal("accepted a nil feature vector")
	}
	bad := *f
	bad.API = 0
	if _, err := cm.BestAssignment([]*FeatureVector{f, &bad}, 0); err == nil {
		t.Fatal("accepted an invalid feature vector")
	}
}

// TestBestAssignmentResultsDoNotAlias: result layouts are cut from shared
// slabs with cap == len, so appending to one core's list never writes into
// another list.
func TestBestAssignmentResultsDoNotAlias(t *testing.T) {
	m := machine.FourCoreServer()
	pm, err := SyntheticPowerModel()
	if err != nil {
		t.Fatal(err)
	}
	cm := NewCombinedModel(m, pm)
	var procs []*FeatureVector
	for _, name := range []string{"mcf", "art", "gzip", "vpr"} {
		procs = append(procs, TruthFeature(workload.ByName(name), m))
	}
	results, err := cm.BestAssignment(procs, 0)
	if err != nil {
		t.Fatal(err)
	}
	snapshot := make([]Assignment, len(results))
	for i, r := range results {
		snapshot[i] = make(Assignment, len(r.Assignment))
		for c, fs := range r.Assignment {
			if cap(fs) != len(fs) {
				t.Fatalf("result %d core %d: cap %d, len %d", i, c, cap(fs), len(fs))
			}
			snapshot[i][c] = append([]*FeatureVector(nil), fs...)
		}
	}
	for _, r := range results {
		for c := range r.Assignment {
			r.Assignment[c] = append(r.Assignment[c], procs[0])
		}
	}
	for i, r := range results {
		for c, fs := range snapshot[i] {
			if !sameAssignment(Assignment{r.Assignment[c][:len(fs)]}, Assignment{fs}) {
				t.Fatalf("result %d core %d changed under another list's append", i, c)
			}
		}
	}
}

// bestAssignmentAllocCeiling is the allocation ratchet of a 5-process
// search on the 4-core server (272 canonical layouts). allocs/op does not
// depend on the host; lower it when the search gets leaner.
const bestAssignmentAllocCeiling = 200

// TestBestAssignmentAllocs pins the allocation count of the model-query
// tail mode: 5 processes on the 4-core server.
func TestBestAssignmentAllocs(t *testing.T) {
	m := machine.FourCoreServer()
	pm, err := SyntheticPowerModel()
	if err != nil {
		t.Fatal(err)
	}
	cm := NewCombinedModel(m, pm)
	var procs []*FeatureVector
	for _, name := range []string{"mcf", "art", "gzip", "vpr", "equake"} {
		procs = append(procs, TruthFeature(workload.ByName(name), m))
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := cm.BestAssignment(procs, 0); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("BestAssignment, 5 processes on %s: %.0f allocs", m.Name, allocs)
	if allocs > bestAssignmentAllocCeiling {
		t.Fatalf("BestAssignment allocates %.0f times, ceiling %d", allocs, bestAssignmentAllocCeiling)
	}
}

// TestNewtonIterationAllocatesNothing: once its workspace is sized, a
// Newton solve allocates nothing, however many iterations it runs.
func TestNewtonIterationAllocatesNothing(t *testing.T) {
	m := machine.FourCoreServer()
	for _, names := range [][]string{{"mcf", "art"}, {"art", "vpr", "twolf", "equake"}} {
		feats := contendedGroup(t, m, names...)
		a := float64(m.Assoc)
		var w newtonWork
		iters, err := w.solve(context.Background(), feats, a)
		if err != nil {
			t.Fatalf("%v: %v", names, err)
		}
		if iters < 2 {
			t.Fatalf("%v: converged in %d iterations; the check needs several", names, iters)
		}
		want, err := solveNewton(context.Background(), feats, a)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if math.Float64bits(w.s[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%v: workspace S[%d] = %v, solveNewton %v", names, i, w.s[i], want[i])
			}
		}
		allocs := testing.AllocsPerRun(50, func() {
			if _, err := w.solve(context.Background(), feats, a); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("%v: %.1f allocs per %d-iteration solve, want 0", names, allocs, iters)
		}
	}
}
