package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sort"

	"mpmc/internal/machine"
)

// AssignmentResult pairs a candidate assignment with its estimated power.
type AssignmentResult struct {
	Assignment Assignment
	Watts      float64
}

// ErrSearchSpaceTooLarge reports an assignment search over more than
// 2^20 raw layouts (coreCount^k).
var ErrSearchSpaceTooLarge = errors.New("core: assignment search space too large")

// maxSearchLayouts bounds coreCount^k, the raw layouts BestAssignment
// enumerates before discarding the non-canonical ones.
const maxSearchLayouts = 1 << 20

// BestAssignment exhaustively searches process-to-core mappings of the
// given processes and returns them sorted by estimated average processor
// power — the power-aware assignment application of Section 5. The search
// space is coreCount^k, reduced by the estimation cost being linear in
// profiling effort rather than exponential in co-run measurements (the
// paper's headline complexity win).
//
// maxResults bounds the returned slice (0 = all). It is
// BestAssignmentContext without a caller deadline.
func (cm *CombinedModel) BestAssignment(procs []*FeatureVector, maxResults int) ([]AssignmentResult, error) {
	return cm.BestAssignmentContext(context.Background(), procs, maxResults)
}

// BestAssignmentContext is BestAssignment under a caller-supplied context,
// checked once per candidate assignment: an abandoned request stops the
// exhaustive search within one estimation step.
//
// Candidates share most of their work: the layouts of one cache group
// recur across the other groups' layouts, and one co-run recurs across
// layouts. A request-scoped assignMemo therefore solves each distinct
// co-run, and averages each distinct group layout, once per call. The
// results are bit-identical to estimating every candidate on its own with
// EstimateAssignmentContext.
func (cm *CombinedModel) BestAssignmentContext(ctx context.Context, procs []*FeatureVector, maxResults int) ([]AssignmentResult, error) {
	if len(procs) == 0 {
		return nil, fmt.Errorf("core: no processes to assign")
	}
	n := cm.Machine.NumCores
	total := 1
	for range procs {
		// Bound before multiplying: the product wraps to zero at 32
		// processes on 4 cores.
		if total > maxSearchLayouts/n {
			return nil, fmt.Errorf("%w: %d processes on %d cores", ErrSearchSpaceTooLarge, len(procs), n)
		}
		total *= n
	}
	for i, f := range procs {
		if f == nil {
			return nil, fmt.Errorf("core: nil feature for process %d", i)
		}
		if err := f.Validate(); err != nil {
			return nil, err
		}
	}
	memo := newAssignMemo(cm.Machine, procs)
	choice := make([]int, len(procs))
	first := make([]int, n)
	count := make([]int, n)
	var cores slab[[]*FeatureVector]
	var members slab[*FeatureVector]
	var results []AssignmentResult
	for idx := 0; idx < total; idx++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		v := idx
		for i := range choice {
			choice[i] = v % n
			v /= n
		}
		if !canonicalChoice(choice, cm.Machine.Groups, first) {
			continue
		}
		clear(count)
		for _, c := range choice {
			count[c]++
		}
		asg := Assignment(cores.take(n))
		for c, k := range count {
			if k > 0 {
				asg[c] = members.take(k)[:0]
			}
		}
		for i, c := range choice {
			asg[c] = append(asg[c], procs[i])
		}
		memo.load(choice, count)
		watts, err := cm.estimate(ctx, asg, memo)
		if err != nil {
			return nil, err
		}
		results = append(results, AssignmentResult{Assignment: asg, Watts: watts})
	}
	sort.Slice(results, func(i, j int) bool { return results[i].Watts < results[j].Watts })
	if maxResults > 0 && len(results) > maxResults {
		results = results[:maxResults]
	}
	return results, nil
}

// canonicalChoice suppresses assignments equivalent under permuting cores
// within a cache group (the model is symmetric in them): it keeps only the
// representative where, within each group, cores are "used" in order and
// the first process index on each used core increases. first is scratch
// of at least the largest group's length.
func canonicalChoice(choice []int, groups [][]int, first []int) bool {
	for _, g := range groups {
		// first[i] = index of the first process assigned to g[i], or -1.
		first := first[:len(g)]
		for i := range first {
			first[i] = -1
		}
		for pi, c := range choice {
			for i, gc := range g {
				if gc == c && first[i] < 0 {
					first[i] = pi
				}
			}
		}
		// Cores inside a group must be used in increasing first-process
		// order, with unused cores trailing.
		prev := -1
		seenEmpty := false
		for _, f := range first {
			if f < 0 {
				seenEmpty = true
				continue
			}
			if seenEmpty || f < prev {
				return false
			}
			prev = f
		}
	}
	return true
}

// slab hands out fixed-length slices cut from shared backing arrays, so
// the many small slices of one search cost a handful of allocations.
// Every slice is cut with cap == len: an append on one can never write
// into its neighbour.
type slab[T any] struct {
	buf  []T
	next int // length of the next backing array
}

func (s *slab[T]) take(n int) []T {
	if len(s.buf) < n {
		s.next = max(2*s.next, n, 64)
		s.buf = make([]T, s.next)
	}
	out := s.buf[:n:n]
	s.buf = s.buf[n:]
	return out
}

// assignMemo is BestAssignmentContext's request-scoped memo. It names
// processes by their index in the request, so its keys are small
// integers rather than pointer ids or strings, and it holds two tables:
//
//   - combos: an ordered co-run (one process per busy core of a group) →
//     the Eq. 9 core power of each member, in member order;
//   - groups[gi]: the layout of the request's processes restricted to
//     cache group gi → the group's Eq. 10 watts.
//
// Both values are pure functions of their keys given the model, so a hit
// returns what estimateGroup would compute again. A combo key names each
// member by canon, the first index holding the same feature vector, so
// the shared pointers of a rebalance share entries. The memo lives for
// one call and is never shared: its keys mean nothing outside the
// request's process list.
type assignMemo struct {
	canon   []int    // canon[i]: smallest j with procs[j] == procs[i]
	radix   uint64   // combo key radix: len(procs) + 1
	groupOf []int    // cache group of each core
	slot    []uint64 // 1 + each core's position within its group
	gradix  []uint64 // group key radix per group: its size + 1

	choice []int   // current candidate: core of each process
	cores  [][]int // current candidate: process indices per core
	idx    []int   // backing array of cores

	combos map[uint64][]float64
	groups []map[uint64]float64
	powers slab[float64]

	scratch groupScratch
}

// newAssignMemo builds the memo for one search, or returns nil (no
// memoization) when a key could overflow 64 bits — only possible on a
// single-core machine with 64 or more processes, which has one layout.
func newAssignMemo(m *machine.Machine, procs []*FeatureVector) *assignMemo {
	k := len(procs)
	memo := &assignMemo{
		canon:   make([]int, k),
		radix:   uint64(k) + 1,
		groupOf: make([]int, m.NumCores),
		slot:    make([]uint64, m.NumCores),
		gradix:  make([]uint64, len(m.Groups)),
		cores:   make([][]int, m.NumCores),
		idx:     make([]int, k),
		combos:  make(map[uint64][]float64),
		groups:  make([]map[uint64]float64, len(m.Groups)),
	}
	for gi, g := range m.Groups {
		memo.gradix[gi] = uint64(len(g)) + 1
		// A group key has k digits; a combo key at most min(len(g), k).
		if !powFits(memo.gradix[gi], k) || !powFits(memo.radix, min(len(g), k)) {
			return nil
		}
		for pos, c := range g {
			memo.groupOf[c] = gi
			memo.slot[c] = uint64(pos) + 1
		}
		memo.groups[gi] = make(map[uint64]float64)
	}
	for i, f := range procs {
		memo.canon[i] = i
		for j := range i {
			if procs[j] == f {
				memo.canon[i] = j
				break
			}
		}
	}
	return memo
}

// powFits reports whether base^exp fits in a uint64.
func powFits(base uint64, exp int) bool {
	v := uint64(1)
	for range exp {
		hi, lo := bits.Mul64(v, base)
		if hi != 0 {
			return false
		}
		v = lo
	}
	return true
}

// load points the memo at the next candidate: choice[i] is process i's
// core and count[c] the number of processes on core c. cores[c] lists
// those processes in index order, the order the candidate's Assignment
// lists their feature vectors in.
func (m *assignMemo) load(choice, count []int) {
	if m == nil {
		return
	}
	m.choice = choice
	off := 0
	for c, k := range count {
		m.cores[c] = m.idx[off : off : off+k]
		off += k
	}
	for i, c := range choice {
		m.cores[c] = append(m.cores[c], i)
	}
}

// groupWatts looks up group gi's watts under the current candidate,
// returning the key to record under on a miss. The key is the
// candidate's choice vector restricted to the group: digit i is 1 + the
// position of process i's core within the group, or 0 outside it.
func (m *assignMemo) groupWatts(gi int) (key uint64, watts float64, ok bool) {
	if m == nil {
		return 0, 0, false
	}
	radix := m.gradix[gi]
	for _, c := range m.choice {
		var d uint64
		if m.groupOf[c] == gi {
			d = m.slot[c]
		}
		key = key*radix + d
	}
	watts, ok = m.groups[gi][key]
	return key, watts, ok
}

func (m *assignMemo) recordGroup(gi int, key uint64, watts float64) {
	if m != nil {
		m.groups[gi][key] = watts
	}
}

// comboPowers looks up the co-run that picks entry pos[i] of each busy
// core busy[i], returning the key to record under on a miss.
func (m *assignMemo) comboPowers(busy, pos []int) (key uint64, powers []float64, ok bool) {
	if m == nil {
		return 0, nil, false
	}
	for i, c := range busy {
		key = key*m.radix + uint64(m.canon[m.cores[c][pos[i]]]) + 1
	}
	powers, ok = m.combos[key]
	return key, powers, ok
}

func (m *assignMemo) recordCombo(key uint64, powers []float64) {
	if m != nil {
		m.combos[key] = append(m.powers.take(len(powers))[:0], powers...)
	}
}

// SpreadBaseline assigns processes round-robin across cores (the naive
// load balancer), for comparison against the power-aware choice.
func SpreadBaseline(machineCores int, procs []*FeatureVector) Assignment {
	asg := make(Assignment, machineCores)
	for i, f := range procs {
		c := i % machineCores
		asg[c] = append(asg[c], f)
	}
	return asg
}

// EnergyEstimate converts an assignment's power estimate and the procs'
// predicted throughputs into an energy-per-work figure: watts divided by
// aggregate predicted instructions per second. Lower is better when
// choosing assignments for energy rather than power.
func (cm *CombinedModel) EnergyEstimate(asg Assignment) (joulesPerGigaInstr float64, err error) {
	watts, err := cm.EstimateAssignment(asg)
	if err != nil {
		return 0, err
	}
	ips := 0.0
	for _, group := range cm.Machine.Groups {
		var members []*FeatureVector
		var share []float64 // time share of each member on its core
		for _, c := range group {
			k := len(asg[c])
			for _, f := range asg[c] {
				members = append(members, f)
				share = append(share, 1/float64(k))
			}
		}
		if len(members) == 0 {
			continue
		}
		preds, err := PredictGroup(members, cm.Machine.Assoc, cm.Solver)
		if err != nil {
			return 0, err
		}
		for i, p := range preds {
			ips += share[i] / p.SPI
		}
	}
	if ips == 0 {
		return math.Inf(1), nil
	}
	return watts / ips * 1e9, nil
}
