// Detached scoring: the queue pump's equilibrium solves — and, with more
// than one lock group, a single placement's — run outside every lock
// against a version-stamped view, so Submit/Cancel/State are never
// blocked behind a scoring pass. Correctness rests on three facts:
// captured assignment snapshots are immutable (assignmentOf replaces, and
// every scoring path copies on write), the score/feature caches and the
// solver state are concurrency-safe and content-addressed, and a commit
// only lands when the WINNING node's version still equals the view's
// per-node stamp — a mutation on the chosen node forces a re-score
// (which then decides exactly what a fresh in-lock pass would), while
// mutations on other nodes never invalidate, so placements on disjoint
// lock groups commit concurrently. A no-fit outcome is the one
// fleet-wide claim: the pump revalidates it against the fleet version,
// and a single placement confirms it under every lock.

package fleet

import (
	"context"
	"errors"

	"mpmc/internal/core"
	"mpmc/internal/parallel"
	"mpmc/internal/sched"
	"mpmc/internal/workload"
)

// viewNode is one node's scoring inputs, captured under its group lock.
type viewNode struct {
	n    *node
	ver  uint64 // the node's version at capture time
	cand sched.CandidateNode
	feat *core.FeatureVector
	asg  core.Assignment
	dkey string
	fix  int // the node's DVFS rung at capture time
}

// placeView is a consistent, version-stamped snapshot of every node's
// scoring inputs for one arrival.
type placeView struct {
	nodes []viewNode
	ver   uint64 // fleet version, revalidating no-fit outcomes
}

// captureNodeLocked snapshots one node's scoring inputs for one
// arrival. Callers must hold the node's group lock.
func (f *Fleet) captureNodeLocked(ctx context.Context, i int, spec *workload.Spec) (viewNode, error) {
	n := f.nodes[i]
	vn := viewNode{n: n, ver: n.version, fix: n.freqIx}
	vn.cand = sched.CandidateNode{
		Index:      i,
		Name:       n.cfg.Name,
		Up:         !n.down,
		MaxPerCore: n.cfg.MaxPerCore,
		Labels:     n.cfg.Labels,
		Taints:     n.cfg.Taints,
	}
	if n.down {
		return vn, nil
	}
	feat, ok := f.feats.peek(n.cfg.Machine, spec)
	if !ok {
		// Entries submitted after Pump's resolve sweep (or evicted
		// since) profile here, exactly like the in-lock path would.
		var err error
		if feat, err = f.feats.get(ctx, n.cfg.Machine, spec); err != nil {
			return viewNode{}, err
		}
	}
	asg := f.assignmentOf(n)
	vn.feat, vn.asg = feat, asg
	if f.scores != nil {
		vn.dkey = f.decisionKeyOf(n, feat)
	}
	vn.cand.PerCore = make([]int, len(asg))
	residents := 0
	for ci := range asg {
		vn.cand.PerCore[ci] = len(asg[ci])
		residents += len(asg[ci])
	}
	vn.cand.FreeSlots = -1
	if n.cfg.MaxPerCore > 0 {
		vn.cand.FreeSlots = n.cfg.MaxPerCore*n.cfg.Machine.NumCores - residents
	}
	return vn, nil
}

// captureViewLocked snapshots the fleet for one arrival. Callers must
// hold every lock; the returned view is safe to score after release
// because nothing in it is ever mutated in place.
func (f *Fleet) captureViewLocked(ctx context.Context, spec *workload.Spec) (*placeView, error) {
	v := &placeView{nodes: make([]viewNode, len(f.nodes)), ver: f.version.Load()}
	for i := range f.nodes {
		vn, err := f.captureNodeLocked(ctx, i, spec)
		if err != nil {
			return nil, err
		}
		v.nodes[i] = vn
	}
	return v, nil
}

// scoreViewDetached scores spec against a captured view, reproducing
// Pipeline.Decide exactly: feasible candidates collected in index order
// (MaxFeasible cut included), scored into index-addressed slots through
// the parallel engine, infeasible nodes left !OK. The caller reduces the
// returned node-indexed vector with the pipeline's selector — selectors
// skip !OK entries, so the winner is bit-identical to the in-lock
// decision against the same state, at any worker count.
func (f *Fleet) scoreViewDetached(ctx context.Context, v *placeView, spec *workload.Spec, opts PlaceOptions) ([]nodeScore, error) {
	arr := sched.Arrival{Key: spec.Name, Priority: opts.Priority, Tolerations: opts.Tolerations, Payload: spec}
	feasible := make([]int, 0, len(v.nodes))
	for i := range v.nodes {
		vn := &v.nodes[i]
		if !vn.cand.Up || !f.pipe.pipe.Admit(arr, &vn.cand) {
			continue
		}
		feasible = append(feasible, i)
		if f.cfg.MaxFeasible > 0 && len(feasible) == f.cfg.MaxFeasible {
			break
		}
	}
	scores := make([]nodeScore, len(v.nodes))
	err := parallel.ForEach(ctx, f.cfg.Workers, len(feasible), func(i int) error {
		ni := feasible[i]
		s, serr := f.scoreNodeDetached(ctx, &v.nodes[ni], spec)
		if serr != nil {
			return serr
		}
		scores[ni] = s
		return nil
	})
	if err != nil {
		return nil, err
	}
	return scores, nil
}

// scoreNodeDetached is scoreNode against captured inputs: same fault
// seam, same decision memo, same cold scoring — but reading only the
// view (the decision key was built under the lock at capture time, so
// the per-node key caches are never touched here).
func (f *Fleet) scoreNodeDetached(ctx context.Context, vn *viewNode, spec *workload.Spec) (nodeScore, error) {
	if f.cfg.Intercept != nil {
		if err := f.cfg.Intercept("fleet.score", vn.n.cfg.Name); err != nil {
			return nodeScore{}, err
		}
	}
	// CapAware never memoizes (see scoreNode): the key cannot encode the
	// live cap headroom its decisions depend on.
	useMemo := f.scores != nil && f.cfg.Policy != CapAware
	if useMemo {
		if s, ok := f.scores.getDecision(vn.dkey); ok {
			return s, nil
		}
	}
	s, err := f.scoreNodeCold(ctx, vn.n, vn.feat, vn.asg, vn.fix)
	if err == nil && useMemo {
		f.scores.putDecision(vn.dkey, s)
	}
	return s, err
}

// placeAttempts bounds the optimistic placement loop before it falls
// back to the all-locks path (which always terminates).
const placeAttempts = 8

// placeDetached is the optimistic single placement: capture each group
// under its own lock, score every node detached, and commit on the
// winning node under that node's group lock alone, provided its version
// stamp is unchanged. A conflict re-captures and re-scores only the
// winner, then re-picks. ok is false — nothing committed, no error —
// when the pass finds no feasible slot or the ledger refuses the winner
// (both fleet-wide claims that must be confirmed against a consistent
// cluster before rejecting or preempting) or after placeAttempts
// conflicts; the caller then decides under every lock.
func (f *Fleet) placeDetached(ctx context.Context, spec *workload.Spec, opts PlaceOptions) (p Placed, ok bool, err error) {
	v := &placeView{nodes: make([]viewNode, len(f.nodes))}
	for _, g := range f.groups {
		g.mu.Lock()
		for i := g.lo; i < g.hi && err == nil; i++ {
			v.nodes[i], err = f.captureNodeLocked(ctx, i, spec)
		}
		g.mu.Unlock()
		if err != nil {
			return Placed{}, false, err
		}
	}
	scores, err := f.scoreViewDetached(ctx, v, spec, opts)
	if err != nil {
		return Placed{}, false, err
	}
	for attempt := 0; attempt < placeAttempts; attempt++ {
		pick := f.pipe.pipe.Selector().Pick(scores)
		if pick < 0 {
			return Placed{}, false, nil
		}
		p, ok, err = f.commitScored(ctx, spec, opts, pick, scores[pick], v.nodes[pick].ver)
		switch {
		case errors.Is(err, ErrFleetFull):
			return Placed{}, false, nil
		case ok || err != nil:
			return p, ok, err
		}
		f.conflicts.Inc()
		if scores[pick], v.nodes[pick].ver, err = f.rescoreNodeDetached(ctx, pick, spec, opts); err != nil {
			return Placed{}, false, err
		}
	}
	return Placed{}, false, nil
}

// rescoreNodeDetached refreshes a single node's entry in a detached
// score vector after a commit conflict: only the conflicted node's
// inputs are recaptured (under its group lock alone) and re-scored, with
// a fresh version stamp for the retried commit. The other entries stay
// as captured — safe, because an unchanged stamp certifies an unchanged
// assignment, and commitScored revalidates whichever node eventually
// wins. A MaxFeasible cut is a property of the whole feasible set, which
// is why NewSharded refuses it with more than one group.
func (f *Fleet) rescoreNodeDetached(ctx context.Context, i int, spec *workload.Spec, opts PlaceOptions) (nodeScore, uint64, error) {
	g := f.nodes[i].grp
	g.mu.Lock()
	vn, err := f.captureNodeLocked(ctx, i, spec)
	g.mu.Unlock()
	if err != nil {
		return nodeScore{}, 0, err
	}
	arr := sched.Arrival{Key: spec.Name, Priority: opts.Priority, Tolerations: opts.Tolerations, Payload: spec}
	if !vn.cand.Up || !f.pipe.pipe.Admit(arr, &vn.cand) {
		return nodeScore{}, vn.ver, nil
	}
	s, err := f.scoreNodeDetached(ctx, &vn, spec)
	if err != nil {
		return nodeScore{}, 0, err
	}
	return s, vn.ver, nil
}

// commitScored commits a detached decision: under the winning node's
// group lock alone, its version stamp is revalidated (a mismatch returns
// ok=false and commits nothing — the caller re-scores) and the slot
// commits through the node manager and the watt ledger exactly like an
// in-lock placement. The queue lock is taken last, only to stage and
// flush the journal batch: still inside the group lock, so the lock
// order stays group→queue and the log records each node's mutations in
// the order they happened.
func (f *Fleet) commitScored(ctx context.Context, spec *workload.Spec, opts PlaceOptions, best int, s nodeScore, ver uint64) (Placed, bool, error) {
	n := f.nodes[best]
	n.grp.mu.Lock()
	defer n.grp.mu.Unlock()
	if n.version != ver {
		return Placed{}, false, nil
	}
	p, retuned, err := f.commitNodeLocked(ctx, spec, opts, best, s)
	if err != nil {
		return Placed{}, false, err
	}
	f.mu.Lock()
	f.journalCommitLocked(n, spec, opts, p, retuned)
	f.flushJournalLocked()
	f.mu.Unlock()
	f.placed.Inc()
	return p, true, nil
}
