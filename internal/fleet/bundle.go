// Policy bundles: the four legacy -policy names expressed as canned
// sched pipelines. The scoring substance is unchanged — the model
// prioritizer is scoreNode verbatim, so the decision memo, the peek fast
// path, and the chaos fault seam all keep their exact legacy semantics —
// only the reduction moved into sched.Selector implementations and the
// candidate pruning into sched.Predicate stages.
//
// Compatibility contract: a legacy bundle filters with NodeUp ONLY. The
// legacy scheduler consulted the "fleet.score" seam (and the decision
// memo) for every up node, full or not, and the chaos goldens pin that
// fault realization; capacity predicates (FreeSlot, PerCoreCap) therefore
// belong to custom pipelines (Config.ExtraPredicates / MaxFeasible),
// where cutting solves is the whole point and no golden constrains the
// consult set.

package fleet

import (
	"context"
	"fmt"

	"mpmc/internal/sched"
	"mpmc/internal/workload"
)

// bundle is one assembled placement pipeline plus the fleet-side quirks
// sched stays agnostic of.
type bundle struct {
	pipe *sched.Pipeline
	// zeroScore blanks Placed.Score (Spread reports no score; its
	// prioritizer value is a rotation distance, not a model quantity).
	zeroScore bool
	// advance moves the round-robin cursor past the winner (Spread).
	advance bool
}

// modelPrioritizer adapts scoreNode — the policy's model scoring, memo
// and fault seam included — into the pipeline.
type modelPrioritizer struct {
	f *Fleet
}

func (p modelPrioritizer) Name() string { return "model:" + p.f.cfg.Policy.String() }

func (p modelPrioritizer) Score(ctx context.Context, a sched.Arrival, n *sched.CandidateNode) (sched.Score, error) {
	return p.f.scoreNode(ctx, p.f.nodes[n.Index], a.Payload.(*workload.Spec))
}

// spreadPrioritizer is the round-robin baseline as a scoring stage: the
// value is the node's rotation distance from the cursor, the core the
// least-loaded admissible one (ties to the lowest index), so MinValue
// reproduces "first admissible machine in rotation" exactly. It reads
// only cached per-core counts — no model, no solver.
type spreadPrioritizer struct {
	f *Fleet
}

func (p spreadPrioritizer) Name() string { return "spread" }

func (p spreadPrioritizer) Score(_ context.Context, _ sched.Arrival, cn *sched.CandidateNode) (sched.Score, error) {
	f := p.f
	n := f.nodes[cn.Index]
	asg := f.assignmentOf(n)
	bestCore, bestLoad := -1, 0
	for c := range asg {
		if n.cfg.MaxPerCore != 0 && len(asg[c]) >= n.cfg.MaxPerCore {
			continue
		}
		if bestCore < 0 || len(asg[c]) < bestLoad {
			bestCore, bestLoad = c, len(asg[c])
		}
	}
	if bestCore < 0 {
		return sched.Score{}, nil
	}
	dist := cn.Index - f.rrNode
	if dist < 0 {
		dist += len(f.nodes)
	}
	return sched.Score{OK: true, Core: bestCore, Value: float64(dist)}, nil
}

// newBundle assembles the active policy's pipeline, appending the
// caller's extra predicates and feasibility cut on top of the canned
// stages.
func newBundle(f *Fleet) (*bundle, error) {
	preds := append([]sched.Predicate{sched.NodeUp{}}, f.cfg.ExtraPredicates...)
	b := &bundle{}
	var prio sched.Prioritizer
	var sel sched.Selector
	switch f.cfg.Policy {
	case LeastDegradation, LeastWatts, ColocateSharers, SpreadSharers, LeastEnergy, CapAware:
		// The thread-group policies differ from LeastDegradation only in
		// how PlaceGroup shapes arrivals into bundles; per-spec scoring
		// is the same least-total-SPI-increase pipeline. The frequency-
		// aware policies widen the per-node scan to (core, state) slots
		// inside scoreNodeCold but still reduce with min-value.
		prio, sel = modelPrioritizer{f}, sched.MinValue{}
	case BinPack:
		prio, sel = modelPrioritizer{f}, sched.CeilingFirstFit{Ceiling: f.cfg.BinPackCeiling}
	case Spread:
		prio, sel = spreadPrioritizer{f}, sched.MinValue{}
		b.zeroScore, b.advance = true, true
	default:
		return nil, errUnknownPolicy(f.cfg.Policy)
	}
	pipe, err := sched.New(f.cfg.Policy.String(), preds, []sched.Weighted{{Prioritizer: prio, Weight: 1}}, sel)
	if err != nil {
		return nil, fmt.Errorf("fleet: assembling %s pipeline: %w", f.cfg.Policy, err)
	}
	pipe.MaxFeasible = f.cfg.MaxFeasible
	b.pipe = pipe
	return b, nil
}

// candidatesLocked refreshes the pipeline's view of every node — the
// cheap, model-free facts predicates filter on — into per-fleet reusable
// buffers. Callers must hold every lock; the result is valid until
// the next placement mutates a node.
func (f *Fleet) candidatesLocked() []*sched.CandidateNode {
	if f.candPtrs == nil {
		f.cands = make([]sched.CandidateNode, len(f.nodes))
		f.candPtrs = make([]*sched.CandidateNode, len(f.nodes))
		for i, n := range f.nodes {
			f.cands[i] = sched.CandidateNode{
				Index:      i,
				Name:       n.cfg.Name,
				MaxPerCore: n.cfg.MaxPerCore,
				Labels:     n.cfg.Labels,
				Taints:     n.cfg.Taints,
				PerCore:    make([]int, n.cfg.Machine.NumCores),
			}
			f.candPtrs[i] = &f.cands[i]
		}
	}
	for i, n := range f.nodes {
		c := &f.cands[i]
		c.Up = !n.down
		if n.down {
			continue
		}
		asg := f.assignmentOf(n)
		residents := 0
		for ci := range asg {
			c.PerCore[ci] = len(asg[ci])
			residents += len(asg[ci])
		}
		c.FreeSlots = -1
		if n.cfg.MaxPerCore > 0 {
			c.FreeSlots = n.cfg.MaxPerCore*n.cfg.Machine.NumCores - residents
		}
	}
	return f.candPtrs
}

// SolverInvocations reports how many cache-group equilibrium solves the
// fleet has actually executed (memo hits excluded). The scale tests pin
// the predicate cut with it: a predicated pipeline must place the same
// trace with an order of magnitude fewer solves than score-everything.
func (f *Fleet) SolverInvocations() uint64 { return f.solves.Load() }
