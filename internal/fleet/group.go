// Thread-group placement: admitting a group of T member threads as one
// transactional unit, shaped into derived bundle specs (internal/threads)
// according to the fleet policy.
//
// The policy decides the (local, remote) split:
//
//   - ColocateSharers admits ONE bundle of all T members: the shared
//     footprint is counted once, no coherence misses, private distances
//     dilated by the co-location.
//   - SpreadSharers admits T single-member bundles, preferring machines
//     no sibling of the same arrival occupies: undilated private
//     distances, but every member pays the coherence term for its T−1
//     remote siblings.
//   - Every other policy is group-OBLIVIOUS: T independent copies of the
//     base spec, exactly as if T unrelated legacy processes arrived
//     back-to-back (the comparison arm the exp study measures against).
//
// A single-thread group (T = 1) is indistinguishable from a legacy
// Place(base) under every policy: the bundle IS the base spec, no group
// shaping happens, and only the group ledger counters (registered lazily,
// so legacy fleets' metrics are untouched) record that a group passed by.
//
// The member ledger balances after every call: spawned = placed +
// faulted, with a group counted wholly placed or wholly faulted —
// chaos.Checker asserts exactly this invariant after every sim event.
package fleet

import (
	"context"
	"fmt"

	"mpmc/internal/parallel"
	"mpmc/internal/threads"
	"mpmc/internal/workload"
)

// shapeGroup shapes one group arrival into the member specs the policy
// wants to place, and whether they carry sibling anti-affinity.
func shapeGroup(policy Policy, g threads.GroupSpec) (specs []*workload.Spec, antiAffinity bool, err error) {
	if g.Threads == 1 {
		return []*workload.Spec{g.Base}, false, nil
	}
	switch policy {
	case ColocateSharers:
		b, err := g.Bundle(g.Threads, 0)
		if err != nil {
			return nil, false, err
		}
		return []*workload.Spec{b}, false, nil
	case SpreadSharers:
		b, err := g.Bundle(1, g.Threads-1)
		if err != nil {
			return nil, false, err
		}
		specs = make([]*workload.Spec, g.Threads)
		for i := range specs {
			specs[i] = b
		}
		return specs, true, nil
	default:
		specs = make([]*workload.Spec, g.Threads)
		for i := range specs {
			specs[i] = g.Base
		}
		return specs, false, nil
	}
}

// PlaceGroup admits one thread-group arrival transactionally: either
// every member instance is admitted, or every machine's resident set,
// DVFS rung, and ledger row, and the round-robin cursor, are restored and
// the error reports why (the cause stays reachable with errors.Is — a
// full fleet surfaces ErrFleetFull). The returned placements are in
// member order; under ColocateSharers a single placement stands for all
// T members.
func (f *Fleet) PlaceGroup(ctx context.Context, g threads.GroupSpec) ([]Placed, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	specs, antiAffinity, err := shapeGroup(f.cfg.Policy, g)
	if err != nil {
		return nil, err
	}
	if err := f.resolveFeatures(ctx, specs); err != nil {
		return nil, err
	}
	members := uint64(g.Threads)

	f.lockAll()
	defer f.unlockAll()
	// The group ledger is registered lazily (like fleet_node_down_total)
	// so fleets that never see a thread group keep their /metrics
	// exposition and sim reports byte-identical.
	f.reg.Counter("fleet_group_spawned_members_total").Add(members)
	used := map[int]bool{}
	out, err := f.placeBatchLocked(ctx, specs, "fleet: group rolled back after %d member placement(s): %w",
		func(s *workload.Spec) (Placed, error) {
			if antiAffinity {
				return f.placeAntiAffinityLocked(ctx, s, used)
			}
			return f.placeOneLocked(ctx, s, PlaceOptions{})
		})
	if err != nil {
		f.reg.Counter("fleet_group_faulted_members_total").Add(members)
		f.reg.Counter("fleet_groups_rejected_total").Inc()
		return nil, err
	}
	f.reg.Counter("fleet_group_placed_members_total").Add(members)
	f.reg.Counter("fleet_groups_placed_total").Inc()
	f.flushJournalLocked()
	return out, nil
}

// placeAntiAffinityLocked decides one spread-sharers member: all up nodes
// are scored concurrently (index-addressed, serial reduction, strict
// less-than — ties to the lowest node index at any worker count), nodes
// already hosting a sibling of this arrival are preferred against, and
// the winner is committed. When every admissible node already hosts a
// sibling, members double up rather than reject — anti-affinity is a
// preference; capacity is the constraint.
func (f *Fleet) placeAntiAffinityLocked(ctx context.Context, spec *workload.Spec, used map[int]bool) (Placed, error) {
	scores := make([]nodeScore, len(f.nodes))
	err := parallel.ForEach(ctx, f.cfg.Workers, len(f.nodes), func(i int) error {
		n := f.nodes[i]
		if n.down {
			return nil // zero score: OK=false
		}
		s, err := f.scoreNode(ctx, n, spec)
		if err != nil {
			return err
		}
		scores[i] = s
		return nil
	})
	if err != nil {
		return Placed{}, err
	}
	best := -1
	for i, s := range scores {
		if s.OK && !used[i] && (best < 0 || s.Value < scores[best].Value) {
			best = i
		}
	}
	if best < 0 {
		for i, s := range scores {
			if s.OK && (best < 0 || s.Value < scores[best].Value) {
				best = i
			}
		}
	}
	if best < 0 {
		return Placed{}, fmt.Errorf("fleet: %w for %s", ErrFleetFull, spec.Name)
	}
	p, err := f.commitLocked(ctx, spec, PlaceOptions{}, best, scores[best])
	if err != nil {
		return Placed{}, err
	}
	used[best] = true
	return p, nil
}
