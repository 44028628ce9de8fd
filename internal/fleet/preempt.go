// Priority-class preemption: when the pipeline filters every candidate
// out (the fleet is full for this arrival) and the arrival's class
// outranks a resident, the fleet evicts the cheapest victim — lowest
// priority class first, least fleet-wide predicted-SPI loss within the
// class — places the arrival into the freed capacity, and requeues the
// victim through the admission queue with exponential backoff (the
// sched.Ledger). The whole exchange is transactional: the fleet is
// snapshotted first (snapshotLocked), and any failure after the eviction
// restores the cluster bit-for-bit before the error surfaces. Callers hold
// every lock, so the victim is the cheapest one fleet-wide whatever the
// lock-group split.

package fleet

import (
	"context"
	"errors"
	"fmt"

	"mpmc/internal/manager"
	"mpmc/internal/wal"
	"mpmc/internal/workload"
)

// preemptTargets is preemptLocked's victim scan, split out for testing:
// it returns the index of the node hosting the chosen victim and the
// victim itself, or ok false when no resident is outranked. Deterministic
// at any worker count: nodes in index order, residents in the manager's
// core/arrival order, strict less-than comparisons.
func (f *Fleet) victimLocked(ctx context.Context, priority int) (nodeIdx int, victim manager.Resident, ok bool, err error) {
	bestPrio, bestDelta := 0, 0.0
	for i, n := range f.nodes {
		if n.down {
			continue
		}
		residents := n.mgr.Residents()
		if len(residents) == 0 {
			continue
		}
		baseComputed := false
		base := 0.0
		for _, r := range residents {
			prio := n.meta[r.Name].priority
			if prio >= priority {
				continue
			}
			if !baseComputed {
				if base, err = f.nodeSPI(ctx, n.cfg.Machine, f.assignmentOf(n)); err != nil {
					return 0, manager.Resident{}, false, err
				}
				baseComputed = true
			}
			after, err := f.nodeSPI(ctx, n.cfg.Machine, withoutResident(f.assignmentOf(n), r))
			if err != nil {
				return 0, manager.Resident{}, false, err
			}
			// delta is how much fleet-wide predicted SPI the eviction
			// removes; smaller = cheaper victim (the evicted process was
			// contributing little, or relieving much contention).
			delta := base - after
			if !ok || prio < bestPrio || (prio == bestPrio && delta < bestDelta) {
				nodeIdx, victim, ok = i, r, true
				bestPrio, bestDelta = prio, delta
			}
		}
	}
	return nodeIdx, victim, ok, nil
}

// preemptLocked attempts one preemption for an arrival the pipeline just
// rejected as unplaceable. It reports ok false — cluster untouched — when
// no resident is outranked; the caller then surfaces the original
// ErrFleetFull. An error after the eviction starts rolls every machine,
// rung, ledger row, and the cursor back before returning, so a failed
// preemption is indistinguishable from one never attempted.
func (f *Fleet) preemptLocked(ctx context.Context, spec *workload.Spec, opts PlaceOptions) (Placed, bool, error) {
	vi, victim, ok, err := f.victimLocked(ctx, opts.Priority)
	if err != nil || !ok {
		return Placed{}, false, err
	}
	vnode := f.nodes[vi]
	vmeta := vnode.meta[victim.Name]

	// Transaction window: placement may choose any node. The queue,
	// preemption ledger, and counters are only touched after the placement
	// commits, so they never need restoring.
	tx := f.snapshotLocked()
	if err := vnode.mgr.Remove(victim.Name); err != nil {
		return Placed{}, false, fmt.Errorf("fleet: evicting preemption victim %s from %s: %w",
			victim.Name, vnode.cfg.Name, err)
	}
	p, err := f.decideAndCommitLocked(ctx, spec, opts)
	if err != nil {
		f.rollbackLocked(tx)
		f.reg.Counter("fleet_preempt_aborted_total").Inc()
		if errors.Is(err, ErrFleetFull) {
			// Even the freed slot did not admit the arrival (it can only
			// happen under adversarial extra predicates): report the
			// original condition, cluster untouched.
			return Placed{}, false, nil
		}
		return Placed{}, false, fmt.Errorf("fleet: preemption rolled back: %w", err)
	}

	// The arrival is committed (commitLocked stamped its node); the
	// victim's node changed too.
	vnode.version++
	if f.capActive() {
		// The eviction lowered the victim node's draw (commitLocked already
		// re-priced the arrival's node). A failed estimate leaves the stale,
		// higher row — conservative, healed by the next resync.
		_ = f.resyncNodeCapLocked(ctx, vnode)
	}
	// The arrival is committed; now disposition the victim. Ledger key:
	// reuse the victim's recorded identity so repeat preemptions escalate
	// its backoff; first-time victims get the tag or a fresh ticket-based
	// identity.
	delete(vnode.meta, victim.Name)
	key := vmeta.key
	if key == "" {
		if key = vmeta.tag; key == "" {
			f.seq++
			key = fmt.Sprintf("preempt#%d", f.seq)
		}
	}
	info := &PreemptedInfo{
		Node:     vnode.cfg.Name,
		Name:     victim.Name,
		Workload: victim.Spec.Name,
		Tag:      vmeta.tag,
		Priority: vmeta.priority,
	}
	requeue, _ := f.ledger.Record(key, f.pumpRound)
	if requeue && f.cfg.QueueCap > 0 && len(f.queue) < f.cfg.QueueCap {
		f.seq++
		f.queue = append(f.queue, queued{
			spec:     victim.Spec,
			tag:      vmeta.tag,
			ticket:   f.seq,
			priority: vmeta.priority,
			key:      key,
		})
		f.qSubmitted.Inc()
		f.reg.Counter("fleet_preempt_requeued_total").Inc()
		info.Requeued = true
		info.Ticket = f.seq
	} else {
		// Attempt budget exhausted, queueing disabled, or queue full: the
		// victim is dropped — counted and reported, never silent.
		f.ledger.Forget(key)
		f.reg.Counter("fleet_preempt_dropped_total").Inc()
	}
	f.reg.Counter("fleet_preempt_total").Inc()
	// One journal event carries the whole victim disposition; it lands in
	// the same batch as the arrival's admitted event, so replay sees the
	// exchange atomically. (The admitted event precedes it in the batch —
	// the arrival appends at the end of the resident order either way, so
	// replay reproduces per-core arrival order exactly.)
	f.journalLocked(wal.Event{
		Type: wal.EvPreempted, Node: vnode.cfg.Name, Name: victim.Name,
		Bench: victim.Spec.Name, Tag: vmeta.tag, Priority: vmeta.priority,
		Requeued: info.Requeued, Ticket: info.Ticket,
	})
	p.Preempted = info
	return p, true, nil
}
