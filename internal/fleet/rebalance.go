package fleet

import (
	"context"
	"fmt"

	"mpmc/internal/core"
	"mpmc/internal/freq"
	"mpmc/internal/manager"
	"mpmc/internal/parallel"
	"mpmc/internal/wal"
	"mpmc/internal/workload"
)

// Move describes one executed cross-machine migration.
type Move struct {
	From     string `json:"from"`
	To       string `json:"to"`
	Name     string `json:"name"`     // instance name on the source node
	NewName  string `json:"new_name"` // instance name on the target node
	Workload string `json:"workload"`
	Core     int    `json:"core"` // target core
	// SPIBefore/SPIAfter are the fleet-wide predicted SPI totals around the
	// move; Improvement is their difference (positive = faster fleet).
	SPIBefore   float64 `json:"spi_before"`
	SPIAfter    float64 `json:"spi_after"`
	Improvement float64 `json:"improvement"`
}

// candidate is one prospective migration: resident r of nodes[src] moving
// to core dstCore of nodes[dst].
type candidate struct {
	src, dst, dstCore int
	res               manager.Resident
}

// Rebalance finds the single best cross-machine move — the one that most
// reduces the fleet-wide total predicted SPI — and executes it when the
// improvement clears minImprovement (in absolute SPI units; 0 accepts any
// strict improvement). Intra-machine layout is the per-node
// manager.Rebalance's job; this pass only ever moves a process between
// machines.
//
// When no move clears the bar the error wraps manager.ErrNoImprovement.
// Execution is transactional: the source and target managers are
// snapshotted, and a failure during remove/re-place restores both before
// the error is returned, so a failed rebalance leaves every machine
// exactly as it was.
func (f *Fleet) Rebalance(ctx context.Context, minImprovement float64) (Move, error) {
	// Warm the feature cache for every (machine kind, resident workload)
	// pair outside the lock: in a heterogeneous fleet a resident has only
	// been profiled against its own machine kind so far.
	f.lockAll()
	var specs []*workload.Spec
	for _, n := range f.nodes {
		if n.down {
			continue
		}
		for _, r := range n.mgr.Residents() {
			specs = append(specs, r.Spec)
		}
	}
	f.unlockAll()
	if err := f.resolveFeatures(ctx, specs); err != nil {
		return Move{}, err
	}

	f.lockAll()
	defer f.unlockAll()

	if f.cfg.Intercept != nil {
		// Injection seam ahead of any scoring or mutation: an injected
		// error abandons the pass with every machine untouched.
		if err := f.cfg.Intercept("fleet.rebalance", ""); err != nil {
			return Move{}, err
		}
	}

	// Fleet-wide baseline: each node's total predicted SPI as placed.
	// Down nodes hold no residents and accept no moves; they contribute
	// zero to the baseline and are skipped below.
	// Warm every live node's assignment snapshot serially first: the
	// candidate fan-out below reads the same nodes from many workers at
	// once, and the per-node cache must not see concurrent first fills.
	for _, n := range f.nodes {
		if !n.down {
			f.assignmentOf(n)
		}
	}
	base, err := parallel.Map(ctx, f.cfg.Workers, len(f.nodes), func(i int) (float64, error) {
		if f.nodes[i].down {
			return 0, nil
		}
		return f.nodeSPI(ctx, f.nodes[i].cfg.Machine, f.assignmentOf(f.nodes[i]))
	})
	if err != nil {
		return Move{}, err
	}
	baseTotal := 0.0
	for _, b := range base {
		baseTotal += b
	}

	// Enumerate every (resident, target node, target core) in a fixed
	// order — source nodes by index, residents in core/arrival order,
	// targets by index, cores by index — so the strict less-than reduction
	// below is deterministic at any worker count.
	residents := make([][]manager.Resident, len(f.nodes))
	for i, n := range f.nodes {
		if n.down {
			continue
		}
		residents[i] = n.mgr.Residents()
	}
	var cands []candidate
	for i := range f.nodes {
		for _, r := range residents[i] {
			for j, dst := range f.nodes {
				if j == i || dst.down {
					continue
				}
				running := dst.mgr.Running()
				for c := 0; c < dst.cfg.Machine.NumCores; c++ {
					if dst.cfg.MaxPerCore != 0 && len(running[c]) >= dst.cfg.MaxPerCore {
						continue
					}
					cands = append(cands, candidate{src: i, dst: j, dstCore: c, res: r})
				}
			}
		}
	}
	if len(cands) == 0 {
		f.noops.Inc()
		return Move{}, fmt.Errorf("fleet: %w: no movable process", manager.ErrNoImprovement)
	}

	// Score every candidate concurrently: the fleet total if the move were
	// made. Only the source and target terms change, and both route
	// through the group-score memo — so the source machine minus its
	// departing resident is solved once per (source, resident), not once
	// per (destination, core) candidate as it used to be (every candidate
	// sharing a source resident now recalls the same memoized terms, with
	// the singleflight collapsing concurrent first solves), and candidate
	// target groups recall any terms placement scoring already solved.
	totals, err := parallel.Map(ctx, f.cfg.Workers, len(cands), func(k int) (float64, error) {
		cd := cands[k]
		srcN, dstN := f.nodes[cd.src], f.nodes[cd.dst]
		srcAfter, err := f.nodeSPI(ctx, srcN.cfg.Machine,
			withoutResident(f.assignmentOf(srcN), cd.res))
		if err != nil {
			return 0, err
		}
		feat, err := f.feats.get(ctx, dstN.cfg.Machine, cd.res.Spec)
		if err != nil {
			return 0, err
		}
		dstAfter, err := f.nodeSPI(ctx, dstN.cfg.Machine,
			withAdditionShared(f.assignmentOf(dstN), feat, cd.dstCore))
		if err != nil {
			return 0, err
		}
		return baseTotal - base[cd.src] - base[cd.dst] + srcAfter + dstAfter, nil
	})
	if err != nil {
		return Move{}, err
	}
	best := 0
	for k := range totals {
		if totals[k] < totals[best] {
			best = k
		}
	}
	improvement := baseTotal - totals[best]
	if improvement <= minImprovement || improvement <= 0 {
		f.noops.Inc()
		return Move{}, fmt.Errorf("fleet: %w: best move saves %.4g SPI (threshold %.4g)",
			manager.ErrNoImprovement, improvement, minImprovement)
	}

	// Execute transactionally: snapshot both managers, remove from the
	// source, re-place on the target; restore both on any failure.
	cd := cands[best]
	srcN, dstN := f.nodes[cd.src], f.nodes[cd.dst]
	capMove := f.capActive()
	var srcW, dstW float64
	if capMove {
		// An SPI-improving move must not bust the watt budget: price both
		// ends' post-move draw at their current rungs and reject the move
		// when the fleet total would exceed the cap. The priced draws also
		// become the ledger rows after execution, so admission check and
		// accounting can never disagree.
		srcWU, err := srcN.cm.EstimateAssignmentContext(ctx, withoutResident(f.assignmentOf(srcN), cd.res))
		if err != nil {
			return Move{}, err
		}
		feat, err := f.feats.get(ctx, dstN.cfg.Machine, cd.res.Spec)
		if err != nil {
			return Move{}, err
		}
		dstWU, err := dstN.cm.EstimateAdditionContext(ctx, f.assignmentOf(dstN), feat, cd.dstCore)
		if err != nil {
			return Move{}, err
		}
		srcW = freq.ScaleWatts(srcWU, staticWatts(srcN), dynScaleOf(srcN))
		dstW = freq.ScaleWatts(dstWU, staticWatts(dstN), dynScaleOf(dstN))
		next := f.capL.usage() - f.capL.nodeWatts(srcN.cfg.Name) - f.capL.nodeWatts(dstN.cfg.Name) + srcW + dstW
		if cap := f.capL.capWatts(); next > cap {
			f.noops.Inc()
			return Move{}, fmt.Errorf("fleet: %w: best move needs %.4g W against a %.4g W cap",
				manager.ErrNoImprovement, next, cap)
		}
	}
	srcSnap, dstSnap := srcN.mgr.Snapshot(), dstN.mgr.Snapshot()
	rollback := func(cause error) error {
		srcN.mgr.Restore(srcSnap)
		dstN.mgr.Restore(dstSnap)
		f.rollbacks.Inc()
		return fmt.Errorf("fleet: rebalance rolled back: %w", cause)
	}
	if err := srcN.mgr.Remove(cd.res.Name); err != nil {
		return Move{}, rollback(err)
	}
	newName, _, err := dstN.mgr.PlaceAt(ctx, cd.res.Spec, cd.dstCore)
	if err != nil {
		return Move{}, rollback(err)
	}
	// A migrated resident keeps its scheduler metadata (priority class,
	// tag, preemption-ledger identity) under its new instance name.
	var meta residentMeta
	if m, ok := srcN.meta[cd.res.Name]; ok {
		meta = m
		delete(srcN.meta, cd.res.Name)
		if dstN.meta == nil {
			dstN.meta = map[string]residentMeta{}
		}
		dstN.meta[newName] = m
	}
	f.moves.Inc()
	f.version.Add(1)
	srcN.version++
	dstN.version++
	if capMove {
		f.capL.setNode(srcN.cfg.Name, srcW)
		f.capL.setNode(dstN.cfg.Name, dstW)
		// Re-anchor both rows on the canonical whole-assignment estimate
		// (the target's dstW was priced via the addition path, which can
		// differ in the last ulp); a failure keeps the priced values.
		_ = f.resyncNodeCapLocked(ctx, srcN)
		_ = f.resyncNodeCapLocked(ctx, dstN)
	}
	// Both halves of the migration land in one journal batch, so replay
	// sees the move atomically (departed first: the new instance appends
	// at the end of the resident order, exactly like PlaceAt did).
	f.journalLocked(wal.Event{Type: wal.EvDeparted, Node: srcN.cfg.Name, Name: cd.res.Name})
	f.journalLocked(wal.Event{
		Type: wal.EvAdmitted, Node: dstN.cfg.Name, Name: newName, Core: cd.dstCore,
		Bench: cd.res.Spec.Name, Tag: meta.tag, Priority: meta.priority,
	})
	f.flushJournalLocked()
	return Move{
		From:        srcN.cfg.Name,
		To:          dstN.cfg.Name,
		Name:        cd.res.Name,
		NewName:     newName,
		Workload:    cd.res.Spec.Name,
		Core:        cd.dstCore,
		SPIBefore:   baseTotal,
		SPIAfter:    totals[best],
		Improvement: improvement,
	}, nil
}

// withoutResident returns a copy of asg with the resident's feature vector
// removed from its core (first pointer match, falling back to the first
// entry if the pointer is not found); asg is never mutated.
func withoutResident(asg core.Assignment, r manager.Resident) core.Assignment {
	next := make(core.Assignment, len(asg))
	for i, procs := range asg {
		next[i] = append([]*core.FeatureVector(nil), procs...)
	}
	procs := next[r.Core]
	idx := 0
	for k, fv := range procs {
		if fv == r.Feature {
			idx = k
			break
		}
	}
	if len(procs) > 0 {
		next[r.Core] = append(procs[:idx:idx], procs[idx+1:]...)
	}
	return next
}
