package fleet

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"

	"mpmc/internal/machine"
	"mpmc/internal/manager"
	"mpmc/internal/threads"
	"mpmc/internal/workload"
)

// TestPlaceAllRollbackOnFull is the transactional acceptance test: a batch
// that overflows the fleet mid-way must admit nothing — every machine's
// resident set, instance-name counter, and the fleet's round-robin cursor
// deep-equal their pre-call state — and the error must carry both the
// rollback context and the ErrFleetFull cause.
func TestPlaceAllRollbackOnFull(t *testing.T) {
	ctx := context.Background()
	for _, p := range Policies() {
		t.Run(p.String(), func(t *testing.T) {
			f := testFleet(t, p, nil)
			// 13 residents: room for 3 more, so a batch of 5 fails on its
			// fourth placement with three already admitted.
			if _, err := f.PlaceAll(ctx, sixteenSpecs()[:13]); err != nil {
				t.Fatalf("seeding PlaceAll: %v", err)
			}
			before := snapshotFleet(f)
			placedBefore := f.Registry().CounterValue("fleet_place_total")

			_, err := f.PlaceAll(ctx, sixteenSpecs()[:5])
			if !errors.Is(err, ErrFleetFull) {
				t.Fatalf("overflow batch error %v, want ErrFleetFull cause", err)
			}
			requireUnchanged(t, f, before)
			if got := f.Registry().CounterValue("fleet_place_total"); got != placedBefore {
				t.Fatalf("fleet_place_total moved %d → %d across a rolled-back batch", placedBefore, got)
			}
			if got := f.Registry().CounterValue("fleet_place_rollback_total"); got != 1 {
				t.Fatalf("fleet_place_rollback_total %d, want 1", got)
			}

			// The fleet must still work after the rollback: the 3 free
			// slots are intact.
			placed, err := f.PlaceAll(ctx, sixteenSpecs()[:3])
			if err != nil {
				t.Fatalf("post-rollback PlaceAll: %v", err)
			}
			if len(placed) != 3 || checkCapacity(t, f) != 16 {
				t.Fatalf("post-rollback fleet in bad shape: %d placed", len(placed))
			}
		})
	}
}

// TestPlaceAllCancelled checks a cancelled batch admits nothing.
func TestPlaceAllCancelled(t *testing.T) {
	f := testFleet(t, LeastDegradation, nil)
	// Warm the feature cache so cancellation hits the placement loop, not
	// the profiling stage.
	if _, err := f.PlaceAll(context.Background(), sixteenSpecs()[:2]); err != nil {
		t.Fatalf("warming PlaceAll: %v", err)
	}
	before := snapshotFleet(f)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := f.PlaceAll(ctx, sixteenSpecs()[:4])
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled PlaceAll error %v, want context.Canceled", err)
	}
	requireUnchanged(t, f, before)
}

// TestRebalanceNoImprovementLeavesStateAlone: a pass that finds nothing
// worth moving must change nothing and report the typed sentinel.
func TestRebalanceNoImprovementLeavesStateAlone(t *testing.T) {
	ctx := context.Background()
	f := testFleet(t, LeastDegradation, nil)
	if _, err := f.PlaceAll(ctx, sixteenSpecs()[:4]); err != nil {
		t.Fatalf("PlaceAll: %v", err)
	}
	before := snapshotFleet(f)

	// An absurd threshold guarantees the sentinel path even if some move
	// would pay a little.
	_, err := f.Rebalance(ctx, 1e9)
	if !errors.Is(err, manager.ErrNoImprovement) {
		t.Fatalf("Rebalance error %v, want ErrNoImprovement", err)
	}
	requireUnchanged(t, f, before)
	if got := f.Registry().CounterValue("fleet_rebalance_noop_total"); got != 1 {
		t.Fatalf("fleet_rebalance_noop_total %d, want 1", got)
	}
}

// TestRebalanceCancelledLeavesStateAlone: cancellation anywhere in the
// pass must leave the fleet deep-equal to its pre-call state.
func TestRebalanceCancelledLeavesStateAlone(t *testing.T) {
	f := testFleet(t, BinPack, func(c *Config) { c.BinPackCeiling = 100 })
	if _, err := f.PlaceAll(context.Background(), sixteenSpecs()[:4]); err != nil {
		t.Fatalf("PlaceAll: %v", err)
	}
	before := snapshotFleet(f)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := f.Rebalance(ctx, 0)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Rebalance error %v, want context.Canceled", err)
	}
	requireUnchanged(t, f, before)
}

// TestRebalanceEmptyFleet pins the trivial sentinel path.
func TestRebalanceEmptyFleet(t *testing.T) {
	f := testFleet(t, LeastDegradation, nil)
	_, err := f.Rebalance(context.Background(), 0)
	if !errors.Is(err, manager.ErrNoImprovement) {
		t.Fatalf("empty-fleet Rebalance error %v, want ErrNoImprovement", err)
	}
}

// TestRemoveUnknownNode pins the typed sentinel for a bad node name.
func TestRemoveUnknownNode(t *testing.T) {
	f := testFleet(t, LeastDegradation, nil)
	_, err := f.Remove(context.Background(), "nope", "mcf#1")
	if !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("Remove error %v, want ErrUnknownNode", err)
	}
	if _, err := f.Place(context.Background(), workload.ByName("mcf")); err != nil {
		t.Fatalf("Place after bad Remove: %v", err)
	}
}

// TestRollbackRestoresLedger pins the watt ledger across rolled-back
// transactions at one lock group and at two: a batch or thread group that
// overflows the fleet mid-way must leave every ledger row where it was,
// so the tracked draw still equals a fresh Totals pass bit for bit (a
// row always equals what a fresh resync would compute).
func TestRollbackRestoresLedger(t *testing.T) {
	ctx := context.Background()
	pm := testPower(t)
	mcf := workload.ByName("mcf")
	for _, shards := range []int{1, 2} {
		for _, via := range []string{"group", "batch"} {
			t.Run(fmt.Sprintf("shards%d/%s", shards, via), func(t *testing.T) {
				nodes := []NodeConfig{
					{Machine: machine.TwoCoreWorkstation(), Power: pm, MaxPerCore: 1},
					{Machine: machine.TwoCoreWorkstation(), Power: pm, MaxPerCore: 1},
				}
				f, err := NewSharded(Config{
					Nodes: nodes, Policy: LeastDegradation, PowerCap: 1e6,
					Seed: 1, Profile: oracle(nil, 0),
				}, shards)
				if err != nil {
					t.Fatal(err)
				}
				// Five members on four slots: the fifth overflows after four
				// commits reserved their rows.
				if via == "group" {
					_, err = f.PlaceGroup(ctx, threads.GroupSpec{Base: mcf, Threads: 5, SharedFrac: 0.5, WriteFrac: 0.5})
				} else {
					_, err = f.PlaceAll(ctx, []*workload.Spec{mcf, mcf, mcf, mcf, mcf})
				}
				if !errors.Is(err, ErrFleetFull) {
					t.Fatalf("overflow error %v, want ErrFleetFull", err)
				}
				_, watts, err := f.Totals(ctx)
				if err != nil {
					t.Fatal(err)
				}
				if usage := f.CapUsage(); math.Float64bits(usage) != math.Float64bits(watts) {
					t.Fatalf("ledger tracks %.17g W after rollback, fresh Totals %.17g W", usage, watts)
				}
			})
		}
	}
}
