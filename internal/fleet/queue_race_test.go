package fleet_test

// Queue edge-case races, run under -race in CI. These live in an external
// test package so they can drive the exported surface only and reuse the
// chaos invariant checker (chaos imports fleet, so the internal test
// package cannot).

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"mpmc/internal/chaos"
	"mpmc/internal/core"
	"mpmc/internal/fleet"
	"mpmc/internal/machine"
	"mpmc/internal/threads"
	"mpmc/internal/wal"
	"mpmc/internal/workload"
)

// forShards runs body once per lock-group count: every concurrency
// contract here must hold identically with one group and with two.
func forShards(t *testing.T, body func(t *testing.T, shards int)) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards%d", shards), func(t *testing.T) { body(t, shards) })
	}
}

// raceFleet builds a small fleet over instant truth features, with an
// optional per-profile delay to widen Pump's outside-the-lock window.
func raceFleet(t *testing.T, nodes, shards, maxPerCore int, delay time.Duration) *fleet.Fleet {
	t.Helper()
	pm, err := core.SyntheticPowerModel()
	if err != nil {
		t.Fatal(err)
	}
	var ncfg []fleet.NodeConfig
	for i := 0; i < nodes; i++ {
		ncfg = append(ncfg, fleet.NodeConfig{
			Name:       fmt.Sprintf("m%d", i),
			Machine:    machine.TwoCoreWorkstation(),
			Power:      pm,
			MaxPerCore: maxPerCore,
		})
	}
	f, err := fleet.NewSharded(fleet.Config{
		Nodes:    ncfg,
		Policy:   fleet.LeastDegradation,
		QueueCap: 8,
		Profile: func(ctx context.Context, m *machine.Machine, spec *workload.Spec, opts core.ProfileOptions) (*core.FeatureVector, error) {
			if delay > 0 {
				select {
				case <-time.After(delay):
				case <-ctx.Done():
					return nil, ctx.Err()
				}
			}
			return core.TruthFeature(spec, m), nil
		},
	}, shards)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func requireConserved(t *testing.T, f *fleet.Fleet) {
	t.Helper()
	c := &chaos.Checker{}
	if vs := c.CheckFleet(context.Background(), f); len(vs) > 0 {
		t.Fatalf("invariant violations after race: %v", vs)
	}
}

// TestCancelQueuedHeadRacesPump races a CancelQueued of the queue head
// against a Pump that is already draining (its feature-resolution phase
// runs outside the fleet lock, so the head can vanish mid-pump). Whoever
// wins, the ticket must be admitted exactly once or abandoned exactly
// once — never both, never neither.
func TestCancelQueuedHeadRacesPump(t *testing.T) { forShards(t, testCancelQueuedHeadRacesPump) }

func testCancelQueuedHeadRacesPump(t *testing.T, shards int) {
	ctx := context.Background()
	for iter := 0; iter < 40; iter++ {
		f := raceFleet(t, 2, shards, 1, 500*time.Microsecond)
		head, err := f.Submit(workload.ByName("mcf"), "head")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Submit(workload.ByName("gzip"), "second"); err != nil {
			t.Fatal(err)
		}
		if _, err := f.Submit(workload.ByName("art"), "third"); err != nil {
			t.Fatal(err)
		}

		var (
			wg        sync.WaitGroup
			admitted  []fleet.Placed
			pumpErr   error
			cancelled bool
		)
		wg.Add(2)
		go func() {
			defer wg.Done()
			admitted, pumpErr = f.Pump(ctx)
		}()
		go func() {
			defer wg.Done()
			cancelled = f.CancelQueued(head)
		}()
		wg.Wait()
		if pumpErr != nil {
			t.Fatalf("iter %d: Pump: %v", iter, pumpErr)
		}

		headAdmitted := false
		for _, p := range admitted {
			if p.Tag == "head" {
				headAdmitted = true
			}
		}
		if cancelled == headAdmitted {
			t.Fatalf("iter %d: cancelled=%v and admitted=%v for the same ticket", iter, cancelled, headAdmitted)
		}
		// The non-head submissions always fit (capacity 4): they must be
		// admitted by this pump or still queued, and the ledger must hold.
		depth := f.QueueDepth()
		if len(admitted)+depth+boolToInt(cancelled) != 3 {
			t.Fatalf("iter %d: admitted %d + depth %d + cancelled %v does not cover 3 submissions",
				iter, len(admitted), depth, cancelled)
		}
		requireConserved(t, f)
	}
}

// TestSubmitRacesDepartureTriggeredPump races a fresh Submit against the
// pump that a departure triggers while holding every lock. FIFO order
// and the conservation ledger must survive every interleaving.
func TestSubmitRacesDepartureTriggeredPump(t *testing.T) {
	forShards(t, testSubmitRacesDepartureTriggeredPump)
}

func testSubmitRacesDepartureTriggeredPump(t *testing.T, shards int) {
	ctx := context.Background()
	fill := []string{"mcf", "gzip", "vpr", "twolf"}
	for iter := 0; iter < 40; iter++ {
		// One node per lock group, each 2 cores × 1 per core.
		f := raceFleet(t, shards, shards, 1, 0)
		var resident fleet.Placed
		for i := 0; i < 2*shards; i++ {
			p, err := f.Place(ctx, workload.ByName(fill[i]))
			if err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				resident = p
			}
		}
		// The fleet is now full: queue one.
		if _, err := f.Submit(workload.ByName("art"), "q1"); err != nil {
			t.Fatal(err)
		}

		var (
			wg       sync.WaitGroup
			admitted []fleet.Placed
			rmErr    error
		)
		wg.Add(2)
		go func() {
			defer wg.Done()
			admitted, rmErr = f.Remove(ctx, resident.Node, resident.Name)
		}()
		go func() {
			defer wg.Done()
			if _, err := f.Submit(workload.ByName("equake"), "q2"); err != nil {
				t.Errorf("iter %d: Submit: %v", iter, err)
			}
		}()
		wg.Wait()
		if rmErr != nil {
			t.Fatalf("iter %d: Remove: %v", iter, rmErr)
		}

		// The freed slot admits exactly one process, and FIFO means it can
		// be q2 only if q2 was enqueued before the departure pump drained.
		if len(admitted) != 1 {
			t.Fatalf("iter %d: departure admitted %d processes, want 1", iter, len(admitted))
		}
		if got := admitted[0].Tag; got != "q1" {
			t.Fatalf("iter %d: departure admitted %q, want FIFO head q1", iter, got)
		}
		if depth := f.QueueDepth(); depth != 1 {
			t.Fatalf("iter %d: queue depth %d after race, want 1", iter, depth)
		}
		requireConserved(t, f)
	}
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TestLockGroupsMixedRace runs every kind of operation at once against a
// two-group fleet — optimistic single placements, departures with their
// queue cascades, batches, thread groups, rebalances, priority
// submissions, pumps and cancels, cap changes with enforcement, node
// fail/restore, and state reads — then requires the model, queue,
// preemption and watt-ledger invariants to hold. Under -race it checks
// the lock discipline between single-group commits and all-locks
// operations; a lock-order deadlock hangs it into its -timeout.
func TestLockGroupsMixedRace(t *testing.T) {
	ctx := context.Background()
	f := raceFleet(t, 4, 2, 2, 0)
	pool := []string{"gzip", "vpr", "mcf", "art", "swim", "twolf"}
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(r *rand.Rand) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				spec := workload.ByName(pool[r.Intn(len(pool))])
				// Individual operations may legitimately fail (full fleet,
				// vanished resident, no improving move); only the
				// invariants checked afterwards must hold.
				switch r.Intn(8) {
				case 0, 1:
					_, _ = f.Place(ctx, spec)
				case 2:
					for _, ni := range f.Inspect() {
						if len(ni.Residents) > 0 {
							_, _ = f.Remove(ctx, ni.Name, ni.Residents[0].Name)
							break
						}
					}
				case 3:
					_, _ = f.PlaceAll(ctx, []*workload.Spec{spec, spec})
					_, _ = f.PlaceGroup(ctx, threads.GroupSpec{Base: spec, Threads: 2, SharedFrac: 0.5, WriteFrac: 0.5})
				case 4:
					_, _ = f.Rebalance(ctx, 0)
					_, _ = f.State(ctx)
				case 5:
					if tk, err := f.SubmitWith(spec, "", r.Intn(3)); err == nil && r.Intn(2) == 0 {
						f.CancelQueued(tk)
					}
					_, _ = f.Pump(ctx)
				case 6:
					budget := 0.0
					if _, watts, err := f.Totals(ctx); err == nil && r.Intn(2) == 0 {
						budget = watts * 0.95
					}
					_ = f.SetPowerCap(ctx, budget)
					_, _ = f.EnforceCap(ctx)
				case 7:
					name := fmt.Sprintf("m%d", r.Intn(4))
					if _, err := f.FailNode(name); err == nil {
						_, _ = f.RestoreNode(ctx, name)
					}
				}
			}
		}(rand.New(rand.NewSource(int64(w))))
	}
	wg.Wait()
	requireConserved(t, f)
	if vs := chaos.CheckCap(ctx, f, false); len(vs) > 0 {
		t.Fatalf("watt ledger after race: %v", vs)
	}
}

// TestLockGroupsJournalReplaysRace pins the journal contract of
// concurrent commits: optimistic single placements on different groups
// commit under their own group locks and flush their batches in whatever
// order they reach the queue lock, interleaved with departures, pumps,
// cancels and node fail/restore. Replaying the resulting log into a fresh
// fleet must reproduce the live fleet's state and queue exactly.
func TestLockGroupsJournalReplaysRace(t *testing.T) {
	ctx := context.Background()
	pm, err := core.SyntheticPowerModel()
	if err != nil {
		t.Fatal(err)
	}
	build := func(journal func([]wal.Event)) *fleet.Fleet {
		var nodes []fleet.NodeConfig
		for i := 0; i < 4; i++ {
			nodes = append(nodes, fleet.NodeConfig{
				Name: fmt.Sprintf("m%d", i), Machine: machine.TwoCoreWorkstation(), Power: pm, MaxPerCore: 2,
			})
		}
		f, err := fleet.NewSharded(fleet.Config{
			Nodes:    nodes,
			Policy:   fleet.LeastDegradation,
			QueueCap: 8,
			Profile: func(_ context.Context, m *machine.Machine, spec *workload.Spec, _ core.ProfileOptions) (*core.FeatureVector, error) {
				return core.TruthFeature(spec, m), nil
			},
			Journal: journal,
		}, 2)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	// The journal is only ever called under the queue lock, so the
	// shadow needs no lock of its own.
	shadow := &wal.State{}
	var applyErr error
	f := build(func(events []wal.Event) {
		for _, e := range events {
			if err := shadow.Apply(e); err != nil && applyErr == nil {
				applyErr = err
			}
		}
	})
	pool := []string{"gzip", "vpr", "mcf", "art", "swim", "twolf"}
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(r *rand.Rand) {
			defer wg.Done()
			for i := 0; i < 60; i++ {
				spec := workload.ByName(pool[r.Intn(len(pool))])
				switch r.Intn(8) {
				case 0, 1, 2, 3:
					_, _ = f.Place(ctx, spec)
				case 4, 5:
					for _, ni := range f.Inspect() {
						if len(ni.Residents) > 0 {
							_, _ = f.Remove(ctx, ni.Name, ni.Residents[r.Intn(len(ni.Residents))].Name)
							break
						}
					}
				case 6:
					if tk, err := f.Submit(spec, ""); err == nil && r.Intn(2) == 0 {
						f.CancelQueued(tk)
					}
					_, _ = f.Pump(ctx)
				case 7:
					name := fmt.Sprintf("m%d", r.Intn(4))
					if _, err := f.FailNode(name); err == nil {
						_, _ = f.RestoreNode(ctx, name)
					}
				}
			}
		}(rand.New(rand.NewSource(int64(w))))
	}
	wg.Wait()
	if applyErr != nil {
		t.Fatalf("journal does not replay: %v", applyErr)
	}
	live, err := f.State(ctx)
	if err != nil {
		t.Fatal(err)
	}
	g := build(nil)
	if err := g.Recover(ctx, shadow); err != nil {
		t.Fatalf("recover: %v", err)
	}
	rec, err := g.State(ctx)
	if err != nil {
		t.Fatal(err)
	}
	lj, _ := json.Marshal(live)
	rj, _ := json.Marshal(rec)
	if string(lj) != string(rj) {
		t.Fatalf("replayed state diverged:\n live %s\n replay %s", lj, rj)
	}
	if a, b := fmt.Sprint(f.QueuedInfo()), fmt.Sprint(g.QueuedInfo()); a != b {
		t.Fatalf("replayed queue diverged: %v vs %v", a, b)
	}
}
