package fleet_test

// Regression tests for the Pump lock-freedom fix and the cancel-vs-pump
// contract, each at one lock group and at two. External test package:
// these drive the exported surface only, like queue_race_test.go.

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mpmc/internal/core"
	"mpmc/internal/fleet"
	"mpmc/internal/machine"
	"mpmc/internal/workload"
)

// TestPumpScoresOutsideFleetLock pins the bugfix for Pump holding the
// fleet lock across candidate scoring: while the pump's first scoring
// call is parked on a gate (simulating a slow equilibrium solve), a
// concurrent Place on the same fleet must still complete. Before the
// fix the scoring pass ran under the fleet lock, so the Place below
// deadlocked until the gate opened.
func TestPumpScoresOutsideFleetLock(t *testing.T) { forShards(t, testPumpScoresOutsideFleetLock) }

func testPumpScoresOutsideFleetLock(t *testing.T, shards int) {
	pm, err := core.SyntheticPowerModel()
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	entered := make(chan struct{})
	var firstScore atomic.Bool
	var nodes []fleet.NodeConfig
	for i := 0; i < 4; i++ {
		nodes = append(nodes, fleet.NodeConfig{
			Name: fmt.Sprintf("m%d", i), Machine: machine.TwoCoreWorkstation(), Power: pm, MaxPerCore: 2,
		})
	}
	f, err := fleet.NewSharded(fleet.Config{
		Nodes:    nodes,
		Policy:   fleet.LeastDegradation,
		QueueCap: 4,
		Profile: func(_ context.Context, m *machine.Machine, spec *workload.Spec, _ core.ProfileOptions) (*core.FeatureVector, error) {
			return core.TruthFeature(spec, m), nil
		},
		Intercept: func(site, key string) error {
			// Park only the very first scoring call (the pump's: the test
			// sequences on `entered` before placing); an atomic claim, not
			// a sync.Once, so later callers pass instead of queueing on it.
			if site == "fleet.score" && firstScore.CompareAndSwap(false, true) {
				close(entered)
				<-gate
			}
			return nil
		},
	}, shards)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := f.Submit(workload.ByName("mcf"), "queued"); err != nil {
		t.Fatal(err)
	}

	pumpDone := make(chan error, 1)
	go func() {
		_, perr := f.Pump(ctx)
		pumpDone <- perr
	}()
	<-entered // the pump is now mid-scoring, parked on the gate

	placeDone := make(chan error, 1)
	go func() {
		_, perr := f.Place(ctx, workload.ByName("gzip"))
		placeDone <- perr
	}()
	select {
	case perr := <-placeDone:
		if perr != nil {
			t.Fatalf("concurrent Place failed: %v", perr)
		}
	case <-time.After(30 * time.Second):
		close(gate)
		t.Fatal("Place blocked while Pump's scoring was in flight: the pump is holding the fleet lock across the solve")
	}
	select {
	case perr := <-pumpDone:
		close(gate)
		t.Fatalf("Pump finished while its scoring gate was still closed: %v", perr)
	default:
	}
	close(gate)
	if perr := <-pumpDone; perr != nil {
		t.Fatalf("Pump failed: %v", perr)
	}
	if d := f.QueueDepth(); d != 0 {
		t.Fatalf("queue depth %d after pump, want 0", d)
	}
	requireConserved(t, f)
}

// shardedRaceFleet builds a small fleet over instant truth features with
// an optional per-score delay widening the commit window.
func shardedRaceFleet(t *testing.T, machines, shards, queueCap int, scoreDelay time.Duration) *fleet.Fleet {
	t.Helper()
	pm, err := core.SyntheticPowerModel()
	if err != nil {
		t.Fatal(err)
	}
	var nodes []fleet.NodeConfig
	for i := 0; i < machines; i++ {
		nodes = append(nodes, fleet.NodeConfig{
			Machine: machine.TwoCoreWorkstation(), Power: pm, MaxPerCore: 1,
		})
	}
	cfg := fleet.Config{
		Nodes:    nodes,
		Policy:   fleet.LeastDegradation,
		QueueCap: queueCap,
		Profile: func(_ context.Context, m *machine.Machine, spec *workload.Spec, _ core.ProfileOptions) (*core.FeatureVector, error) {
			return core.TruthFeature(spec, m), nil
		},
	}
	if scoreDelay > 0 {
		cfg.Intercept = func(site, key string) error {
			if site == "fleet.score" {
				time.Sleep(scoreDelay)
			}
			return nil
		}
	}
	s, err := fleet.NewSharded(cfg, shards)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestShardedCancelVsPumpUnambiguous races CancelQueued against a
// draining Pump. The contract: a CancelQueued that returns true means the
// fleet never admitted that ticket (its tag never appears among the
// placements), a false return means the pump's commit won, and the queue
// ledger — submitted = admitted + abandoned + dropped + depth — balances
// afterwards either way.
func TestShardedCancelVsPumpUnambiguous(t *testing.T) {
	forShards(t, testCancelVsPumpUnambiguous)
}

func testCancelVsPumpUnambiguous(t *testing.T, shards int) {
	ctx := context.Background()
	iters := 25
	if testing.Short() {
		iters = 8
	}
	for iter := 0; iter < iters; iter++ {
		s := shardedRaceFleet(t, 4, shards, 8, 100*time.Microsecond)
		specs := []string{"mcf", "gzip", "vpr"}
		tickets := make([]int, len(specs))
		for i, name := range specs {
			tk, err := s.Submit(workload.ByName(name), fmt.Sprintf("job%d", i))
			if err != nil {
				t.Fatal(err)
			}
			tickets[i] = tk
		}
		var wg sync.WaitGroup
		var placed []fleet.Placed
		var pumpErr error
		cancelled := make([]bool, len(tickets))
		wg.Add(2)
		go func() {
			defer wg.Done()
			placed, pumpErr = s.Pump(ctx)
		}()
		go func() {
			defer wg.Done()
			for i, tk := range tickets {
				cancelled[i] = s.CancelQueued(tk)
			}
		}()
		wg.Wait()
		if pumpErr != nil {
			t.Fatalf("iter %d: pump: %v", iter, pumpErr)
		}
		placedTags := map[string]bool{}
		for _, p := range placed {
			placedTags[p.Tag] = true
		}
		for i, ok := range cancelled {
			if ok && placedTags[fmt.Sprintf("job%d", i)] {
				t.Fatalf("iter %d: ticket %d cancelled AND placed — cancel-vs-pump ambiguity", iter, tickets[i])
			}
		}
		reg := s.Registry()
		submitted := reg.Counter("fleet_queue_submitted_total").Value()
		admitted := reg.Counter("fleet_queue_admitted_total").Value()
		abandoned := reg.Counter("fleet_queue_abandoned_total").Value()
		dropped := reg.Counter("fleet_queue_dropped_total").Value()
		depth := uint64(s.QueueDepth())
		if submitted != admitted+abandoned+dropped+depth {
			t.Fatalf("iter %d: ledger: submitted %d != admitted %d + abandoned %d + dropped %d + depth %d",
				iter, submitted, admitted, abandoned, dropped, depth)
		}
		if got := uint64(len(placed)); got != admitted {
			t.Fatalf("iter %d: pump returned %d placements, admitted counter says %d", iter, got, admitted)
		}
	}
}

// TestShardedPumpCtxCancelKeepsQueue pins the shutdown-drain contract:
// a Pump abandoned by context cancellation returns the error and leaves
// every unadmitted entry in the queue — nothing is silently dropped
// between dequeue and commit.
func TestShardedPumpCtxCancelKeepsQueue(t *testing.T) { forShards(t, testPumpCtxCancelKeepsQueue) }

func testPumpCtxCancelKeepsQueue(t *testing.T, shards int) {
	s := shardedRaceFleet(t, 4, shards, 8, 0)
	for i, name := range []string{"mcf", "gzip", "vpr"} {
		if _, err := s.Submit(workload.ByName(name), fmt.Sprintf("job%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already cancelled: the pump must not consume anything
	placed, err := s.Pump(ctx)
	if err == nil {
		t.Fatal("pump with cancelled context returned nil error")
	}
	if len(placed) != 0 {
		t.Fatalf("pump with cancelled context admitted %d entries", len(placed))
	}
	if d := s.QueueDepth(); d != 3 {
		t.Fatalf("queue depth %d after cancelled pump, want 3 (nothing dropped)", d)
	}
	reg := s.Registry()
	submitted := reg.Counter("fleet_queue_submitted_total").Value()
	admitted := reg.Counter("fleet_queue_admitted_total").Value()
	abandoned := reg.Counter("fleet_queue_abandoned_total").Value()
	dropped := reg.Counter("fleet_queue_dropped_total").Value()
	if submitted != admitted+abandoned+dropped+uint64(s.QueueDepth()) {
		t.Fatalf("ledger: submitted %d != admitted %d + abandoned %d + dropped %d + depth %d",
			submitted, admitted, abandoned, dropped, s.QueueDepth())
	}
}
