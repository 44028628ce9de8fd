package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"strings"
	"testing"

	"mpmc/internal/machine"
	"mpmc/internal/metrics"
	"mpmc/internal/threads"
	"mpmc/internal/workload"
)

// This file is the sharding equivalence sweep: a one-group fleet and a
// fleet split into lock groups, built from the same node list, seed, and
// policy, are driven through identical randomized traces, and every
// observable outcome must match: each placement's node, core, instance
// name, bit-identical score and watts, tag and preemption disposition;
// queue tickets and eligibility; batch, group, rebalance and cap-
// enforcement results; plus a running FNV-64a digest of the whole
// sequence. The sweep covers all shardable policies (Spread is serial and
// rejected by NewSharded), cold and cached scoring, worker counts 1..3,
// priority classes with preemption and requeue, power caps, and machine
// failures mid-trace.

// shardablePolicies are the policies NewSharded accepts with shards > 1.
func shardablePolicies() []Policy {
	var out []Policy
	for _, p := range Policies() {
		if p != Spread {
			out = append(out, p)
		}
	}
	return out
}

// equivNodePair builds two structurally identical node lists (fresh
// machine instances, same kinds and limits) so the two fleets never
// share mutable state.
func equivNodePair(t *testing.T, r *rand.Rand, nNodes int) (a, b []NodeConfig) {
	t.Helper()
	pm := testPower(t)
	kinds := []func() *machine.Machine{
		machine.TwoCoreWorkstation, machine.TwoCoreLaptop, machine.FourCoreServer,
	}
	a = make([]NodeConfig, nNodes)
	b = make([]NodeConfig, nNodes)
	for i := 0; i < nNodes; i++ {
		k := r.Intn(len(kinds))
		mpc := 1 + r.Intn(2)
		a[i] = NodeConfig{Machine: kinds[k](), Power: pm, MaxPerCore: mpc}
		b[i] = NodeConfig{Machine: kinds[k](), Power: pm, MaxPerCore: mpc}
	}
	return a, b
}

// placedKey renders every field of a placement, floats as bits.
func placedKey(p Placed) string {
	k := fmt.Sprintf("%s/%d/%s/%x/%x/%s", p.Node, p.Core, p.Name,
		math.Float64bits(p.Score), math.Float64bits(p.Watts), p.Tag)
	if v := p.Preempted; v != nil {
		k += fmt.Sprintf("<%s/%s/%s/%s/%d/%v/%d>", v.Node, v.Name, v.Workload, v.Tag, v.Priority, v.Requeued, v.Ticket)
	}
	return k
}

// outcomeKey renders an operation's result: the placements, or the
// error class (a full fleet is distinguished from every other failure).
func outcomeKey(ps []Placed, err error) string {
	if err != nil {
		return fmt.Sprintf("err(full=%v)", errors.Is(err, ErrFleetFull))
	}
	keys := make([]string, len(ps))
	for i, p := range ps {
		keys[i] = placedKey(p)
	}
	return "[" + strings.Join(keys, " ") + "]"
}

// jsonKey renders a value (a Move, a CapReport) with every float exact.
func jsonKey(t *testing.T, v any, err error) string {
	t.Helper()
	if err != nil {
		return fmt.Sprintf("err(%v)", errors.Is(err, ErrFleetFull))
	}
	b, merr := json.Marshal(v)
	if merr != nil {
		t.Fatal(merr)
	}
	return string(b)
}

// runShardedEquivSweep drives one randomized trace through a one-group
// and a multi-group fleet in lockstep, failing at the first divergence
// and comparing digests at the end.
func runShardedEquivSweep(t *testing.T, seed int64, cacheCap int) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	pols := shardablePolicies()
	policy := pols[int(seed)%len(pols)]
	nNodes := 3 + r.Intn(4)
	shards := 2 + r.Intn(2)
	if shards > nNodes {
		shards = nNodes
	}
	flatNodes, shardNodes := equivNodePair(t, r, nNodes)
	fseed := uint64(r.Int63())
	workers := 1 + r.Intn(3)
	flat, err := New(Config{
		Nodes: flatNodes, Policy: policy, QueueCap: 4, Seed: fseed,
		Workers: workers, ScoreCacheCap: cacheCap, Profile: oracle(nil, 0),
		Registry: metrics.NewRegistry(),
	})
	if err != nil {
		t.Fatalf("fleet.New: %v", err)
	}
	sharded, err := NewSharded(Config{
		Nodes: shardNodes, Policy: policy, QueueCap: 4, Seed: fseed,
		Workers: workers, ScoreCacheCap: cacheCap, Profile: oracle(nil, 0),
		Registry: metrics.NewRegistry(),
	}, shards)
	if err != nil {
		t.Fatalf("fleet.NewSharded: %v", err)
	}

	ctx := context.Background()
	suite := workload.Suite()
	flatDigest, shardDigest := fnv.New64a(), fnv.New64a()
	ev := 0
	// same fails the trace at the first divergence and folds both sides
	// into their digests.
	same := func(what, f, s string) {
		t.Helper()
		if f != s {
			t.Fatalf("seed %d ev %d (%s, %d shards) %s:\n flat    %s\n sharded %s", seed, ev, policy, shards, what, f, s)
		}
		fmt.Fprintf(flatDigest, "%s=%s;", what, f)
		fmt.Fprintf(shardDigest, "%s=%s;", what, s)
	}
	spec := func() *workload.Spec { return suite[r.Intn(len(suite))] }
	tag := 0

	events := 25 + r.Intn(15)
	for ; ev < events; ev++ {
		switch op := r.Intn(20); {
		case op < 7: // arrival
			s := spec()
			fp, ferr := flat.PlaceWith(ctx, s, PlaceOptions{})
			sp, serr := sharded.PlaceWith(ctx, s, PlaceOptions{})
			same("place "+s.Name, outcomeKey([]Placed{fp}, ferr), outcomeKey([]Placed{sp}, serr))
		case op < 10: // departure of a random resident
			var refs [][2]string
			for _, ni := range flat.Inspect() {
				for _, res := range ni.Residents {
					refs = append(refs, [2]string{ni.Name, res.Name})
				}
			}
			if len(refs) == 0 {
				continue
			}
			ref := refs[r.Intn(len(refs))]
			fp, ferr := flat.Remove(ctx, ref[0], ref[1])
			sp, serr := sharded.Remove(ctx, ref[0], ref[1])
			if ferr != nil || serr != nil {
				t.Fatalf("seed %d ev %d: remove %s/%s of a listed resident: flat err=%v, sharded err=%v",
					seed, ev, ref[0], ref[1], ferr, serr)
			}
			same("remove "+ref[0]+"/"+ref[1], outcomeKey(fp, ferr), outcomeKey(sp, serr))
		case op < 12: // submission with a priority class, then a pump
			s, prio := spec(), []int{0, 0, 1, 2}[r.Intn(4)]
			tag++
			name := fmt.Sprintf("q%d", tag)
			ft, ferr := flat.SubmitWith(s, name, prio)
			st, serr := sharded.SubmitWith(s, name, prio)
			same("submit "+s.Name, fmt.Sprint(ft, ferr == nil), fmt.Sprint(st, serr == nil))
			fp, ferr := flat.Pump(ctx)
			sp, serr := sharded.Pump(ctx)
			same("pump", outcomeKey(fp, ferr), outcomeKey(sp, serr))
		case op < 13: // cancel a random queued ticket
			qi := flat.QueuedInfo()
			if len(qi) == 0 {
				continue
			}
			tk := qi[r.Intn(len(qi))].Ticket
			same(fmt.Sprintf("cancel %d", tk), fmt.Sprint(flat.CancelQueued(tk)), fmt.Sprint(sharded.CancelQueued(tk)))
		case op < 14: // transactional batch
			batch := []*workload.Spec{spec(), spec()}
			if r.Intn(2) == 0 {
				batch = append(batch, spec())
			}
			fp, ferr := flat.PlaceAll(ctx, batch)
			sp, serr := sharded.PlaceAll(ctx, batch)
			same("place-all", outcomeKey(fp, ferr), outcomeKey(sp, serr))
		case op < 15: // thread group
			g := threads.GroupSpec{Base: spec(), Threads: 1 + r.Intn(3), SharedFrac: 0.5, WriteFrac: 0.5}
			fp, ferr := flat.PlaceGroup(ctx, g)
			sp, serr := sharded.PlaceGroup(ctx, g)
			same("place-group", outcomeKey(fp, ferr), outcomeKey(sp, serr))
		case op < 16: // cross-machine rebalance
			fm, ferr := flat.Rebalance(ctx, 0)
			sm, serr := sharded.Rebalance(ctx, 0)
			same("rebalance", jsonKey(t, fm, ferr), jsonKey(t, sm, serr))
		case op < 18: // tighten (or clear) the budget and enforce it
			_, watts, err := flat.Totals(ctx)
			if err != nil {
				t.Fatal(err)
			}
			budget := watts * (0.8 + 0.3*r.Float64())
			if r.Intn(4) == 0 {
				budget = 0
			}
			ferr := flat.SetPowerCap(ctx, budget)
			serr := sharded.SetPowerCap(ctx, budget)
			same("set-cap", fmt.Sprint(ferr), fmt.Sprint(serr))
			frep, ferr := flat.EnforceCap(ctx)
			srep, serr := sharded.EnforceCap(ctx)
			same("enforce-cap", jsonKey(t, frep, ferr), jsonKey(t, srep, serr))
		default: // fail + restore one machine (evicts its residents)
			name := flat.NodeNames()[r.Intn(nNodes)]
			fev, ferr := flat.FailNode(name)
			sev, serr := sharded.FailNode(name)
			same("fail "+name, fmt.Sprint(len(fev), ferr == nil), fmt.Sprint(len(sev), serr == nil))
			failed := ferr == nil
			fp, ferr := flat.RestoreNode(ctx, name)
			sp, serr := sharded.RestoreNode(ctx, name)
			if failed && (ferr != nil || serr != nil) {
				t.Fatalf("seed %d ev %d: restore %s after a successful fail: flat err=%v, sharded err=%v",
					seed, ev, name, ferr, serr)
			}
			same("restore "+name, outcomeKey(fp, ferr), outcomeKey(sp, serr))
		}
		same("queue", fmt.Sprint(flat.QueuedInfo()), fmt.Sprint(sharded.QueuedInfo()))
		same("cap-usage", fmt.Sprintf("%x", math.Float64bits(flat.CapUsage())), fmt.Sprintf("%x", math.Float64bits(sharded.CapUsage())))
	}
	if f, s := flatDigest.Sum64(), shardDigest.Sum64(); f != s {
		t.Fatalf("seed %d: decision digest %016x != sharded %016x", seed, f, s)
	}

	// Terminal cross-check: identical cluster layout, byte for byte.
	fi, si := flat.Inspect(), sharded.Inspect()
	if len(fi) != len(si) {
		t.Fatalf("seed %d: inspect length %d != %d", seed, len(fi), len(si))
	}
	for i := range fi {
		if fi[i].Name != si[i].Name || fi[i].Freq != si[i].Freq || len(fi[i].Residents) != len(si[i].Residents) {
			t.Fatalf("seed %d: node %d layout diverged: %+v vs %+v", seed, i, fi[i], si[i])
		}
		for j := range fi[i].Residents {
			fr, sr := fi[i].Residents[j], si[i].Residents[j]
			if fr.Name != sr.Name || fr.Core != sr.Core || fr.Spec.Name != sr.Spec.Name {
				t.Fatalf("seed %d: node %s resident %d: %s/core%d/%s vs %s/core%d/%s",
					seed, fi[i].Name, j, fr.Name, fr.Core, fr.Spec.Name, sr.Name, sr.Core, sr.Spec.Name)
			}
		}
	}
}

// TestShardedEquivalence is the 150-seed sweep: a fleet split into lock
// groups must behave identically to a one-group fleet — same decisions,
// same queue, same preemptions, batches, groups, moves and cap
// enforcement, same digest — across randomized heterogeneous fleets,
// group counts, traces, and failures.
func TestShardedEquivalence(t *testing.T) {
	seeds := 150
	if testing.Short() {
		seeds = 24
	}
	for seed := 0; seed < seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%03d", seed), func(t *testing.T) {
			t.Parallel()
			cacheCap := 0 // default: cached
			if seed%3 == 0 {
				cacheCap = -1 // cold: every decision re-solved
			}
			runShardedEquivSweep(t, int64(seed), cacheCap)
		})
	}
}
