package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"mpmc/internal/cli"
	"mpmc/internal/core"
	"mpmc/internal/metrics"
	"mpmc/internal/sim"
	"mpmc/internal/wal"
	"mpmc/internal/workload"
)

// A traced run first drives the in-process stack without spans for
// untracedShare of its time, then with spans for the rest; the difference
// of the primary operation's medians is the tracing overhead.
const untracedShare = 0.4

// countedPlacements is the length of fleet-churn's counting phase: one
// worker, so every decision and WAL record, and with them the counts,
// repeat exactly for a seed.
const countedPlacements = 300

// callsForAllocs is how many canonical core calls the allocation counts
// average over.
const callsForAllocs = 8

func splitDur(d time.Duration) (untraced, traced time.Duration) {
	u := time.Duration(float64(d) * untracedShare)
	return u, d - u
}

// memDelta is the Go runtime's allocation and GC pause counts over a phase.
type memDelta struct{ mallocs, pauseNs uint64 }

func memNow() memDelta {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memDelta{m.Mallocs, m.PauseTotalNs}
}

func (a memDelta) to(b memDelta) memDelta {
	return memDelta{b.mallocs - a.mallocs, b.pauseNs - a.pauseNs}
}

// setRuntime records the runtime metrics of the traced phase. They include
// the in-process client's allocations.
func (o *outcome) setRuntime(d memDelta, requests int) {
	if requests > 0 {
		o.metrics["runtime.allocs_per_req"] = float64(d.mallocs) / float64(requests)
	}
	o.metrics["runtime.gc_pause_ms"] = float64(d.pauseNs) / 1e6
}

// setOverhead records traced minus untraced medians of the primary
// operation.
func (o *outcome) setOverhead(untraced, traced latencies) {
	u, t := summarize(untraced).p50, summarize(traced).p50
	o.metrics["trace.overhead_us"] = us(t - u)
	if u > 0 {
		o.metrics["trace.overhead_pct"] = 100 * float64(t-u) / float64(u)
	}
	o.note("trace overhead: untraced p50 %.1fus (n=%d), traced p50 %.1fus (n=%d)", us(u), len(untraced), us(t), len(traced))
}

// setUseful records distinct profiled pairs over profiling sweeps run by
// both feature caches.
func (o *outcome) setUseful(rec *recorder, m map[string]float64) {
	runs := m["profile_runs_total"] + m["fleet_profile_runs_total"]
	if runs > 0 {
		o.metrics["profile.useful_ratio"] = float64(rec.profiledPairs()) / runs
	}
	o.note("profile pairs %d over %v sweeps", rec.profiledPairs(), runs)
}

// setHitRatio records the server feature cache's hit ratio.
func (o *outcome) setHitRatio(m map[string]float64) {
	if n := m["feature_cache_hits_total"] + m["feature_cache_misses_total"]; n > 0 {
		o.metrics["cache.feature_hit_ratio"] = m["feature_cache_hits_total"] / n
	}
}

// allocsPerCall is the mean heap allocation count of f's calls, measured
// with one P so that no other goroutine allocates in between.
func allocsPerCall(calls []func() error) (float64, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	before := memNow()
	for _, f := range calls {
		if err := f(); err != nil {
			return 0, err
		}
	}
	return float64(before.to(memNow()).mallocs) / float64(len(calls)), nil
}

func writeSpans(o runOpts, name string, rec *recorder) error {
	path := filepath.Join(filepath.Dir(o.dir), fmt.Sprintf("spans-%s-seed%d.jsonl", name, o.seed))
	return rec.writeSpans(path)
}

func churnStackCfg(dir string, rec *recorder) stackCfg {
	return stackCfg{machine: "server", fleet: churnFleet, shards: 2, synthetic: true, stateDir: dir, rec: rec}
}

// churnUntraced is phase A of a traced run: the same churn on an untraced
// in-process stack.
func churnUntraced(ctx context.Context, o runOpts, dur time.Duration) (latencies, error) {
	st, err := buildStack(ctx, churnStackCfg(filepath.Join(o.dir, "state-a"), nil), logPathIn(o.dir, "a"))
	if err != nil {
		return nil, err
	}
	defer st.close()
	c := newClient(st.url, nil)
	defer c.close()
	if _, err := churnWarm(ctx, c); err != nil {
		return nil, err
	}
	run, err := churnLoop(ctx, c, o.seed, churnClients, dur, 0)
	if err != nil {
		return nil, err
	}
	return run.place, st.stop()
}

func churnTraced(ctx context.Context, o runOpts) (*outcome, error) {
	out := newOutcome()
	untracedDur, tracedDur := splitDur(o.dur)
	placeA, err := churnUntraced(ctx, o, untracedDur)
	if err != nil {
		return nil, err
	}

	rec := newRecorder()
	dirB := filepath.Join(o.dir, "state-b")
	st, err := buildStack(ctx, churnStackCfg(dirB, rec), logPathIn(o.dir, "b"))
	if err != nil {
		return nil, err
	}
	defer st.close()
	c := newClient(st.url, rec)
	defer c.close()
	warm, err := churnWarm(ctx, c)
	if err != nil {
		return nil, err
	}
	mark, mem := rec.now(), memNow()
	run, err := churnLoop(ctx, c, o.seed, churnClients, tracedDur, 0)
	if err != nil {
		return nil, err
	}
	out.setRuntime(mem.to(memNow()), run.timed.attempted)
	before, err := churnCheck(ctx, c, out, warm, run)
	if err != nil {
		return nil, err
	}
	m, err := c.scrape(ctx)
	if err != nil {
		return nil, err
	}
	if err := st.stop(); err != nil {
		return nil, err
	}
	out.check(rec.walErr == nil, "wal append failed: %v", rec.walErr)

	// Recovery as after a kill: the log is left as the run wrote it.
	start := time.Now()
	log2, recovered, err := wal.Open(dirB)
	if err != nil {
		return nil, err
	}
	defer log2.Close()
	replay := &stack{cfg: churnStackCfg(dirB, nil), models: st.models, reg: metrics.NewRegistry(), profile: st.profile}
	fl, err := replay.buildFleet(ctx, nil)
	if err != nil {
		return nil, err
	}
	if err := fl.Recover(ctx, recovered); err != nil {
		return nil, err
	}
	replayDur := time.Since(start)
	rs, err := fl.State(ctx)
	if err != nil {
		return nil, err
	}
	after, err := json.Marshal(rs)
	if err != nil {
		return nil, err
	}
	out.check(bytes.Equal(before, after), "fleet state recovered from the WAL differs from the state before it")

	calls, walBytes, mutations, err := churnCounts(ctx, o)
	if err != nil {
		return nil, err
	}

	l := rec.stats(mark)
	out.timed = run.timed
	out.metrics["http.rtt_self_us"] = medUS(ofLayer(l.self, "http"))
	out.metrics["server.handler_self_us.fleet_place"] = medUS(l.self["server/fleet_place"])
	out.metrics["server.handler_self_us.fleet_unplace"] = medUS(l.self["server/fleet_unplace"])
	out.metrics["fleet.place_us"] = medUS(l.dur["fleet/place"])
	out.metrics["fleet.place_self_us"] = medUS(l.self["fleet/place"])
	out.metrics["fleet.remove_us"] = medUS(l.dur["fleet/remove"])
	out.metrics["wal.append_us"] = medUS(l.dur["wal/append"])
	out.metrics["wal.replay_s"] = replayDur.Seconds()
	if m["fleet_place_total"] > 0 {
		out.metrics["fleet.conflict_ratio"] = m["fleet_shard_conflict_total"] / m["fleet_place_total"]
	}
	out.metrics["fleet.score_calls_per_place"] = calls
	out.metrics["wal.bytes_per_mutation"] = walBytes
	out.setUseful(rec, m)
	out.setOverhead(placeA, run.place)
	out.note("conflicts %v over %v placements", m["fleet_shard_conflict_total"], m["fleet_place_total"])
	out.note("counting phase: %d mutations journaled", mutations)
	ambiguous, orphaned := rec.walAttribution()
	out.note("wal spans with several containing fleet spans: %d; with none: %d", ambiguous, orphaned)
	out.note("phase traced: %v", run.timed)
	return out, writeSpans(o, "fleet-churn", rec)
}

// churnCounts runs the serial counting phase with the Intercept hook and
// returns fleet.score calls per placement and WAL bytes per journaled
// mutation, both exact for a seed.
func churnCounts(ctx context.Context, o runOpts) (callsPerPlace, bytesPerMutation float64, mutations int, err error) {
	rec := newRecorder()
	dir := filepath.Join(o.dir, "state-c")
	cfg := churnStackCfg(dir, rec)
	cfg.intercept = true
	st, err := buildStack(ctx, cfg, logPathIn(o.dir, "c"))
	if err != nil {
		return 0, 0, 0, err
	}
	defer st.close()
	c := newClient(st.url, nil)
	defer c.close()
	if _, err := churnWarm(ctx, c); err != nil {
		return 0, 0, 0, err
	}
	calls0 := rec.count("fleet.score")
	bytes0, err := dirBytes(dir)
	if err != nil {
		return 0, 0, 0, err
	}
	mark := rec.now()
	run, err := churnLoop(ctx, c, o.seed, 1, time.Minute, countedPlacements)
	if err != nil {
		return 0, 0, 0, err
	}
	bytes1, err := dirBytes(dir)
	if err != nil {
		return 0, 0, 0, err
	}
	if err := st.stop(); err != nil {
		return 0, 0, 0, err
	}
	mutations = len(rec.stats(mark).dur["wal/append"])
	if run.acked == 0 || mutations == 0 {
		return 0, 0, 0, fmt.Errorf("counting phase placed %d and journaled %d", run.acked, mutations)
	}
	return float64(rec.count("fleet.score")-calls0) / float64(run.acked), float64(bytes1-bytes0) / float64(mutations), mutations, nil
}

// dirBytes sums the sizes of the regular files in dir.
func dirBytes(dir string) (int64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range ents {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		if info.Mode().IsRegular() {
			n += info.Size()
		}
	}
	return n, nil
}

func queryStackCfg(rec *recorder) stackCfg {
	return stackCfg{machine: queryMachine, fleet: churnFleet, shards: 1, synthetic: true, rec: rec}
}

func queryUntraced(ctx context.Context, o runOpts, dur time.Duration) (latencies, error) {
	st, err := buildStack(ctx, queryStackCfg(nil), logPathIn(o.dir, "a"))
	if err != nil {
		return nil, err
	}
	defer st.close()
	c := newClient(st.url, nil)
	defer c.close()
	state, err := queryWarm(ctx, c)
	if err != nil {
		return nil, err
	}
	run, err := queryLoop(ctx, c, o.seed, dur, state)
	if err != nil {
		return nil, err
	}
	return run.lat[opAssign], st.stop()
}

func queryTraced(ctx context.Context, o runOpts) (*outcome, error) {
	out := newOutcome()
	untracedDur, tracedDur := splitDur(o.dur)
	assignA, err := queryUntraced(ctx, o, untracedDur)
	if err != nil {
		return nil, err
	}

	rec := newRecorder()
	st, err := buildStack(ctx, queryStackCfg(rec), logPathIn(o.dir, "b"))
	if err != nil {
		return nil, err
	}
	defer st.close()
	c := newClient(st.url, rec)
	defer c.close()
	state, err := queryWarm(ctx, c)
	if err != nil {
		return nil, err
	}
	mark, mem := rec.now(), memNow()
	run, err := queryLoop(ctx, c, o.seed, tracedDur, state)
	if err != nil {
		return nil, err
	}
	out.setRuntime(mem.to(memNow()), run.timed.attempted)
	m, err := c.scrape(ctx)
	if err != nil {
		return nil, err
	}
	if err := st.stop(); err != nil {
		return nil, err
	}

	// The server calls core inside its handlers with no seam around the
	// call, so each distinct request is replayed here on the same features,
	// which also checks the body, and its time hangs under every handler
	// span that served that request.
	ref, err := newQueryRef()
	if err != nil {
		return nil, err
	}
	took, err := ref.verify(ctx, out, run)
	if err != nil {
		return nil, err
	}
	at := rec.now()
	for _, sq := range run.served {
		d := took[sq.key]
		rec.add(span{ID: rec.nextID.Add(1), Parent: sq.span, Req: sq.req, Layer: "core", Name: run.reqs[sq.key].kind,
			Start: at, End: at + int64(d), Replay: true})
	}
	assignAllocs, predictAllocs, err := coreAllocs(ctx, ref, o.seed)
	if err != nil {
		return nil, err
	}

	l := rec.stats(mark)
	out.timed = run.timed
	out.metrics["http.rtt_self_us"] = medUS(ofLayer(l.self, "http"))
	out.metrics["server.handler_self_us.assign"] = medUS(l.self["server/assign"])
	out.metrics["server.handler_self_us.predict"] = medUS(l.self["server/predict"])
	out.metrics["server.handler_self_us.fleet_state"] = medUS(l.self["server/fleet_state"])
	out.metrics["server.resp_bytes.assign"] = median(l.bytes["server/assign"])
	out.metrics["server.resp_bytes.fleet_state"] = median(l.bytes["server/fleet_state"])
	out.metrics["fleet.state_us"] = medUS(l.dur["fleet/state"])
	out.metrics["core.assign_us"] = medUS(l.dur["core/"+opAssign])
	out.metrics["core.predict_us"] = medUS(l.dur["core/"+opPredict])
	out.metrics["core.assign_allocs"] = assignAllocs
	out.metrics["core.predict_allocs"] = predictAllocs
	out.setHitRatio(m)
	out.setUseful(rec, m)
	out.setOverhead(assignA, run.lat[opAssign])
	out.note("phase traced: %v", run.timed)
	return out, writeSpans(o, "model-query", rec)
}

// coreAllocs counts allocations per BestAssignmentContext and per
// PredictGroupContext call over the first assign and predict requests of
// the seed's first client, so the counts repeat exactly for a seed.
func coreAllocs(ctx context.Context, ref *queryRef, seed uint64) (assign, predict float64, err error) {
	var assigns, predicts []func() error
	s := newQueryStream(seed, 0)
	for len(assigns) < callsForAllocs || len(predicts) < callsForAllocs {
		q := s.next()
		feats := ref.features(q.benches)
		switch {
		case q.kind == opAssign && len(assigns) < callsForAllocs:
			assigns = append(assigns, func() error { _, err := ref.cm.BestAssignmentContext(ctx, feats, 0); return err })
		case q.kind == opPredict && len(predicts) < callsForAllocs:
			predicts = append(predicts, func() error {
				_, err := core.PredictGroupContext(ctx, feats, ref.m.Assoc, core.SolverAuto)
				return err
			})
		}
	}
	if assign, err = allocsPerCall(assigns); err != nil {
		return 0, 0, err
	}
	predict, err = allocsPerCall(predicts)
	return assign, predict, err
}

func coldStackCfg(rec *recorder) stackCfg {
	return stackCfg{machine: coldMachine, fleet: coldFleet, shards: 1, rec: rec}
}

func coldUntraced(ctx context.Context, o runOpts) (latencies, error) {
	st, err := buildStack(ctx, coldStackCfg(nil), logPathIn(o.dir, "a"))
	if err != nil {
		return nil, err
	}
	defer st.close()
	c := newClient(st.url, nil)
	defer c.close()
	run, err := coldLoop(ctx, c, o.seed)
	if err != nil {
		return nil, err
	}
	return run.admit, st.stop()
}

// coldTraced has no share of time: both of its phases are a fixed amount
// of profiling.
func coldTraced(ctx context.Context, o runOpts) (*outcome, error) {
	out := newOutcome()
	admitA, err := coldUntraced(ctx, o)
	if err != nil {
		return nil, err
	}

	rec := newRecorder()
	st, err := buildStack(ctx, coldStackCfg(rec), logPathIn(o.dir, "b"))
	if err != nil {
		return nil, err
	}
	defer st.close()
	c := newClient(st.url, rec)
	defer c.close()
	mem := memNow()
	run, err := coldLoop(ctx, c, o.seed)
	if err != nil {
		return nil, err
	}
	out.setRuntime(mem.to(memNow()), run.timed.attempted)
	out.check(len(run.bad) == 0, "cold-profile requests failed: %v", run.bad)
	m, err := c.scrape(ctx)
	if err != nil {
		return nil, err
	}
	if err := st.stop(); err != nil {
		return nil, err
	}
	rate, err := simRefRate(o.seed)
	if err != nil {
		return nil, err
	}

	l := rec.stats(0)
	out.timed = run.timed
	out.metrics["http.rtt_self_us"] = medUS(ofLayer(l.self, "http"))
	out.metrics["server.handler_self_us.profile"] = medUS(l.self["server/profile"])
	out.metrics["server.handler_self_us.fleet_place"] = medUS(l.self["server/fleet_place"])
	out.metrics["fleet.place_us"] = medUS(l.dur["fleet/place"])
	out.metrics["fleet.place_self_us"] = medUS(l.self["fleet/place"])
	out.metrics["fleet.remove_us"] = medUS(l.dur["fleet/remove"])
	out.metrics["core.profile_ms"] = medUS(ofLayer(l.dur, "profile")) / 1000
	out.metrics["core.train_s"] = st.trainDur.Seconds()
	out.metrics["sim.l2_refs_per_host_s"] = rate
	out.setHitRatio(m)
	out.setUseful(rec, m)
	out.setOverhead(admitA, run.admit)
	out.note("profile_s traced %.4f s", run.elapsed.Seconds())
	out.note("phase traced: %v", run.timed)
	return out, writeSpans(o, "cold-profile", rec)
}

// simRefLen is how many profiling-length co-runs the simulator rate
// measures.
const simRefLen = 4

// simRefRate runs internal/sim directly on profiling-shaped co-runs (a
// bench with the stressmark on its cache partner, at the profiling run
// length) and returns simulated L2 references per host second.
func simRefRate(seed uint64) (float64, error) {
	m, err := cli.MachineByName(coldMachine)
	if err != nil {
		return 0, err
	}
	target := m.Groups[0][0]
	partner := m.Partners(target)[0]
	fc := cli.FeatureConfig{Seed: profileSeed, Quick: quick}
	var refs uint64
	start := time.Now()
	for i, b := range coldOrder(seed)[:simRefLen] {
		po := fc.ProfileOptions(b)
		asg := sim.Assignment{Procs: make([][]*workload.Spec, m.NumCores)}
		asg.Procs[target] = []*workload.Spec{workload.ByName(b)}
		asg.Procs[partner] = []*workload.Spec{workload.Stressmark(1 + i%(m.Assoc-1))}
		res, err := sim.Run(m, asg, sim.Options{Warmup: po.Warmup, Duration: po.Duration, Seed: po.Seed})
		if err != nil {
			return 0, err
		}
		for _, p := range res.Procs {
			refs += p.L2Refs
		}
	}
	return float64(refs) / time.Since(start).Seconds(), nil
}
