package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"mpmc/internal/cli"
	"mpmc/internal/core"
	"mpmc/internal/machine"
	"mpmc/internal/server"
	"mpmc/internal/workload"
)

// model-query: the read path. Two closed-loop clients send a seeded mix of
// assignment rankings (Eqs. 10-11, exhaustive), co-run predictions and
// fleet-state reads to a synthetic-model server of the "server" machine
// with the churn fleet attached unsharded and preloaded. Nothing commits or
// journals, so the equilibrium solver does the work.
const (
	queryMachine = "server"
	queryClients = 2
	// assignTop is the number of ranked assignments a response carries
	// (the server's default for top 0).
	assignTop = 5
)

func queryArgs() []string {
	return []string{"-synthetic", "-machine", queryMachine, "-fleet", churnFleet, "-shards", "1"}
}

// queryPreload is the fixed resident set: every suite bench twice, 20 of
// the fleet's 44 slots.
func queryPreload() []string {
	names := suiteNames()
	return append(names, names...)
}

// queryWarm resolves every bench's features on the server and places the
// preload; it returns the fleet state body the reads must all equal.
func queryWarm(ctx context.Context, c *client) ([]byte, error) {
	if _, err := mustOK(c.postJSON(ctx, "/v1/profile", server.ProfileRequest{Benches: suiteNames()})); err != nil {
		return nil, fmt.Errorf("warming features: %w", err)
	}
	if _, err := mustOK(c.postJSON(ctx, "/v1/fleet/place", server.FleetPlaceRequest{Benches: queryPreload()})); err != nil {
		return nil, fmt.Errorf("preloading the fleet: %w", err)
	}
	state, err := mustOK(c.do(ctx, http.MethodGet, "/v1/fleet/state", nil))
	if err != nil {
		return nil, fmt.Errorf("reading fleet state: %w", err)
	}
	return state, nil
}

func (q queryReq) key() string { return q.kind + ":" + strings.Join(q.benches, ",") }

// queryRun is the outcome of the timed mix.
type queryRun struct {
	timed   tally
	lat     map[string]latencies
	elapsed time.Duration
	// bodies holds one response body per distinct assign or predict
	// request; mismatches counts repeats whose body differed from it.
	bodies     map[string][]byte
	reqs       map[string]queryReq
	mismatches int
	stateDiffs int
	// served lists every traced request: its key and handler span.
	served []servedQuery
}

type servedQuery struct {
	key       string
	req, span uint64
}

// queryLoop runs the closed-loop mix for dur. state is the body every fleet
// state read must equal.
func queryLoop(ctx context.Context, c *client, seed uint64, dur time.Duration, state []byte) (*queryRun, error) {
	run := &queryRun{lat: map[string]latencies{}, bodies: map[string][]byte{}, reqs: map[string]queryReq{}}
	var mu sync.Mutex
	var wg sync.WaitGroup
	errs := make([]error, queryClients)
	start := time.Now()
	deadline := start.Add(dur)
	for w := 0; w < queryClients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			errs[w] = queryWorker(ctx, c, seed, w, start, deadline, state, run, &mu)
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return run, nil
}

func queryWorker(ctx context.Context, c *client, seed uint64, w int, start, deadline time.Time, state []byte, run *queryRun, mu *sync.Mutex) error {
	stream := newQueryStream(seed, w)
	for time.Now().Before(deadline) {
		q := stream.next()
		var rep reply
		var err error
		switch q.kind {
		case opAssign:
			rep, err = c.postJSON(ctx, "/v1/assign", server.AssignRequest{Benches: q.benches})
		case opPredict:
			rep, err = c.postJSON(ctx, "/v1/predict", server.PredictRequest{Benches: q.benches})
		default:
			rep, err = c.do(ctx, http.MethodGet, "/v1/fleet/state", nil)
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		mu.Lock()
		run.timed.add(rep.status, err)
		if err == nil && rep.status/100 == 2 {
			run.lat[q.kind] = append(run.lat[q.kind], sample{at: time.Since(start), took: rep.took})
			if q.kind == opState {
				if !bytes.Equal(rep.body, state) {
					run.stateDiffs++
				}
			} else {
				k := q.key()
				if prev, ok := run.bodies[k]; !ok {
					run.bodies[k], run.reqs[k] = rep.body, q
				} else if !bytes.Equal(prev, rep.body) {
					run.mismatches++
				}
				if rep.req != 0 {
					run.served = append(run.served, servedQuery{key: k, req: rep.req, span: rep.span})
				}
			}
		}
		run.elapsed = max(run.elapsed, time.Since(start))
		mu.Unlock()
	}
	return nil
}

// queryRef computes the model-query answers in-process from the same public
// core calls and features the synthetic server uses.
type queryRef struct {
	m     *machine.Machine
	cm    *core.CombinedModel
	feats map[string]*core.FeatureVector
}

func newQueryRef() (*queryRef, error) {
	m, err := cli.MachineByName(queryMachine)
	if err != nil {
		return nil, err
	}
	pm, err := core.SyntheticPowerModel()
	if err != nil {
		return nil, err
	}
	ref := &queryRef{m: m, cm: core.NewCombinedModel(m, pm), feats: map[string]*core.FeatureVector{}}
	for _, s := range workload.Suite() {
		ref.feats[s.Name] = core.TruthFeature(s, m)
	}
	return ref, nil
}

func (r *queryRef) features(names []string) []*core.FeatureVector {
	out := make([]*core.FeatureVector, len(names))
	for i, n := range names {
		out[i] = r.feats[n]
	}
	return out
}

// assign is POST /v1/assign's body for benches.
func (r *queryRef) assign(ctx context.Context, benches []string) ([]byte, error) {
	results, err := r.cm.BestAssignmentContext(ctx, r.features(benches), 0)
	if err != nil {
		return nil, err
	}
	resp := server.AssignResponse{Machine: r.m.Name, Evaluated: len(results)}
	for _, res := range results[:min(assignTop, len(results))] {
		layout := make([][]string, len(res.Assignment))
		for c, fs := range res.Assignment {
			layout[c] = make([]string, 0, len(fs))
			for _, f := range fs {
				layout[c] = append(layout[c], f.Name)
			}
		}
		resp.Results = append(resp.Results, server.AssignResultInfo{Watts: res.Watts, Layout: layout})
	}
	return json.Marshal(resp)
}

// predict is POST /v1/predict's body for benches under the auto solver.
func (r *queryRef) predict(ctx context.Context, benches []string) ([]byte, error) {
	preds, err := core.PredictGroupContext(ctx, r.features(benches), r.m.Assoc, core.SolverAuto)
	if err != nil {
		return nil, err
	}
	resp := server.PredictResponse{Machine: r.m.Name, Assoc: r.m.Assoc, Solver: "auto"}
	for _, p := range preds {
		resp.Predictions = append(resp.Predictions, server.PredictionInfo{Bench: p.Feature.Name, SWays: p.S, MPA: p.MPA, SPI: p.SPI})
	}
	return json.Marshal(resp)
}

func (r *queryRef) answer(ctx context.Context, q queryReq) ([]byte, error) {
	if q.kind == opAssign {
		return r.assign(ctx, q.benches)
	}
	return r.predict(ctx, q.benches)
}

// verify compares every distinct served body with its reference and
// returns how long each reference call took, by request key.
func (r *queryRef) verify(ctx context.Context, out *outcome, run *queryRun) (map[string]time.Duration, error) {
	took := map[string]time.Duration{}
	bad := 0
	for _, k := range sortedKeys(run.bodies) {
		start := time.Now()
		want, err := r.answer(ctx, run.reqs[k])
		if err != nil {
			return nil, fmt.Errorf("reference for %s: %w", k, err)
		}
		took[k] = time.Since(start)
		if !bytes.Equal(run.bodies[k], want) {
			bad++
			if bad == 1 {
				out.check(false, "%s: served %s, reference %s", k, run.bodies[k], want)
			}
		}
	}
	out.check(bad == 0, "%d of %d distinct assign/predict bodies differ from the in-process reference", bad, len(run.bodies))
	out.check(run.mismatches == 0, "%d repeated requests got a different body", run.mismatches)
	out.check(run.stateDiffs == 0, "%d fleet state reads differ from the preloaded state", run.stateDiffs)
	return took, nil
}

func queryE2E(ctx context.Context, o runOpts) (*outcome, error) {
	out := newOutcome()
	ref, err := newQueryRef()
	if err != nil {
		return nil, err
	}
	p, setup, err := launchRepeated(ctx, o.serve, func(int) []string { return queryArgs() }, filepath.Join(o.dir, "serve.log"))
	if err != nil {
		return nil, err
	}
	defer p.kill()
	c := newClient("http://"+p.addr, nil)
	defer c.close()
	state, err := queryWarm(ctx, c)
	if err != nil {
		return nil, err
	}
	warmRSS, err := p.peakRSSMB()
	if err != nil {
		return nil, err
	}
	cpu0, err := p.cpuTime()
	if err != nil {
		return nil, err
	}
	run, err := queryLoop(ctx, c, o.seed, o.dur, state)
	if err != nil {
		return nil, err
	}
	cpu1, err := p.cpuTime()
	if err != nil {
		return nil, err
	}
	rss, err := p.peakRSSMB()
	if err != nil {
		return nil, err
	}
	if _, err := ref.verify(ctx, out, run); err != nil {
		return nil, err
	}
	var all latencies
	for _, l := range run.lat {
		all = append(all, l...)
	}
	out.timed = run.timed
	out.metrics["setup_s"] = setup
	out.metrics["warm_rss_mb"] = warmRSS
	out.metrics["cpu_us_per_req"] = us(cpu1-cpu0) / float64(run.timed.succeeded)
	out.setWindowed(all, run.lat[opAssign], run.elapsed)
	out.note("peak_rss_mb %.2f MB", rss)
	out.latency("assign", summarize(run.lat[opAssign]))
	out.latency("predict", summarize(run.lat[opPredict]))
	out.latency("fleet_state", summarize(run.lat[opState]))
	out.note("phase timed: %v", run.timed)
	return out, nil
}
