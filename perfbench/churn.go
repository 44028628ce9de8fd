package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"mpmc/internal/fleet"
	"mpmc/internal/server"
)

// fleet-churn: the production write path. Two closed-loop admission
// workers each place one seeded bench at a time on the sharded, durable
// fleet; at its resident budget a worker first removes its oldest resident.
// Scoring mostly hits the memo, so HTTP and JSON, the sharded commit and
// the WAL append do the work.
const (
	churnFleet   = "workstation,server,laptop,workstation,server,laptop,workstation,server"
	churnShards  = "2"
	churnClients = 2
	// churnBudget is each worker's resident budget: with the ten warm-up
	// residents, 30 of the fleet's 44 slots (68%) are taken at steady
	// state, so no placement is refused.
	churnBudget = 10
	// recheck is how many removed residents per worker are removed a second
	// time, which must fail with 404.
	recheck = 16
)

func churnArgs(stateDir string) []string {
	return []string{"-synthetic", "-fleet", churnFleet, "-shards", churnShards, "-state-dir", stateDir}
}

// resident is one acknowledged placement.
type resident struct{ bench, node, name string }

func unplacePath(r resident) string {
	return "/v1/fleet/place/" + url.PathEscape(r.node) + "/" + url.PathEscape(r.name)
}

// placeOne POSTs a single-bench placement and parses the acknowledgement.
func placeOne(ctx context.Context, c *client, bench string) (reply, resident, error) {
	rep, err := c.postJSON(ctx, "/v1/fleet/place", server.FleetPlaceRequest{Benches: []string{bench}})
	if err != nil || rep.status/100 != 2 {
		return rep, resident{}, err
	}
	var resp server.FleetPlaceResponse
	if err := json.Unmarshal(rep.body, &resp); err != nil {
		return rep, resident{}, fmt.Errorf("decoding placement: %w", err)
	}
	if len(resp.Placements) != 1 || resp.Placements[0].Bench != bench {
		return rep, resident{}, fmt.Errorf("placement of %s acknowledged as %s", bench, rep.body)
	}
	p := resp.Placements[0]
	return rep, resident{bench: bench, node: p.Node, name: p.Name}, nil
}

// churnWarm places every suite bench once, so each machine kind's features
// are resolved before timing. The warm-up residents stay for the whole run.
func churnWarm(ctx context.Context, c *client) ([]resident, error) {
	var warm []resident
	for _, b := range suiteNames() {
		rep, r, err := placeOne(ctx, c, b)
		if err == nil && rep.status/100 != 2 {
			err = fmt.Errorf("status %d: %s", rep.status, rep.body)
		}
		if err != nil {
			return nil, fmt.Errorf("warm-up placement of %s: %w", b, err)
		}
		warm = append(warm, r)
	}
	return warm, nil
}

// churnRun is the outcome of the timed churn plus its drain.
type churnRun struct {
	timed, drain   tally
	place, unplace latencies
	acked          int // acknowledged placements in the timed phase
	// elapsed runs from the start of the loop to the end of the last
	// worker's last timed request.
	elapsed         time.Duration
	doubleRemovals  int // second removals that did not answer 404
	removalFailures []string
}

// churnLoop runs the closed loop with the given number of workers for dur,
// or until each worker has made maxPlace placements (0 = no limit), then
// removes every resident the workers placed (each exactly once) and
// re-removes a sample of them.
func churnLoop(ctx context.Context, c *client, seed uint64, workers int, dur time.Duration, maxPlace int) (*churnRun, error) {
	run := &churnRun{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	errs := make([]error, workers)
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			errs[w] = churnWorker(ctx, c, seed, w, start, start.Add(dur), maxPlace, run, &mu)
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

// churnWorker is one admission worker; it merges its figures into run.
func churnWorker(ctx context.Context, c *client, seed uint64, w int, start, deadline time.Time, maxPlace int, run *churnRun, mu *sync.Mutex) error {
	stream := newChurnStream(seed, w)
	var mine, removed []resident
	var timed, drain tally
	var place, unplace latencies
	var bad []string
	remove := func(r resident, t *tally, lat *latencies) error {
		rep, err := c.do(ctx, http.MethodDelete, unplacePath(r), nil)
		if ctx.Err() != nil {
			return ctx.Err()
		}
		t.add(rep.status, err)
		if err != nil || rep.status/100 != 2 {
			bad = append(bad, fmt.Sprintf("remove %s/%s: status %d err %v", r.node, r.name, rep.status, err))
			return nil
		}
		if lat != nil {
			*lat = append(*lat, sample{at: time.Since(start), took: rep.took})
		}
		removed = append(removed, r)
		return nil
	}
	acked := 0
	for time.Now().Before(deadline) && (maxPlace == 0 || acked < maxPlace) {
		if len(mine) >= churnBudget {
			if err := remove(mine[0], &timed, &unplace); err != nil {
				return err
			}
			mine = mine[1:]
		}
		rep, r, err := placeOne(ctx, c, stream.next())
		if ctx.Err() != nil {
			return ctx.Err()
		}
		timed.add(rep.status, err)
		if err == nil && rep.status/100 == 2 {
			mine = append(mine, r)
			place = append(place, sample{at: time.Since(start), took: rep.took})
			acked++
		}
	}
	elapsed := time.Since(start)
	for _, r := range mine {
		if err := remove(r, &drain, nil); err != nil {
			return err
		}
	}
	doubles := 0
	for i := 0; i < len(removed) && i < recheck; i++ {
		rep, err := c.do(ctx, http.MethodDelete, unplacePath(removed[i]), nil)
		if err != nil {
			return err
		}
		if rep.status != http.StatusNotFound {
			doubles++
		}
	}
	mu.Lock()
	defer mu.Unlock()
	run.timed.merge(timed)
	run.drain.merge(drain)
	run.place = append(run.place, place...)
	run.unplace = append(run.unplace, unplace...)
	run.acked += acked
	run.elapsed = max(run.elapsed, elapsed)
	run.doubleRemovals += doubles
	run.removalFailures = append(run.removalFailures, bad...)
	return nil
}

// residentNames lists every resident instance in a fleet state body.
func residentNames(body []byte) ([]string, error) {
	var st fleet.State
	if err := json.Unmarshal(body, &st); err != nil {
		return nil, fmt.Errorf("decoding fleet state: %w", err)
	}
	var names []string
	for _, n := range st.Nodes {
		for _, c := range n.Cores {
			for _, p := range c.Procs {
				names = append(names, n.Node+"/"+p)
			}
		}
	}
	sort.Strings(names)
	return names, nil
}

// churnCheck verifies the run against the server: every acknowledged
// placement was removed exactly once, the residents left are the warm-up
// set, and fleet_place_total counts exactly the acknowledged placements.
func churnCheck(ctx context.Context, c *client, out *outcome, warm []resident, run *churnRun) ([]byte, error) {
	out.check(len(run.removalFailures) == 0, "removals failed: %v", run.removalFailures)
	out.check(run.doubleRemovals == 0, "%d second removals of a removed resident did not answer 404", run.doubleRemovals)
	state, err := mustOK(c.do(ctx, http.MethodGet, "/v1/fleet/state", nil))
	if err != nil {
		return nil, fmt.Errorf("reading fleet state: %w", err)
	}
	got, err := residentNames(state)
	if err != nil {
		return nil, err
	}
	var want []string
	for _, r := range warm {
		want = append(want, r.node+"/"+r.name)
	}
	sort.Strings(want)
	out.check(fmt.Sprint(got) == fmt.Sprint(want), "final residents %v, want the warm-up set %v", got, want)
	m, err := c.scrape(ctx)
	if err != nil {
		return nil, err
	}
	acked := len(warm) + run.acked
	out.check(m["fleet_place_total"] == float64(acked), "fleet_place_total %v, want %d acknowledged placements", m["fleet_place_total"], acked)
	return state, nil
}

// churnE2E runs fleet-churn against the real serve binary, then SIGKILLs it
// and restarts it from its state directory.
func churnE2E(ctx context.Context, o runOpts) (*outcome, error) {
	out := newOutcome()
	logPath := filepath.Join(o.dir, "serve.log")
	stateDir := func(i int) string { return filepath.Join(o.dir, fmt.Sprintf("state%d", i)) }
	p, setup, err := launchRepeated(ctx, o.serve, func(i int) []string { return churnArgs(stateDir(i)) }, logPath)
	if err != nil {
		return nil, err
	}
	defer func() { p.kill() }()
	c := newClient("http://"+p.addr, nil)
	defer c.close()
	warm, err := churnWarm(ctx, c)
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
	run, err := churnLoop(ctx, c, o.seed, churnClients, o.dur, 0)
	if err != nil {
		return nil, err
	}
	cpu1, err := p.cpuTime()
	if err != nil {
		return nil, err
	}
	before, err := churnCheck(ctx, c, out, warm, run)
	if err != nil {
		return nil, err
	}
	rss, err := p.peakRSSMB()
	if err != nil {
		return nil, err
	}

	p.kill()
	p, recoverDur, err := launch(ctx, o.serve, churnArgs(stateDir(setupRuns-1)), logPath)
	if err != nil {
		return nil, fmt.Errorf("restart from the state directory: %w", err)
	}
	c2 := newClient("http://"+p.addr, nil)
	defer c2.close()
	after, err := mustOK(c2.do(ctx, http.MethodGet, "/v1/fleet/state", nil))
	if err != nil {
		return nil, fmt.Errorf("reading recovered state: %w", err)
	}
	out.check(bytes.Equal(before, after), "fleet state after the SIGKILL restart differs from the state before it")

	pl, un := summarize(run.place), summarize(run.unplace)
	out.timed = run.timed
	out.metrics["setup_s"] = setup
	out.metrics["warm_rss_mb"] = warmRSS
	out.metrics["cpu_us_per_req"] = us(cpu1-cpu0) / float64(run.timed.succeeded)
	out.setWindowed(append(append(latencies(nil), run.place...), run.unplace...), run.place, run.elapsed)
	out.note("peak_rss_mb %.2f MB", rss)
	out.latency("place", pl)
	out.latency("unplace", un)
	out.note("recover_s %.4f s (restart after %d placements)", recoverDur.Seconds(), len(warm)+run.acked)
	out.note("phase timed: %v", run.timed)
	out.note("phase drain: %v", run.drain)
	return out, nil
}
