package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"path/filepath"
	"time"

	"mpmc/internal/cli"
	"mpmc/internal/core"
	"mpmc/internal/server"
	"mpmc/internal/workload"
)

// cold-profile: admitting never-seen applications. A server with trained
// power models profiles each suite bench through internal/sim (the Section
// 3.4 stressmark sweep), then the two-machine fleet admits each, profiling
// it again per machine kind. It is the only workload where the simulator and
// training do the work.
const (
	coldMachine = "workstation"
	coldFleet   = "workstation,laptop"
	// coldBudget caps the residents the admissions leave on the 8-slot
	// fleet: at it the oldest is removed first, so no admission is refused.
	coldBudget = 4
	// profileSeed and quick are serve's defaults, which the benchmark does
	// not override; the in-process reference profiles with them too.
	profileSeed = 1
	quick       = true
	// maxMPAErrPct is the fidelity floor: the served workstation curves sit
	// 1.26% (mean absolute MPA gap) from the analytic truth, and a change
	// that moves them more than a fifth further from it fails the run, so a
	// faster profile that predicts worse cannot pass as a speed-up.
	maxMPAErrPct = 1.5
)

func coldArgs() []string {
	return []string{"-quick", "-machine", coldMachine, "-fleet", coldFleet}
}

// coldRun is the outcome of the admission phase.
type coldRun struct {
	timed   tally
	elapsed time.Duration
	// admit is each bench's profile latency plus its placement latency.
	admit    latencies
	profiled map[string]json.RawMessage // served feature vector per bench
	bad      []string
}

// coldLoop profiles each bench in the seeded order, then places each.
func coldLoop(ctx context.Context, c *client, seed uint64) (*coldRun, error) {
	order := coldOrder(seed)
	run := &coldRun{profiled: map[string]json.RawMessage{}}
	lat := map[string]time.Duration{}
	start := time.Now()
	for _, b := range order {
		rep, err := c.postJSON(ctx, "/v1/profile", server.ProfileRequest{Benches: []string{b}})
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		run.timed.add(rep.status, err)
		if err != nil || rep.status/100 != 2 {
			run.bad = append(run.bad, fmt.Sprintf("profile %s: status %d err %v", b, rep.status, err))
			continue
		}
		var resp struct {
			Features []struct {
				Feature json.RawMessage `json:"feature"`
			} `json:"features"`
		}
		if err := json.Unmarshal(rep.body, &resp); err != nil || len(resp.Features) != 1 {
			run.bad = append(run.bad, fmt.Sprintf("profile %s: malformed body %s", b, rep.body))
			continue
		}
		run.profiled[b] = resp.Features[0].Feature
		lat[b] = rep.took
	}
	var mine []resident
	for _, b := range order {
		if len(mine) >= coldBudget {
			rep, err := c.do(ctx, http.MethodDelete, unplacePath(mine[0]), nil)
			run.timed.add(rep.status, err)
			if err != nil || rep.status/100 != 2 {
				run.bad = append(run.bad, fmt.Sprintf("remove %s: status %d err %v", mine[0].name, rep.status, err))
			}
			mine = mine[1:]
		}
		rep, r, err := placeOne(ctx, c, b)
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		run.timed.add(rep.status, err)
		if err != nil || rep.status/100 != 2 {
			run.bad = append(run.bad, fmt.Sprintf("place %s: status %d err %v", b, rep.status, err))
			continue
		}
		mine = append(mine, r)
		if d, ok := lat[b]; ok {
			run.admit = append(run.admit, sample{at: time.Since(start), took: d + rep.took})
		}
	}
	run.elapsed = time.Since(start)
	return run, nil
}

// coldCheck compares each served feature vector with core.Profile run
// in-process at the same seed and options, and returns the mean absolute
// gap between the served MPA curves and the analytic truth, in percent.
func coldCheck(ctx context.Context, out *outcome, run *coldRun) (float64, error) {
	out.check(len(run.bad) == 0, "cold-profile requests failed: %v", run.bad)
	m, err := cli.MachineByName(coldMachine)
	if err != nil {
		return 0, err
	}
	fc := cli.FeatureConfig{Seed: profileSeed, Quick: quick}
	var gap float64
	var points int
	for _, b := range sortedKeys(run.profiled) {
		spec := workload.ByName(b)
		want, err := core.Profile(ctx, m, spec, fc.ProfileOptions(b))
		if err != nil {
			return 0, fmt.Errorf("reference profile of %s: %w", b, err)
		}
		wantJSON, err := json.Marshal(want)
		if err != nil {
			return 0, err
		}
		out.check(bytes.Equal(run.profiled[b], wantJSON), "served feature of %s differs from in-process core.Profile", b)
		truth := core.TruthFeature(spec, m)
		for s := 1; s < len(truth.MPACurve) && s < len(want.MPACurve); s++ {
			gap += math.Abs(want.MPACurve[s] - truth.MPACurve[s])
			points++
		}
	}
	if points == 0 {
		return 0, fmt.Errorf("no profiled features to check")
	}
	return 100 * gap / float64(points), nil
}

func coldE2E(ctx context.Context, o runOpts) (*outcome, error) {
	out := newOutcome()
	p, setup, err := launchRepeated(ctx, o.serve, func(int) []string { return coldArgs() }, filepath.Join(o.dir, "serve.log"))
	if err != nil {
		return nil, err
	}
	defer p.kill()
	c := newClient("http://"+p.addr, nil)
	defer c.close()
	warmRSS, err := p.peakRSSMB()
	if err != nil {
		return nil, err
	}
	cpu0, err := p.cpuTime()
	if err != nil {
		return nil, err
	}
	run, err := coldLoop(ctx, c, o.seed)
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
	m, err := c.scrape(ctx)
	if err != nil {
		return nil, err
	}
	p.kill()
	errPct, err := coldCheck(ctx, out, run)
	if err != nil {
		return nil, err
	}
	ad := summarize(run.admit)
	out.timed = run.timed
	out.metrics["setup_s"] = setup
	out.metrics["req_per_s"] = float64(run.timed.succeeded) / run.elapsed.Seconds()
	out.metrics["p50_ms"] = ms(ad.p50)
	out.metrics["warm_rss_mb"] = warmRSS
	out.metrics["cpu_us_per_req"] = us(cpu1-cpu0) / float64(run.timed.succeeded)
	out.note("peak_rss_mb %.2f MB", rss)
	out.note("profile_s %.4f s", run.elapsed.Seconds())
	out.note("admit_p50_ms %.4f ms", ms(ad.p50))
	out.note("admit_samples %d count", ad.n)
	out.note("model_mpa_err_pct %.6f %%", errPct)
	out.check(errPct <= maxMPAErrPct, "model_mpa_err_pct %.4f exceeds the fidelity floor %.2f", errPct, maxMPAErrPct)
	out.note("profile_runs %d count (server %d, fleet %d)", int(m["profile_runs_total"]+m["fleet_profile_runs_total"]),
		int(m["profile_runs_total"]), int(m["fleet_profile_runs_total"]))
	out.note("phase timed: %v", run.timed)
	return out, nil
}
