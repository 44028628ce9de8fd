// Command perfbench is the repository's end-to-end benchmark (run it through
// run.sh, which builds cmd/serve and this command from source first).
//
//	perfbench -serve <serve binary> -workdir <scratch dir> \
//	          --workload fleet-churn|model-query|cold-profile \
//	          --seed N --seconds S --trace 0|1
//
// With --trace 0 it boots the real serve binary, drives it over loopback
// HTTP from this one process with at most two connections, checks every
// response, and reports the end-to-end metrics. With --trace 1 it assembles
// the same stack in-process from the packages' public constructors, records
// spans around the calls into each layer through the existing seams, and
// reports per-layer metrics plus the tracing overhead (the same in-process
// run with and without the spans). The last line of standard output is one
// JSON object: correct, attempted, failed, metrics. A failed correctness
// check still prints it, with correct false, and exits 1; any other error
// exits 1 without it.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
	"time"
)

// endToEnd lists the metrics of an untraced run, the same on every
// workload. p50_ms is the median latency of the workload's primary
// operation: placement on fleet-churn, assignment ranking on model-query,
// and one application's admission (profile plus placement) on
// cold-profile. cpu_us_per_req is the serve process's CPU time per
// successful request, which host contention moves far less than wall
// time. warm_rss_mb is serve's peak resident set once set up and warmed,
// before the timed phase.
//
// Two figures are printed with each run's detail lines instead: tail
// latencies, whose run-to-run spread on a shared two-CPU host exceeds any
// bound a regression gate could use, and the peak resident set at the end
// of the run, which on fleet-churn grows with every request served (so with
// throughput) and swings with where the run ends in a GC cycle.
var endToEnd = map[string]string{
	"setup_s":        "s",
	"req_per_s":      "req/s",
	"p50_ms":         "ms",
	"cpu_us_per_req": "us",
	"warm_rss_mb":    "MB",
}

// perLayer lists the metrics of a traced run. A workload reports 0 for a
// layer it does not exercise.
var perLayer = map[string]string{
	"http.rtt_self_us":                     "us",
	"server.handler_self_us.fleet_place":   "us",
	"server.handler_self_us.fleet_unplace": "us",
	"server.handler_self_us.fleet_state":   "us",
	"server.handler_self_us.assign":        "us",
	"server.handler_self_us.predict":       "us",
	"server.handler_self_us.profile":       "us",
	"server.resp_bytes.fleet_state":        "bytes",
	"server.resp_bytes.assign":             "bytes",
	"fleet.place_us":                       "us",
	"fleet.place_self_us":                  "us",
	"fleet.remove_us":                      "us",
	"fleet.state_us":                       "us",
	"fleet.score_calls_per_place":          "count",
	"fleet.conflict_ratio":                 "ratio",
	"core.assign_us":                       "us",
	"core.assign_allocs":                   "count",
	"core.predict_us":                      "us",
	"core.predict_allocs":                  "count",
	"core.profile_ms":                      "ms",
	"core.train_s":                         "s",
	"sim.l2_refs_per_host_s":               "1/s",
	"wal.append_us":                        "us",
	"wal.bytes_per_mutation":               "bytes",
	"wal.replay_s":                         "s",
	"cache.feature_hit_ratio":              "ratio",
	"profile.useful_ratio":                 "ratio",
	"runtime.allocs_per_req":               "count",
	"runtime.gc_pause_ms":                  "ms",
	"trace.overhead_us":                    "us",
	"trace.overhead_pct":                   "%",
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runOpts is what every workload runner gets.
type runOpts struct {
	seed  uint64
	dur   time.Duration
	serve string // the serve binary (untraced runs)
	dir   string // this run's scratch directory
}

// outcome is one workload run's report.
type outcome struct {
	timed   tally
	checks  []string
	metrics map[string]float64
	// detail holds the workload's own figures (per-operation percentiles,
	// phase tallies, restart time), printed above the result line.
	detail []string
}

func newOutcome() *outcome { return &outcome{metrics: map[string]float64{}} }

// check records a failed correctness check.
func (o *outcome) check(ok bool, format string, args ...any) {
	if !ok {
		o.checks = append(o.checks, fmt.Sprintf(format, args...))
	}
}

func (o *outcome) note(format string, args ...any) {
	o.detail = append(o.detail, fmt.Sprintf(format, args...))
}

// setWindowed sets the closed-loop metrics from the phase's windows.
func (o *outcome) setWindowed(all, primary latencies, elapsed time.Duration) {
	w := windowed(all, primary, elapsed, window)
	o.metrics["req_per_s"] = w.reqPerS
	o.metrics["p50_ms"] = ms(w.p50)
	o.note("windows %d of %v: median req_per_s %.1f, primary p50 %.4f ms, p%g %.4f ms", w.windows, window, w.reqPerS, ms(w.p50), w.tailPct, ms(w.tail))
	o.note("window req_per_s %.0f", w.perWindow)
}

// latency notes one operation's median and tail with the sample count.
func (o *outcome) latency(op string, s summary) {
	o.note("%s_p50_ms %.4f ms", op, ms(s.p50))
	o.note("%s_p%g_ms %.4f ms", op, s.tailPct, ms(s.tail))
	o.note("%s_samples %d count", op, s.n)
}

type runner func(ctx context.Context, o runOpts) (*outcome, error)

var workloads = map[string][2]runner{
	"fleet-churn":  {churnE2E, churnTraced},
	"model-query":  {queryE2E, queryTraced},
	"cold-profile": {coldE2E, coldTraced},
}

func main() {
	name := flag.String("workload", "", "fleet-churn | model-query | cold-profile")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "measured seconds of a closed-loop run")
	trace := flag.Int("trace", 0, "1 = traced in-process run reporting per-layer metrics")
	serveBin := flag.String("serve", "", "path to the serve binary")
	workdir := flag.String("workdir", "", "scratch directory for state, logs and spans")
	flag.Parse()

	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || *workdir == "" || (*trace == 0 && *serveBin == "") {
		fmt.Fprintln(os.Stderr, "usage: perfbench -serve BIN -workdir DIR --workload fleet-churn|model-query|cold-profile --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	dir := filepath.Join(*workdir, fmt.Sprintf("%s-seed%d-trace%d", *name, *seed, *trace))
	if err := os.RemoveAll(dir); err != nil {
		fail(err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fail(err)
	}
	out, err := w[*trace](ctx, runOpts{seed: *seed, dur: time.Duration(*seconds) * time.Second, serve: *serveBin, dir: dir})
	if err != nil {
		fail(fmt.Errorf("%s: %w", *name, err))
	}
	units := endToEnd
	if *trace == 1 {
		units = perLayer
	}
	res := result{Correct: len(out.checks) == 0, Attempted: out.timed.attempted, Failed: out.timed.failed, Metrics: map[string]metric{}}
	for k, unit := range units {
		res.Metrics[k] = metric{Value: out.metrics[k], Unit: unit}
	}
	for _, d := range out.detail {
		fmt.Println(d)
	}
	for _, c := range out.checks {
		fmt.Fprintln(os.Stderr, "check failed:", c)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
	// The run directory holds only state and logs needed to debug a
	// failure; spans are written beside it.
	_ = os.RemoveAll(dir) // leftovers are harmless and overwritten next run
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
