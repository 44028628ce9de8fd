package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// tailCandidates are the percentiles a tail may be reported at, highest
// first. The list stops at p99 so that the tail of a closed-loop run, which
// always has thousands of samples, names the same percentile on every run.
var tailCandidates = []float64{99, 90, 50}

// sample is one successful request: when it completed, measured from the
// start of its phase, and how long it took.
type sample struct{ at, took time.Duration }

// latencies is one operation's samples.
type latencies []sample

// rank returns the nearest-rank index of percentile p in n sorted samples.
func rank(p float64, n int) int {
	i := int(math.Ceil(p/100*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	return i
}

// tailPercentile picks the highest candidate percentile that has at least
// ten samples beyond it; with ten or fewer samples that is the median.
func tailPercentile(n int) float64 {
	for _, p := range tailCandidates {
		if n-1-rank(p, n) >= 10 {
			return p
		}
	}
	return 50
}

// summary is a latency distribution reduced to the reported figures.
type summary struct {
	n       int
	p50     time.Duration
	tailPct float64
	tail    time.Duration
}

func summarize(l latencies) summary {
	return summarizeAt(l, tailPercentile(len(l)))
}

// summarizeAt reports the tail at percentile p.
func summarizeAt(l latencies, p float64) summary {
	if len(l) == 0 {
		return summary{}
	}
	d := make([]time.Duration, len(l))
	for i, s := range l {
		d[i] = s.took
	}
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	return summary{n: len(d), p50: d[rank(50, len(d))], tailPct: p, tail: d[rank(p, len(d))]}
}

// window is the width of the slices a closed-loop phase is cut into.
const window = 2 * time.Second

// windowFigures are a closed-loop phase's figures: the medians, over its
// whole windows, of each window's throughput and of the primary
// operation's median and tail latency.
type windowFigures struct {
	windows int
	// perWindow is each window's throughput, for the run's detail lines.
	perWindow []float64
	reqPerS   float64
	p50       time.Duration
	tailPct   float64
	tail      time.Duration
}

// windowed cuts a phase of length elapsed into whole windows of width
// (one window if the phase is shorter) and reduces each. all holds every
// successful request and primary the operation whose latency is reported.
// One tail percentile, chosen by the rule from the sparsest window, serves
// every window. Medians over windows keep a burst of load from elsewhere
// on the host from moving a run's figures.
func windowed(all, primary latencies, elapsed, width time.Duration) windowFigures {
	n := int(elapsed / width)
	if n < 1 {
		n, width = 1, elapsed
	}
	count := make([]int, n)
	for _, s := range all {
		if i := int(s.at / width); i < n {
			count[i]++
		}
	}
	per := make([]latencies, n)
	for _, s := range primary {
		if i := int(s.at / width); i < n {
			per[i] = append(per[i], s)
		}
	}
	sparsest := len(primary)
	for _, l := range per {
		sparsest = min(sparsest, len(l))
	}
	p := tailPercentile(sparsest)
	var rps, p50s, tails []float64
	for i, l := range per {
		sm := summarizeAt(l, p)
		rps = append(rps, float64(count[i])/width.Seconds())
		p50s = append(p50s, float64(sm.p50))
		tails = append(tails, float64(sm.tail))
	}
	return windowFigures{windows: n, perWindow: rps, reqPerS: median(rps), p50: time.Duration(median(p50s)), tailPct: p, tail: time.Duration(median(tails))}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// median returns the middle value of xs (the mean of the two middle values
// for an even count); 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tally counts one phase's requests. A request fails when the transport
// fails or the status is not 2xx; rejected counts the failures that were
// the fleet refusing capacity (409 or 429), which no workload is sized to
// provoke.
type tally struct {
	attempted, succeeded, rejected, failed int
}

func (t *tally) add(status int, err error) {
	t.attempted++
	switch {
	case err == nil && status >= 200 && status < 300:
		t.succeeded++
	case err == nil && (status == 409 || status == 429):
		t.rejected++
		t.failed++
	default:
		t.failed++
	}
}

func (t *tally) merge(o tally) {
	t.attempted += o.attempted
	t.succeeded += o.succeeded
	t.rejected += o.rejected
	t.failed += o.failed
}

func (t tally) String() string {
	return fmt.Sprintf("attempted=%d succeeded=%d rejected=%d failed=%d", t.attempted, t.succeeded, t.rejected, t.failed)
}
