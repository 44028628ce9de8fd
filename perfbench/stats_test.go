package main

import (
	"errors"
	"testing"
	"time"
)

func TestTailPercentileLeavesTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{1, 50}, {10, 50}, {20, 50}, {30, 50},
		{99, 50}, {100, 90}, {999, 90}, {1000, 99}, {50000, 99},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
		if c.n >= 20 {
			if beyond := c.n - 1 - rank(tailPercentile(c.n), c.n); beyond < 10 {
				t.Errorf("n=%d: %d samples beyond the tail, want at least 10", c.n, beyond)
			}
		}
	}
}

func ramp(n int, at time.Duration) latencies {
	l := make(latencies, n)
	for i := range l {
		l[i] = sample{at: at, took: time.Duration(n-i) * time.Millisecond}
	}
	return l
}

func TestSummarize(t *testing.T) {
	s := summarize(ramp(1000, 0))
	if s.n != 1000 || s.p50 != 500*time.Millisecond || s.tailPct != 99 || s.tail != 990*time.Millisecond {
		t.Errorf("summarize(1..1000ms) = %+v", s)
	}
	if s := summarize(nil); s.n != 0 {
		t.Errorf("summarize(nil) = %+v", s)
	}
}

func TestWindowedTakesMediansOverWholeWindows(t *testing.T) {
	var all, primary latencies
	// Three whole windows with 100, 300 and 200 requests, then a partial
	// window that must be ignored.
	for w, n := range []int{100, 300, 200, 5000} {
		at := time.Duration(w)*time.Second + time.Millisecond
		l := ramp(n, at)
		all = append(all, l...)
		primary = append(primary, l...)
	}
	got := windowed(all, primary, 3500*time.Millisecond, time.Second)
	if got.windows != 3 {
		t.Fatalf("windows = %d, want 3", got.windows)
	}
	if got.reqPerS != 200 {
		t.Errorf("req/s = %g, want the median window's 200", got.reqPerS)
	}
	// The sparsest window has 100 samples, so every window reports p90.
	if got.tailPct != 90 {
		t.Errorf("tail percentile %g, want 90", got.tailPct)
	}
	if got.p50 != 100*time.Millisecond {
		t.Errorf("p50 = %v, want the median of 50, 150 and 100 ms", got.p50)
	}
	if got.tail != 180*time.Millisecond {
		t.Errorf("p90 = %v, want the median of 90, 270 and 180 ms", got.tail)
	}
	short := windowed(all[:10], primary[:10], 500*time.Millisecond, time.Second)
	if short.windows != 1 || short.reqPerS != 20 {
		t.Errorf("a phase shorter than a window: %+v, want one window at 20 req/s", short)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %g", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %g", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median empty = %g", got)
	}
}

func TestTallyCountsFailures(t *testing.T) {
	var tl tally
	tl.add(200, nil)
	tl.add(202, nil)
	tl.add(409, nil)
	tl.add(429, nil)
	tl.add(404, nil)
	tl.add(500, nil)
	tl.add(0, errors.New("connection reset"))
	want := tally{attempted: 7, succeeded: 2, rejected: 2, failed: 5}
	if tl != want {
		t.Errorf("tally = %+v, want %+v", tl, want)
	}
	tl.merge(tally{attempted: 1, succeeded: 1})
	if tl.attempted != 8 || tl.succeeded != 3 {
		t.Errorf("merged tally = %+v", tl)
	}
}
