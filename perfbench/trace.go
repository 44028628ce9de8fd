package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mpmc/internal/core"
	"mpmc/internal/fleet"
	"mpmc/internal/machine"
	"mpmc/internal/server"
	"mpmc/internal/wal"
	"mpmc/internal/workload"
)

// Headers that carry a request's identity between the benchmark's client
// and its handler wrapper: the client sends the request ID (its own root
// span's ID), the wrapper answers with the handler span's ID so that core
// replays made by the client can hang under it.
const (
	reqHeader  = "X-Perfbench-Req"
	spanHeader = "X-Perfbench-Span"
)

// span is one timed call into a layer. Spans of one request share Req, the
// ID of the client's root span.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Req    uint64 `json:"req,omitempty"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Bytes  int    `json:"bytes,omitempty"`
	// Replay marks a direct re-run, after the response, of a call the
	// server made inside its handler with no seam around it. It is not
	// inside its parent's interval, so its parent's self time subtracts
	// its duration instead of its overlap.
	Replay bool `json:"replay,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

type spanRef struct{ id, req uint64 }

type spanKey struct{}

// recorder keeps every span in memory until the run ends.
type recorder struct {
	t0     time.Time
	nextID atomic.Uint64

	mu     sync.Mutex
	spans  []span
	sites  map[string]int64
	walErr error
}

func newRecorder() *recorder {
	return &recorder{t0: time.Now(), sites: map[string]int64{}}
}

func (r *recorder) now() int64 { return int64(time.Since(r.t0)) }

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// start opens a span under the span ctx carries and returns a context that
// carries the new one.
func (r *recorder) start(ctx context.Context, layer, name string) (context.Context, *span) {
	p, _ := ctx.Value(spanKey{}).(spanRef)
	s := &span{ID: r.nextID.Add(1), Parent: p.id, Req: p.req, Layer: layer, Name: name, Start: r.now()}
	return context.WithValue(ctx, spanKey{}, spanRef{s.ID, s.Req}), s
}

func (r *recorder) finish(s *span) {
	s.End = r.now()
	r.add(*s)
}

// handler wraps the server's handler: one server span per API request,
// parented to the client span named by the request header.
func (r *recorder) handler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		name := endpointOf(req)
		if name == "" {
			next.ServeHTTP(w, req)
			return
		}
		root, _ := strconv.ParseUint(req.Header.Get(reqHeader), 10, 64)
		s := &span{ID: r.nextID.Add(1), Parent: root, Req: root, Layer: "server", Name: name, Start: r.now()}
		w.Header().Set(spanHeader, strconv.FormatUint(s.ID, 10))
		cw := &countingWriter{ResponseWriter: w}
		next.ServeHTTP(cw, req.WithContext(context.WithValue(req.Context(), spanKey{}, spanRef{s.ID, root})))
		s.Bytes = cw.n
		r.finish(s)
	})
}

type countingWriter struct {
	http.ResponseWriter
	n int
}

func (w *countingWriter) Write(b []byte) (int, error) {
	n, err := w.ResponseWriter.Write(b)
	w.n += n
	return n, err
}

// endpointOf names the API endpoint a request hits; "" for the probes
// (/healthz, /metrics) the benchmark does not trace.
func endpointOf(r *http.Request) string {
	switch p := r.URL.Path; {
	case r.Method == http.MethodPost && p == "/v1/fleet/place":
		return "fleet_place"
	case r.Method == http.MethodDelete && strings.HasPrefix(p, "/v1/fleet/place/"):
		return "fleet_unplace"
	case r.Method == http.MethodGet && p == "/v1/fleet/state":
		return "fleet_state"
	case r.Method == http.MethodPost && p == "/v1/assign":
		return "assign"
	case r.Method == http.MethodPost && p == "/v1/predict":
		return "predict"
	case r.Method == http.MethodPost && p == "/v1/profile":
		return "profile"
	}
	return ""
}

// tracedFleet is the value passed as server.Config.Fleet in the traced run:
// the served calls get fleet spans, everything else passes through.
type tracedFleet struct {
	server.FleetBackend
	rec *recorder
}

func (f tracedFleet) PlaceAll(ctx context.Context, specs []*workload.Spec) ([]fleet.Placed, error) {
	ctx, s := f.rec.start(ctx, "fleet", "place")
	defer f.rec.finish(s)
	return f.FleetBackend.PlaceAll(ctx, specs)
}

func (f tracedFleet) Remove(ctx context.Context, node, instance string) ([]fleet.Placed, error) {
	ctx, s := f.rec.start(ctx, "fleet", "remove")
	defer f.rec.finish(s)
	return f.FleetBackend.Remove(ctx, node, instance)
}

func (f tracedFleet) State(ctx context.Context) (*fleet.State, error) {
	ctx, s := f.rec.start(ctx, "fleet", "state")
	defer f.rec.finish(s)
	return f.FleetBackend.State(ctx)
}

// journal wraps wal.Log.Append as the fleet's Journal hook. The hook gets
// no context, so its spans are parented when the run is reduced (see
// attributeWAL).
func (r *recorder) journal(l *wal.Log) func([]wal.Event) {
	return func(events []wal.Event) {
		s := span{ID: r.nextID.Add(1), Layer: "wal", Name: "append", Start: r.now()}
		err := l.Append(events)
		s.End = r.now()
		r.mu.Lock()
		r.spans = append(r.spans, s)
		if err != nil && r.walErr == nil {
			r.walErr = err
		}
		r.mu.Unlock()
	}
}

// attributeWAL parents each WAL span to a fleet span that contains it: the
// one that ends soonest after it, since the fleet journals a mutation as
// the last step of the call that commits it. It returns how many WAL spans
// had more than one containing fleet span (two clients' calls overlapping)
// and how many had none.
func attributeWAL(spans []span) (ambiguous, orphaned int) {
	var fl []span
	var longest int64
	for _, s := range spans {
		if s.Layer == "fleet" {
			fl = append(fl, s)
			longest = max(longest, s.End-s.Start)
		}
	}
	sort.Slice(fl, func(i, j int) bool { return fl[i].End < fl[j].End })
	for i := range spans {
		w := &spans[i]
		if w.Layer != "wal" {
			continue
		}
		found := 0
		// Past End = w.Start+longest no fleet span can start early enough.
		for j := sort.Search(len(fl), func(j int) bool { return fl[j].End >= w.End }); j < len(fl) && fl[j].End-longest <= w.Start; j++ {
			if fl[j].Start <= w.Start {
				if found == 0 {
					w.Parent, w.Req = fl[j].ID, fl[j].Req
				}
				found++
			}
		}
		switch {
		case found == 0:
			orphaned++
		case found > 1:
			ambiguous++
		}
	}
	return ambiguous, orphaned
}

// profileFunc is the signature server.Config.Profile and
// fleet.Config.Profile share.
type profileFunc = func(context.Context, *machine.Machine, *workload.Spec, core.ProfileOptions) (*core.FeatureVector, error)

// profile wraps a profiling implementation in "profile" spans named by
// machine kind and bench.
func (r *recorder) profile(inner profileFunc) profileFunc {
	return func(ctx context.Context, m *machine.Machine, spec *workload.Spec, o core.ProfileOptions) (*core.FeatureVector, error) {
		ctx, s := r.start(ctx, "profile", m.Name+"/"+spec.Name)
		defer r.finish(s)
		return inner(ctx, m, spec, o)
	}
}

// intercept is the fleet's Intercept hook: it counts calls per site and
// never injects a fault.
func (r *recorder) intercept(site, _ string) error {
	r.mu.Lock()
	r.sites[site]++
	r.mu.Unlock()
	return nil
}

// layerStats holds per-call figures keyed "layer/name".
type layerStats struct {
	dur, self map[string][]time.Duration
	bytes     map[string][]float64
}

// stats reduces the spans that started at or after since to per-call
// durations, self times and response sizes. A span's self time is its
// duration minus the part of its interval its children cover, minus the
// durations of its replay children.
func (r *recorder) stats(since int64) layerStats {
	r.mu.Lock()
	spans := append([]span(nil), r.spans...)
	r.mu.Unlock()
	attributeWAL(spans)
	kids := map[uint64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	l := layerStats{dur: map[string][]time.Duration{}, self: map[string][]time.Duration{}, bytes: map[string][]float64{}}
	for _, s := range spans {
		if s.Start < since {
			continue
		}
		k := s.Layer + "/" + s.Name
		l.dur[k] = append(l.dur[k], s.dur())
		l.self[k] = append(l.self[k], selfTime(s, kids[s.ID]))
		if s.Layer == "server" {
			l.bytes[k] = append(l.bytes[k], float64(s.Bytes))
		}
	}
	return l
}

// ofLayer gathers the values of every name in one layer.
func ofLayer(m map[string][]time.Duration, layer string) []time.Duration {
	var out []time.Duration
	for k, v := range m {
		if strings.HasPrefix(k, layer+"/") {
			out = append(out, v...)
		}
	}
	return out
}

// medUS is the median of ds in microseconds; 0 for none.
func medUS(ds []time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = us(d)
	}
	return median(xs)
}

// profiledPairs counts the distinct (machine kind, bench) pairs profiled.
func (r *recorder) profiledPairs() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	seen := map[string]bool{}
	for _, s := range r.spans {
		if s.Layer == "profile" {
			seen[s.Name] = true
		}
	}
	return len(seen)
}

// count returns how often the Intercept hook saw site.
func (r *recorder) count(site string) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.sites[site]
}

// walAttribution reports attributeWAL's counts over every span.
func (r *recorder) walAttribution() (ambiguous, orphaned int) {
	r.mu.Lock()
	spans := append([]span(nil), r.spans...)
	r.mu.Unlock()
	return attributeWAL(spans)
}

// selfTime subtracts children from s: interval union for nested children,
// whole durations for replays.
func selfTime(s span, kids []span) time.Duration {
	type iv struct{ a, b int64 }
	var ivs []iv
	var replay time.Duration
	for _, k := range kids {
		if k.Replay {
			replay += k.dur()
			continue
		}
		a, b := max(k.Start, s.Start), min(k.End, s.End)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var covered, end int64
	end = s.Start
	for _, v := range ivs {
		if v.a > end {
			end = v.a
		}
		if v.b > end {
			covered += v.b - end
			end = v.b
		}
	}
	self := s.dur() - time.Duration(covered) - replay
	return max(self, 0)
}

// writeSpans writes every span as one JSON line, WAL spans parented.
func (r *recorder) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	attributeWAL(r.spans)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			r.mu.Unlock()
			f.Close()
			return err
		}
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}
