package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

func TestSelfTimeSubtractsCoveredIntervalsAndReplays(t *testing.T) {
	parent := span{ID: 1, Start: 0, End: 100}
	kids := []span{
		{Parent: 1, Start: 10, End: 30},
		{Parent: 1, Start: 20, End: 40},  // overlaps the first: 10..40 covered once
		{Parent: 1, Start: 90, End: 120}, // clipped to the parent: 90..100
		{Parent: 1, Start: 500, End: 515, Replay: true},
	}
	if got, want := selfTime(parent, kids), time.Duration(100-30-10-15); got != want {
		t.Errorf("self time %v, want %v", got, want)
	}
	if got := selfTime(parent, []span{{Start: 0, End: 100}, {Start: 0, End: 50, Replay: true}}); got != 0 {
		t.Errorf("self time %v, want it floored at 0", got)
	}
}

func TestAttributeWALPicksContainingFleetSpanThatEndsFirst(t *testing.T) {
	spans := []span{
		{ID: 1, Req: 11, Layer: "fleet", Start: 0, End: 100},
		{ID: 2, Req: 12, Layer: "fleet", Start: 10, End: 60},
		{ID: 3, Req: 13, Layer: "fleet", Start: 200, End: 300},
		{ID: 4, Layer: "wal", Start: 50, End: 55},   // inside 1 and 2: 2 ends first
		{ID: 5, Layer: "wal", Start: 70, End: 80},   // inside 1 only
		{ID: 6, Layer: "wal", Start: 250, End: 260}, // inside 3
		{ID: 7, Layer: "wal", Start: 150, End: 160}, // inside none
	}
	ambiguous, orphaned := attributeWAL(spans)
	if ambiguous != 1 || orphaned != 1 {
		t.Errorf("ambiguous %d, orphaned %d; want 1 and 1", ambiguous, orphaned)
	}
	want := map[uint64][2]uint64{4: {2, 12}, 5: {1, 11}, 6: {3, 13}, 7: {0, 0}}
	for _, s := range spans {
		if w, ok := want[s.ID]; ok && (s.Parent != w[0] || s.Req != w[1]) {
			t.Errorf("wal span %d: parent %d req %d, want %d and %d", s.ID, s.Parent, s.Req, w[0], w[1])
		}
	}
}

// TestRequestIDFlowsFromClientToFleetSpans drives one request through the
// handler wrapper and a fleet-layer span opened from the request context:
// all three spans share the client's ID and nest.
func TestRequestIDFlowsFromClientToFleetSpans(t *testing.T) {
	rec := newRecorder()
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, s := rec.start(r.Context(), "fleet", "place")
		rec.finish(s)
		w.Write([]byte("{}"))
	})
	srv := httptest.NewServer(rec.handler(inner))
	defer srv.Close()
	c := newClient(srv.URL, rec)
	defer c.close()
	rep, err := c.do(context.Background(), http.MethodPost, "/v1/fleet/place", []byte("{}"))
	if err != nil || rep.status != 200 {
		t.Fatalf("request: status %d err %v", rep.status, err)
	}
	byLayer := map[string]span{}
	for _, s := range rec.spans {
		byLayer[s.Layer] = s
	}
	h, sv, f := byLayer["http"], byLayer["server"], byLayer["fleet"]
	if h.ID == 0 || h.Req != h.ID || sv.Req != h.ID || f.Req != h.ID {
		t.Errorf("request IDs: http %+v server %+v fleet %+v", h, sv, f)
	}
	if sv.Parent != h.ID || f.Parent != sv.ID || rep.req != h.ID || rep.span != sv.ID {
		t.Errorf("parents: server %d (want %d), fleet %d (want %d); reply %d/%d", sv.Parent, h.ID, f.Parent, sv.ID, rep.req, rep.span)
	}
	if sv.Name != "fleet_place" || sv.Bytes != 2 {
		t.Errorf("server span %+v, want fleet_place with 2 bytes", sv)
	}

	path := filepath.Join(t.TempDir(), "spans.jsonl")
	if err := rec.writeSpans(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	line, _, _ := bytes.Cut(data, []byte("\n"))
	var first span
	if err := json.Unmarshal(line, &first); err != nil {
		t.Fatalf("first span line: %v", err)
	}
	if !reflect.DeepEqual(first, rec.spans[0]) {
		t.Errorf("written span %+v, want %+v", first, rec.spans[0])
	}
}

func TestEndpointOf(t *testing.T) {
	for _, c := range []struct{ method, path, want string }{
		{"POST", "/v1/fleet/place", "fleet_place"},
		{"DELETE", "/v1/fleet/place/m1/mcf%231", "fleet_unplace"},
		{"GET", "/v1/fleet/state", "fleet_state"},
		{"POST", "/v1/assign", "assign"},
		{"POST", "/v1/predict", "predict"},
		{"POST", "/v1/profile", "profile"},
		{"GET", "/metrics", ""},
		{"GET", "/healthz", ""},
	} {
		if got := endpointOf(httptest.NewRequest(c.method, c.path, nil)); got != c.want {
			t.Errorf("%s %s: %q, want %q", c.method, c.path, got, c.want)
		}
	}
}
