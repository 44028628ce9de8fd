package main

import (
	"fmt"
	"reflect"
	"sort"
	"testing"
)

func churnDraws(seed uint64, client, n int) []string {
	s := newChurnStream(seed, client)
	out := make([]string, n)
	for i := range out {
		out[i] = s.next()
	}
	return out
}

func queryDraws(seed uint64, client, n int) []queryReq {
	s := newQueryStream(seed, client)
	out := make([]queryReq, n)
	for i := range out {
		out[i] = s.next()
	}
	return out
}

func TestStreamsArePureFunctionsOfSeedAndClient(t *testing.T) {
	if !reflect.DeepEqual(churnDraws(7, 0, 500), churnDraws(7, 0, 500)) {
		t.Error("churn stream differs between two draws of the same seed")
	}
	if !reflect.DeepEqual(queryDraws(7, 1, 500), queryDraws(7, 1, 500)) {
		t.Error("query stream differs between two draws of the same seed")
	}
	if !reflect.DeepEqual(coldOrder(7), coldOrder(7)) {
		t.Error("cold order differs between two draws of the same seed")
	}
	if reflect.DeepEqual(churnDraws(7, 0, 500), churnDraws(8, 0, 500)) {
		t.Error("seeds 7 and 8 draw the same churn stream")
	}
	if reflect.DeepEqual(churnDraws(7, 0, 500), churnDraws(7, 1, 500)) {
		t.Error("clients 0 and 1 draw the same churn stream")
	}
	if reflect.DeepEqual(queryDraws(7, 0, 500), queryDraws(8, 0, 500)) {
		t.Error("seeds 7 and 8 draw the same query stream")
	}
}

func TestQueryMixShapes(t *testing.T) {
	suiteIx := map[string]int{}
	for i, n := range suiteNames() {
		suiteIx[n] = i
	}
	const n = 20000
	kinds := map[string]int{}
	five := 0
	for _, q := range queryDraws(3, 0, n) {
		kinds[q.kind]++
		switch q.kind {
		case opAssign:
			if len(q.benches) != 4 && len(q.benches) != 5 {
				t.Fatalf("assign of %d benches", len(q.benches))
			}
			if len(q.benches) == 5 {
				five++
			}
		case opPredict:
			if len(q.benches) != 2 {
				t.Fatalf("predict of %d benches", len(q.benches))
			}
		case opState:
			if len(q.benches) != 0 {
				t.Fatalf("state read with benches %v", q.benches)
			}
		}
		for i := 1; i < len(q.benches); i++ {
			if suiteIx[q.benches[i-1]] >= suiteIx[q.benches[i]] {
				t.Fatalf("benches %v not distinct and in suite order", q.benches)
			}
		}
	}
	near := func(got, want float64) bool { return got > want-0.02 && got < want+0.02 }
	if f := float64(kinds[opAssign]) / n; !near(f, assignShare) {
		t.Errorf("assign share %.3f, want about %.2f", f, assignShare)
	}
	if f := float64(kinds[opPredict]) / n; !near(f, predictShare) {
		t.Errorf("predict share %.3f, want about %.2f", f, predictShare)
	}
	if f := float64(five) / float64(kinds[opAssign]); !near(f, assign5Share) {
		t.Errorf("5-bench share of assigns %.3f, want about %.2f", f, assign5Share)
	}
}

func TestColdOrderIsPermutationOfSuite(t *testing.T) {
	got := coldOrder(11)
	want := suiteNames()
	sort.Strings(got)
	sort.Strings(want)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("cold order %v is not a permutation of the suite %v", got, want)
	}
}
