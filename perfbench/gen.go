package main

import (
	"math/rand/v2"
	"sort"

	"mpmc/internal/workload"
)

// suiteNames lists the benchmark suite in catalogue order; every generated
// request draws its benches from it.
func suiteNames() []string {
	var out []string
	for _, s := range workload.Suite() {
		out = append(out, s.Name)
	}
	return out
}

// clientRand is one client's private stream under seed: requests are a
// pure function of (seed, client, index), whatever the interleaving of
// clients.
func clientRand(seed uint64, client int) *rand.Rand {
	return rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15^uint64(client+1)))
}

// churnStream draws the benches one fleet-churn client places, uniformly
// over the suite.
type churnStream struct {
	rng   *rand.Rand
	names []string
}

func newChurnStream(seed uint64, client int) *churnStream {
	return &churnStream{rng: clientRand(seed, client), names: suiteNames()}
}

func (s *churnStream) next() string { return s.names[s.rng.IntN(len(s.names))] }

// Query kinds of the model-query mix.
const (
	opAssign  = "assign"
	opPredict = "predict"
	opState   = "fleet_state"
)

// queryReq is one model-query request: a kind and, for assign and predict,
// the benches in suite order (a canonical order, so equal sets share one
// reference answer).
type queryReq struct {
	kind    string
	benches []string
}

// Mix shares. Assign takes 4 benches three times in four so its median sits
// inside the 4-bench mode and its tail inside the 5-bench mode, never on the
// boundary between them, where a percentile would jump between modes.
const (
	assignShare  = 0.4
	predictShare = 0.3
	assign5Share = 0.25
)

// queryStream draws one model-query client's request sequence.
type queryStream struct {
	rng   *rand.Rand
	names []string
}

func newQueryStream(seed uint64, client int) *queryStream {
	return &queryStream{rng: clientRand(seed, client), names: suiteNames()}
}

func (s *queryStream) next() queryReq {
	r := s.rng.Float64()
	switch {
	case r < assignShare:
		k := 4
		if s.rng.Float64() < assign5Share {
			k = 5
		}
		return queryReq{kind: opAssign, benches: s.pick(k)}
	case r < assignShare+predictShare:
		return queryReq{kind: opPredict, benches: s.pick(2)}
	default:
		return queryReq{kind: opState}
	}
}

// pick draws k distinct benches and returns them in suite order.
func (s *queryStream) pick(k int) []string {
	ix := s.rng.Perm(len(s.names))[:k]
	sort.Ints(ix)
	out := make([]string, k)
	for i, j := range ix {
		out[i] = s.names[j]
	}
	return out
}

// coldOrder is the order in which cold-profile admits the suite.
func coldOrder(seed uint64) []string {
	names := suiteNames()
	rng := clientRand(seed, 0)
	rng.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
	return names
}
