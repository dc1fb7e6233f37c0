package main

import (
	"slices"
	"testing"
	"time"

	armine "repro"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, err := percentile(xs, 0.99); err != nil || v != 990 {
		t.Fatalf("p99 of 1..1000 = %v, %v; want 990 (10 samples beyond)", v, err)
	}
	if _, err := percentile(xs[:999], 0.99); err == nil {
		t.Fatal("p99 of 999 samples has 9 beyond it and must be refused")
	}
	if v, err := percentile(xs[:200], 0.95); err != nil || v != 190 {
		t.Fatalf("p95 of 1..200 = %v, %v; want 190", v, err)
	}
	if _, err := percentile(xs[:199], 0.95); err == nil {
		t.Fatal("p95 of 199 samples must be refused")
	}
	// The median has no tail floor.
	if v, err := percentile([]float64{3, 1, 2}, 0.5); err != nil || v != 2 {
		t.Fatalf("p50 of {3,1,2} = %v, %v; want 2", v, err)
	}
	if _, err := percentile(nil, 0.5); err == nil {
		t.Fatal("percentile of no samples must fail")
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("median of {4,1,3,2} = %v, want 2.5", m)
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{ID: 1, Start: ms(0), End: ms(100)},
		{ID: 2, Parent: 1, Start: ms(10), End: ms(30)},
		{ID: 3, Parent: 1, Start: ms(20), End: ms(50)},  // overlaps span 2
		{ID: 4, Parent: 1, Start: ms(90), End: ms(120)}, // clipped to the parent
		{ID: 5, Parent: 3, Start: ms(25), End: ms(35)},
		{ID: 6, Start: ms(200), End: ms(210)}, // another root, no children
	}
	self := selfTimes(spans)
	want := map[int64]time.Duration{1: ms(50), 2: ms(20), 3: ms(20), 4: ms(30), 5: ms(10), 6: ms(10)}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], w)
		}
	}
}

func TestDigestIsCanonical(t *testing.T) {
	set := armine.NewItemset
	res := func(order ...int) *armine.Result {
		f2 := []armine.FrequentItemset{{Items: set(1, 2), Count: 7}, {Items: set(1, 3), Count: 5}}
		r := &armine.Result{MinCount: 5, ByK: [][]armine.FrequentItemset{nil,
			{{Items: set(1), Count: 9}, {Items: set(2), Count: 8}, {Items: set(3), Count: 6}}, nil}}
		for _, i := range order {
			r.ByK[2] = append(r.ByK[2], f2[i])
		}
		return r
	}
	rules := []armine.Rule{
		{Antecedent: set(2), Consequent: set(1), Support: 7, Confidence: 7.0 / 8},
		{Antecedent: set(3), Consequent: set(1), Support: 5, Confidence: 5.0 / 6},
	}
	base := digest(res(0, 1), rules)
	if got := digest(res(1, 0), []armine.Rule{rules[1], rules[0]}); got != base {
		t.Fatalf("digest depends on emission order: %s vs %s", got, base)
	}
	changed := res(0, 1)
	changed.ByK[2][1].Count++
	if digest(changed, rules) == base {
		t.Fatal("digest ignores a support change")
	}
	bumped := slices.Clone(rules)
	bumped[0].Confidence += 1e-12
	if digest(res(0, 1), bumped) == base {
		t.Fatal("digest ignores a confidence change")
	}
	if digest(res(0, 1), rules[:1]) == base {
		t.Fatal("digest ignores a missing rule")
	}
}

func TestZipfItemsDeterministic(t *testing.T) {
	pop, err := armine.Generate(armine.GenParams{N: 50, L: 20, T: 5, I: 3, D: 2000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := draw(pop, 9)
	if err != nil {
		t.Fatal(err)
	}
	again, _ := draw(pop, 9)
	if !slices.EqualFunc(rows, again, func(a, b armine.Itemset) bool { return slices.Equal(a, b) }) {
		t.Fatal("draw is not a function of the seed")
	}
	a, b := zipfItems(rows, 5000, 4), zipfItems(rows, 5000, 4)
	if !slices.Equal(a, b) {
		t.Fatal("the same rows and seed gave different query items")
	}
	if slices.Equal(a, zipfItems(rows, 5000, 5)) {
		t.Fatal("a different seed gave the same query items")
	}
	// Rank 0 (the most frequent item) is the Zipf mode.
	freq, hits := map[int64]int{}, map[int64]int{}
	for _, r := range rows {
		for _, it := range r {
			freq[int64(it)]++
		}
	}
	for _, it := range a {
		hits[it]++
	}
	var top, mode int64
	for it, n := range freq {
		if n > freq[top] || (n == freq[top] && it < top) {
			top = it
		}
	}
	for it, n := range hits {
		if n > hits[mode] {
			mode = it
		}
	}
	if mode != top {
		t.Fatalf("most drawn item %d, most frequent item %d", mode, top)
	}
}

func TestPublishLags(t *testing.T) {
	s := func(n int) time.Duration { return time.Duration(n) * time.Second }
	// preload 1000; bursts end at tids 1250, 1500, 1750.
	ingests := []outcome{{ackAt: s(1)}, {ackAt: s(2)}, {ackAt: s(3)}}
	pubs := []pubEvent{{at: s(2), dbLen: 1250}, {at: s(5), dbLen: 1750}}
	got := publishLags(ingests, pubs, 1000)
	want := []time.Duration{s(1), s(3), s(2)}
	if !slices.Equal(got, want) {
		t.Fatalf("lags %v, want %v", got, want)
	}
}
