package main

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"

	armine "repro"
)

// workload is one input shape, run through both production paths: a batch
// run from an .ardb file to its rule list (the cmd/apriori path), and an
// in-process armined cycle under an open-loop ingest and query load.
type workload struct {
	Name string
	// Pop is the Quest population the inputs are drawn from. Its generator
	// seed is fixed; the benchmark's --seed orders the transactions (see
	// draw).
	Pop     armine.GenParams
	Support float64
	Conf    float64
	// BatchEngine is the engine the batch path names: a registry engine, or
	// "auto" for the planner.
	BatchEngine string
	// RefEngine is the second exact engine whose result gates correctness;
	// it comes from the other counting family than the one timed.
	RefEngine string
	// Preload is how many transactions armined holds before the load starts.
	Preload int
}

var workloads = map[string]workload{
	"sparse": {
		Name:    "sparse",
		Pop:     armine.GenParams{N: 1000, T: 10, I: 4, D: 200_000, Seed: 1},
		Support: 0.005, Conf: 0.8,
		BatchEngine: "ccpd", RefEngine: "vbit", Preload: 100_000,
	},
	"dense": {
		Name:    "dense",
		Pop:     armine.GenParams{N: 60, L: 30, T: 12, I: 4, D: 200_000, Seed: 1},
		Support: 0.02, Conf: 0.8,
		BatchEngine: "auto", RefEngine: "eclat", Preload: 100_000,
	},
}

// Serving load shape (open loop; every request is timed from when it was
// due). Ingest bursts of ingestBatch transactions at ingestRate per second
// and rule queries at queryRate per second; ingestRate·ingestBatch is the
// 5000 transactions/s of a 500-transaction burst every 100 ms.
const (
	ingestRate  = 20
	ingestBatch = 250
	queryRate   = 100
	queryLimit  = 20
	zipfS       = 1.1
)

// draw shuffles the workload's population: every seed mines the same
// transactions in a seed-specific order, which moves the tids, the counting
// partition boundaries, and which rows preload armined and which stream
// into it. The frequent sets, the rules and the planner's choice stay put,
// so timings compare across seeds: rows resampled with replacement move
// the dense batch wall by ~10% between seeds through itemsets near the
// support threshold.
func draw(pop *armine.Database, seed int64) ([]armine.Itemset, error) {
	if pop.Len() == 0 {
		return nil, fmt.Errorf("empty population")
	}
	rows := make([]armine.Itemset, pop.Len())
	for i, j := range rand.New(rand.NewSource(seed)).Perm(pop.Len()) {
		rows[i] = pop.Items(j)
	}
	return rows, nil
}

// toDatabase numbers rows 0..n-1 into a database, exactly as armined's
// ingest assigns transaction ids.
func toDatabase(rows []armine.Itemset) *armine.Database {
	d := armine.NewDatabase(0)
	for i, r := range rows {
		d.Append(int64(i), r)
	}
	return d
}

// zipfItems draws n query items: items ranked by their frequency in rows
// (most frequent first, ties by id), then rank ~ Zipf(zipfS). The draw is a
// pure function of (rows, n, seed).
func zipfItems(rows []armine.Itemset, n int, seed int64) []int64 {
	freq := map[armine.Item]int{}
	for _, r := range rows {
		for _, it := range r {
			freq[it]++
		}
	}
	ranked := make([]armine.Item, 0, len(freq))
	for it := range freq {
		ranked = append(ranked, it)
	}
	slices.SortFunc(ranked, func(a, b armine.Item) int {
		if c := cmp.Compare(freq[b], freq[a]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	if len(ranked) == 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(seed))
	z := rand.NewZipf(rng, zipfS, 1, uint64(len(ranked)-1))
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(ranked[z.Uint64()])
	}
	return out
}
