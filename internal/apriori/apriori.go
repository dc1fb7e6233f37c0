// Package apriori implements the sequential association mining algorithm of
// Section 2 (Agrawal et al. 1996): level-wise candidate generation with the
// optimized equivalence-class join and pruning of Section 3.1.1, hash-tree
// support counting, and frequent itemset extraction. The parallel CCPD/PCCD
// algorithms in internal/ccpd build on the same pieces.
//
// Candidate and frequent-set order feed the pinned work model
// (TestModelTimePinned), so the package must stay deterministic:
//
//armlint:pinned
package apriori

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/db"
	"repro/internal/hashtree"
	"repro/internal/itemset"
)

// Options configures a mining run.
type Options struct {
	// MinSupport is the minimum support as a fraction of |D| (e.g. 0.005
	// for the paper's 0.5%). Ignored if AbsSupport > 0.
	MinSupport float64
	// AbsSupport is the minimum support as an absolute transaction count.
	AbsSupport int64
	// MaxK bounds the iteration count; 0 means run to fixpoint.
	MaxK int

	// Threshold is the hash-tree leaf split threshold T (default 8).
	Threshold int
	// Fanout fixes the hash-table size H; ≤0 selects adaptively per
	// iteration from the candidate count (Section 3.1.1).
	Fanout int
	// Hash selects the tree hash function; HashBitonic enables the
	// tree-balancing optimization of Section 4.1.
	Hash hashtree.HashKind
	// ShortCircuit enables the subset-checking optimization of Section 4.2.
	ShortCircuit bool
	// NaiveJoin disables the equivalence-class join and considers all
	// C(|F|,2) pairs — the ablation baseline.
	NaiveJoin bool
	// MaxCandidatesInMemory caps how many candidates one hash tree may
	// hold (the paper's assumption that C_k fits in memory does not
	// survive low supports on large databases). When an iteration
	// generates more, the candidate list is split into contiguous
	// lexicographic batches of at most this size, each built, counted
	// (one full database pass per batch) and extracted separately; the
	// concatenated output is bit-identical to the unbatched run. 0 means
	// unlimited.
	MaxCandidatesInMemory int
}

func (o Options) withDefaults() Options {
	if o.Threshold <= 0 {
		o.Threshold = 8
	}
	return o
}

// MinCount resolves the support threshold against a database size.
func (o Options) MinCount(dbLen int) int64 {
	if o.AbsSupport > 0 {
		return o.AbsSupport
	}
	return CeilSupport(o.MinSupport, dbLen)
}

// CeilSupport converts a fractional minimum support into the smallest count
// satisfying it: support(X) = count/dbLen ≥ minSupport requires
// count = ⌈minSupport·dbLen⌉. The former int64(minSupport·dbLen) floor
// admitted itemsets BELOW the requested threshold whenever the product was
// not integral — 0.01 × 300 floored to 2, accepting 2/300 ≈ 0.67% against a
// 1% threshold. Products that are mathematically integral can land on either
// side of the integer in float64 (0.01×300 = 2.999…96, 0.1×300 = 30.000…004),
// so values within a relative epsilon of an integer snap to it before the
// ceiling is taken.
func CeilSupport(minSupport float64, dbLen int) int64 {
	x := minSupport * float64(dbLen)
	var c int64
	if r := math.Round(x); math.Abs(x-r) <= 1e-9*math.Max(1, math.Abs(x)) {
		c = int64(r)
	} else {
		c = int64(math.Ceil(x))
	}
	if c < 1 {
		c = 1
	}
	return c
}

// FrequentItemset pairs an itemset with its support count.
type FrequentItemset struct {
	Items itemset.Itemset
	Count int64
}

// IterStats records one iteration of the level-wise loop — the raw series
// behind Figs. 6 and 7.
type IterStats struct {
	K              int
	Candidates     int
	Frequent       int
	JoinPairs      int64 // join pairs considered (equivalence-class or naive)
	PrunedBySubset int   // candidates removed by the (k-1)-subset test
	// Batches is how many candidate batches the iteration ran under
	// Options.MaxCandidatesInMemory (1 when everything fit in one tree).
	Batches int
	// TreeStats describes the iteration's hash tree; for a batched
	// iteration, the last batch's tree.
	TreeStats hashtree.Stats
}

// Result is the output of a mining run.
type Result struct {
	MinCount int64
	// ByK[k] holds the frequent k-itemsets (ByK[0] is empty padding).
	ByK   [][]FrequentItemset
	Iters []IterStats
}

// All flattens the frequent itemsets over every k.
func (r *Result) All() []FrequentItemset {
	var out []FrequentItemset
	for _, fk := range r.ByK {
		out = append(out, fk...)
	}
	return out
}

// NumFrequent returns the total number of frequent itemsets.
func (r *Result) NumFrequent() int {
	n := 0
	for _, fk := range r.ByK {
		n += len(fk)
	}
	return n
}

// SupportOf looks up the support of an itemset, or 0.
func (r *Result) SupportOf(s itemset.Itemset) int64 {
	k := s.K()
	if k >= len(r.ByK) {
		return 0
	}
	for _, f := range r.ByK[k] {
		if f.Items.Equal(s) {
			return f.Count
		}
	}
	return 0
}

// Maximal returns the maximal frequent itemsets — those with no frequent
// superset (the sets All-MFS / Pincer-Search / MaxMiner in Section 7 aim
// for directly). Every frequent itemset is a subset of some maximal one.
func (r *Result) Maximal() []FrequentItemset {
	var out []FrequentItemset
	for k := 1; k < len(r.ByK); k++ {
		var super []FrequentItemset
		if k+1 < len(r.ByK) {
			super = r.ByK[k+1]
		}
		for _, f := range r.ByK[k] {
			maximal := true
			for _, g := range super {
				if g.Items.Contains(f.Items) {
					maximal = false
					break
				}
			}
			if maximal {
				out = append(out, f)
			}
		}
	}
	return out
}

// FrequentOne scans the database once and returns the frequent 1-itemsets
// in lexicographic order with their supports.
func FrequentOne(d *db.Database, minCount int64) []FrequentItemset {
	counts := make([]int64, d.NumItems())
	for i := 0; i < d.Len(); i++ {
		for _, it := range d.Items(i) {
			counts[it]++
		}
	}
	return FrequentItems(counts, minCount)
}

// FrequentItems returns the items whose count reaches minCount, as F1 in
// item order.
func FrequentItems(counts []int64, minCount int64) []FrequentItemset {
	var out []FrequentItemset
	for it, c := range counts {
		if c >= minCount {
			out = append(out, FrequentItemset{Items: itemset.New(itemset.Item(it)), Count: c})
		}
	}
	return out
}

// LabelsFromF1 builds the item→lexicographic-rank vector of Section 4.1
// (Table 1's labels): the i-th frequent 1-item gets label i; everything
// else gets -1. The bitonic hash tree hashes these labels.
func LabelsFromF1(f1 []FrequentItemset, numItems int) []int32 {
	labels := make([]int32, numItems)
	for i := range labels {
		labels[i] = -1
	}
	for rank, f := range f1 {
		it := f.Items[0]
		if int(it) < numItems {
			labels[it] = int32(rank)
		}
	}
	return labels
}

// PruneSet builds the (k-1)-subset membership set for candidate pruning: an
// open-addressing hash set over the raw int32 item encodings of F_{k-1}.
// Returns nil when no prune probes will be made (k ≤ 2), so callers can skip
// the build.
func PruneSet(fkPrev []itemset.Itemset) *itemset.Set {
	if len(fkPrev) == 0 || fkPrev[0].K() < 2 {
		return nil
	}
	set := itemset.NewSet(fkPrev[0].K(), len(fkPrev))
	for _, s := range fkPrev {
		set.Add(s)
	}
	return set
}

// JoinPrune is the per-pair hot step of candidate generation: it writes the
// join prefix+a+b into scratch (len k) and runs the (k-1)-subset prune
// against prev. The two subsets that formed the candidate are frequent by
// construction, so only the k-2 subsets dropping an earlier position are
// probed. Zero heap allocations; prev may be nil when k ≤ 2.
//
//armlint:noalloc
func JoinPrune(prev *itemset.Set, scratch, prefix itemset.Itemset, a, b itemset.Item) bool {
	n := copy(scratch, prefix)
	scratch[n] = a
	scratch[n+1] = b
	for drop := 0; drop < len(scratch)-2; drop++ {
		if !prev.ContainsSkip(scratch, drop) {
			return false
		}
	}
	return true
}

// GenerateCandidates joins sorted F_{k-1} with itself and prunes candidates
// with an infrequent (k-1)-subset (Section 3.1.1). It returns the candidate
// (k)-itemsets in lexicographic order plus join/prune accounting.
func GenerateCandidates(fkPrev []itemset.Itemset, naive bool) (cands []itemset.Itemset, joinPairs int64, pruned int) {
	if len(fkPrev) == 0 {
		return nil, 0, 0
	}
	k := fkPrev[0].K() + 1
	inPrev := PruneSet(fkPrev)
	if naive {
		// Ablation: all C(|F|,2) pairs, joining only when the k-2 prefixes
		// match (checked pairwise, not via classes).
		scratch := make(itemset.Itemset, k)
		for i := 0; i < len(fkPrev); i++ {
			for j := i + 1; j < len(fkPrev); j++ {
				joinPairs++
				a, b := fkPrev[i], fkPrev[j]
				if !a[:k-2].Equal(b[:k-2]) {
					continue
				}
				if a[k-2] == b[k-2] {
					continue // union would not reach length k
				}
				lo, hi := a[k-2], b[k-2]
				if lo > hi {
					lo, hi = hi, lo
				}
				if JoinPrune(inPrev, scratch, a[:k-2], lo, hi) {
					cands = append(cands, scratch.Clone())
				} else {
					pruned++
				}
			}
		}
		sort.Slice(cands, func(i, j int) bool { return cands[i].Less(cands[j]) })
		return cands, joinPairs, pruned
	}
	classes := itemset.Classes(fkPrev)
	scratch := make(itemset.Itemset, k)
	for ci := range classes {
		cl := &classes[ci]
		for i := 0; i < len(cl.Tails); i++ {
			for j := i + 1; j < len(cl.Tails); j++ {
				joinPairs++
				if JoinPrune(inPrev, scratch, cl.Prefix, cl.Tails[i], cl.Tails[j]) {
					cands = append(cands, scratch.Clone())
				} else {
					pruned++
				}
			}
		}
	}
	return cands, joinPairs, pruned
}

// Mine runs the sequential Apriori loop on the database.
func Mine(d *db.Database, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	minCount := opts.MinCount(d.Len())
	res := &Result{MinCount: minCount, ByK: make([][]FrequentItemset, 2)}

	f1 := FrequentOne(d, minCount)
	res.ByK[1] = f1
	res.Iters = append(res.Iters, IterStats{K: 1, Candidates: d.NumItems(), Frequent: len(f1), Batches: 1})
	labels := LabelsFromF1(f1, d.NumItems())

	prev := make([]itemset.Itemset, len(f1))
	for i, f := range f1 {
		prev[i] = f.Items
	}

	for k := 2; len(prev) > 0 && (opts.MaxK == 0 || k <= opts.MaxK); k++ {
		cands, joinPairs, pruned := GenerateCandidates(prev, opts.NaiveJoin)
		if len(cands) == 0 {
			break
		}
		cfg := hashtree.Config{
			K:         k,
			Fanout:    opts.Fanout,
			Threshold: opts.Threshold,
			Hash:      opts.Hash,
			NumItems:  d.NumItems(),
			Labels:    labels,
		}
		// Memory-budget batching: contiguous lexicographic sub-ranges of
		// the sorted candidate list, one full database pass each. Batch
		// outputs cover disjoint ascending lexicographic ranges, so plain
		// concatenation reproduces the unbatched extraction bit-identically.
		batchSize := len(cands)
		if lim := opts.MaxCandidatesInMemory; lim > 0 && lim < batchSize {
			batchSize = lim
		}
		numBatches := (len(cands) + batchSize - 1) / batchSize
		var fk []FrequentItemset
		var treeStats hashtree.Stats
		for b := 0; b < numBatches; b++ {
			lo := b * batchSize
			hi := lo + batchSize
			if hi > len(cands) {
				hi = len(cands)
			}
			tree, err := hashtree.Build(cfg, cands[lo:hi])
			if err != nil {
				return nil, fmt.Errorf("apriori: iteration %d: %w", k, err)
			}
			counters := hashtree.NewCounters(hashtree.CounterAtomic, tree.NumCandidates(), 1)
			ctx := tree.NewCountCtx(counters, hashtree.CountOpts{ShortCircuit: opts.ShortCircuit})
			for i := 0; i < d.Len(); i++ {
				ctx.CountTransaction(d.Items(i))
			}
			fk = append(fk, ExtractFrequent(tree, counters, minCount)...)
			treeStats = tree.ComputeStats()
		}
		res.ByK = append(res.ByK, fk)
		res.Iters = append(res.Iters, IterStats{
			K: k, Candidates: len(cands), Frequent: len(fk),
			JoinPairs: joinPairs, PrunedBySubset: pruned,
			Batches:   numBatches,
			TreeStats: treeStats,
		})
		prev = prev[:0]
		for _, f := range fk {
			prev = append(prev, f.Items)
		}
	}
	return res, nil
}

// ExtractFrequent walks the tree in depth-first order (Section 2.1.3) and
// returns the candidates meeting minCount, sorted lexicographically (the
// order the next join requires).
func ExtractFrequent(tree *hashtree.Tree, counters *hashtree.Counters, minCount int64) []FrequentItemset {
	var out []FrequentItemset
	tree.ForEachCandidate(func(id int32) {
		if c := counters.Count(id); c >= minCount {
			out = append(out, FrequentItemset{Items: tree.Candidate(id).Clone(), Count: c})
		}
	})
	sort.Slice(out, func(i, j int) bool { return out[i].Items.Less(out[j].Items) })
	return out
}

// ExtractFrequentRange scans candidate ids [lo, hi) and returns those
// meeting minCount, sorted lexicographically within the range. Candidate
// ids partition across workers, so a pool can extract ranges concurrently
// (after reducing the same ranges) and merge with MergeFrequent — the
// parallel replacement for the serial master extraction. The bounds are
// plain ints so callers can do their range arithmetic without narrowing;
// ids narrow to int32 only at the hashtree API boundary.
func ExtractFrequentRange(tree *hashtree.Tree, counters *hashtree.Counters, minCount int64, lo, hi int) []FrequentItemset {
	var out []FrequentItemset
	for id := lo; id < hi; id++ {
		if c := counters.Count(int32(id)); c >= minCount {
			out = append(out, FrequentItemset{Items: tree.Candidate(int32(id)).Clone(), Count: c})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Items.Less(out[j].Items) })
	return out
}

// MergeFrequent k-way merges per-range (already sorted) frequent lists into
// one lexicographically sorted list — identical output to sorting the
// concatenation, in O(C·log P).
func MergeFrequent(ranges [][]FrequentItemset) []FrequentItemset {
	return itemset.MergeSortedBy(ranges, func(a, b FrequentItemset) bool {
		return a.Items.Less(b.Items)
	})
}
