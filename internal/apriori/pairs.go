package apriori

import (
	"context"

	"repro/internal/db"
	"repro/internal/hashtree"
	"repro/internal/itemset"
	"repro/internal/sched"
)

// ItemCount is the F1 kernel shared by the CCPD and vertical engines: each
// worker of a sched.Pass counts the items of its rows into a private array
// (the paper's privatized counters), and Sums reduces them once. The work
// model charges hashtree.WorkItemScan per item read.
type ItemCount struct {
	numItems, stride int
	local            [][]int64 // per-worker item counts
	pairs            []int64   // per-worker Σ C(|t|,2)
}

// NewItemCount prepares an F1 pass of procs workers over numItems items,
// polling for cancellation every stride transactions.
func NewItemCount(procs, numItems, stride int) *ItemCount {
	return &ItemCount{numItems: numItems, stride: stride, local: make([][]int64, procs), pairs: make([]int64, procs)}
}

// Kernel builds worker p's kernel: sched.Pass calls it once per worker.
func (ic *ItemCount) Kernel(p int) sched.Kernel {
	counts := make([]int64, ic.numItems)
	ic.local[p] = counts
	return func(ctx context.Context, d *db.Database, _, lo, hi int) int64 {
		var scans, pairs int64
		for i := lo; i < hi; i++ {
			if (i-lo)%ic.stride == 0 && ctx.Err() != nil {
				break
			}
			t := d.Items(i)
			scans += int64(len(t))
			pairs += int64(len(t)) * int64(len(t)-1) / 2
			for _, it := range t {
				counts[it]++
			}
		}
		ic.pairs[p] += pairs
		return scans * hashtree.WorkItemScan
	}
}

// Sums returns the per-item counts over every worker's rows and Σ_t
// C(|t|,2), the pair pass's increment bound before F1 is known.
func (ic *ItemCount) Sums() (sums []int64, pairBound int64) {
	sums = make([]int64, ic.numItems)
	for p, counts := range ic.local {
		for it, c := range counts {
			sums[it] += c
		}
		pairBound += ic.pairs[p]
	}
	return sums, pairBound
}

// WorkPairInc is the modelled cost of one triangle-cell increment in the
// pair pass, on the hashtree.Work* scale: one dependent load and store.
const WorkPairInc = 1

// PairCount is the k=2 pair-count kernel shared by the CCPD and vertical
// engines. It maps the n frequent 1-items to dense ranks 0..n−1 in
// lexicographic order and counts pair (a, b), a < b, in cell
// a·n − a(a+1)/2 + b − a − 1 of an upper-triangular array of n(n−1)/2
// int32 counters. Cells in ascending order are pairs in lexicographic order,
// so a scan over a cell range emits its frequent pairs already sorted.
//
// Each worker counts into a private triangle (the paper's privatized
// counters), so any split of the database is correct; ReduceRange then sums
// the triangles range by range.
type PairCount struct {
	n     int
	rank  []int32        // item → F1 rank, −1 for infrequent items
	items []itemset.Item // rank → item
}

// NewPairCount builds the kernel over F1 (sorted, as every engine emits
// it) in a universe of numItems items.
func NewPairCount(f1 []FrequentItemset, numItems int) *PairCount {
	pc := &PairCount{n: len(f1), rank: LabelsFromF1(f1, numItems), items: make([]itemset.Item, len(f1))}
	for r, f := range f1 {
		pc.items[r] = f.Items[0]
	}
	return pc
}

// PairCells returns n(n−1)/2, the triangle size over n frequent items.
func PairCells(n int) int64 {
	return int64(n) * int64(n-1) / 2
}

// PairPassMaxBytes caps the summed per-worker triangles of one pair pass, at
// 4 bytes a cell: 128 MiB holds four triangles over 4096 frequent items.
// Above it an engine keeps its own k=2. The ceiling is fixed, not relative
// to the structure the pass replaces: P triangles cost 4·P bytes a pair,
// which outgrows a hash tree's ~25 bytes a candidate from P≈6 on, while
// vbit's layout arena can be far smaller than one triangle on a short
// database that still pays for the pass (D=2000 sparse: a 90 KB arena, a
// 1.3 MB triangle).
const PairPassMaxBytes = 128 << 20

// PairTrianglesFit reports whether procs triangles over n frequent items fit
// maxBytes. Under PairPassMaxBytes every cell index is far below 2³¹.
func PairTrianglesFit(procs, n int, maxBytes int64) bool {
	return PairCells(n) <= maxBytes/4/int64(max(procs, 1))
}

// N returns the number of ranked frequent items.
func (pc *PairCount) N() int { return pc.n }

// Cells returns the triangle size. Callers bound it (PairCells) before
// allocating triangles.
func (pc *PairCount) Cells() int { return pc.n * (pc.n - 1) / 2 }

// RowBase returns the offset of row a: pair (a, b) lives in cell
// RowBase(a) + b.
//
//armlint:noalloc
func (pc *PairCount) RowBase(a int) int { return a*pc.n - a*(a+1)/2 - a - 1 }

// CountRange adds every pair of frequent items of transactions [lo, hi) of
// d into tri and returns the modelled work: WorkItemScan per item read plus
// WorkPairInc per cell incremented. It polls ctx every stride transactions
// and returns early once ctx is done; the caller then discards the partial
// counts. scratch needs room for N ranks.
//
//armlint:noalloc
func (pc *PairCount) CountRange(ctx context.Context, tri, scratch []int32, d *db.Database, lo, hi, stride int) int64 {
	var scanned, pairs int64
	for i := lo; i < hi; i++ {
		if (i-lo)%stride == 0 && ctx.Err() != nil {
			break
		}
		t := d.Items(i)
		scanned += int64(len(t))
		m := 0
		for _, it := range t {
			if r := pc.rank[it]; r >= 0 {
				scratch[m] = r
				m++
			}
		}
		pairs += int64(m) * int64(m-1) / 2
		for x := 0; x < m-1; x++ {
			base := pc.RowBase(int(scratch[x]))
			for _, b := range scratch[x+1 : m] {
				tri[base+int(b)]++
			}
		}
	}
	return scanned*hashtree.WorkItemScan + pairs*WorkPairInc
}

// Kernel builds a sched.Pass kernel that counts into tri, one worker's
// private triangle, polling every stride transactions.
func (pc *PairCount) Kernel(tri []int32, stride int) sched.Kernel {
	scratch := make([]int32, pc.n)
	return func(ctx context.Context, d *db.Database, _, lo, hi int) int64 {
		return pc.CountRange(ctx, tri, scratch, d, lo, hi, stride)
	}
}

// ReduceRange sums cells [lo, hi) of every triangle into tris[0]. Workers
// reducing disjoint ranges may run concurrently.
func ReduceRange(tris [][]int32, lo, hi int) {
	dst := tris[0]
	for c := lo; c < hi; c++ {
		var s int64
		for _, t := range tris {
			s += int64(t[c])
		}
		dst[c] = int32(s) //armlint:narrowok a cell counts each transaction holding both items once: at most half of an in-RAM database's int32-addressed arena, and ccpd and vbit run the pass over at most 2³¹−1 transactions, so the sum stays below 2³¹
	}
}

// FrequentRange returns the pairs of cells [lo, hi) of a reduced triangle
// whose count reaches minCount, in lexicographic order. Concatenating the
// outputs of ascending disjoint ranges gives F2 in the order every engine
// emits it.
func (pc *PairCount) FrequentRange(tri []int32, minCount int64, lo, hi int) []FrequentItemset {
	if lo >= hi {
		return nil
	}
	// Find the row holding cell lo: row a spans [RowBase(a)+a+1, RowBase(a)+n).
	a := 0
	for pc.RowBase(a)+pc.n <= lo {
		a++
	}
	b := lo - pc.RowBase(a)
	var out []FrequentItemset
	var arena []itemset.Item
	for c := lo; c < hi; c++ {
		if v := int64(tri[c]); v >= minCount {
			n := len(arena)
			arena = append(arena, pc.items[a], pc.items[b])
			out = append(out, FrequentItemset{Items: itemset.Itemset(arena[n : n+2 : n+2]), Count: v})
		}
		if b++; b == pc.n {
			a++
			b = a + 1
		}
	}
	return out
}
