package hashtree

import (
	"math/rand"
	"testing"

	"repro/internal/itemset"
)

// TestFlatShape checks the frozen SoA view against the pointer structure,
// and the candidate-item set it records for projected counting against the
// candidates, with the projection buffer a context sizes from it.
func TestFlatShape(t *testing.T) {
	sparse, err := Build(Config{K: 3, Fanout: 3, Threshold: 2, NumItems: 16},
		[]itemset.Itemset{itemset.New(1, 3, 5), itemset.New(3, 5, 9), itemset.New(1, 5, 9)})
	if err != nil {
		t.Fatal(err)
	}
	sf := sparse.Freeze()
	if len(sf.candItem) != 10 || sf.candItems != 4 {
		t.Fatalf("candItem len %d, candItems %d; want 10, 4", len(sf.candItem), sf.candItems)
	}
	for it, in := range sf.candItem {
		if want := it == 1 || it == 3 || it == 5 || it == 9; in != want {
			t.Fatalf("candItem[%d] = %v, want %v", it, in, want)
		}
	}
	for _, project := range []bool{false, true} {
		ctx := sparse.NewCountCtx(NewCounters(CounterPrivate, sparse.NumCandidates(), 1), CountOpts{Project: project})
		want := 0
		if project {
			want = sf.candItems
		}
		if len(ctx.proj) != want || (ctx.proj != nil) != project {
			t.Fatalf("project=%v: projection buffer len %d (nil %v), want %d", project, len(ctx.proj), ctx.proj == nil, want)
		}
	}

	cands := combinations(12, 3)
	tr, err := Build(Config{K: 3, Fanout: 3, Threshold: 2, NumItems: 12}, cands)
	if err != nil {
		t.Fatal(err)
	}
	f := tr.Freeze()
	if f.NumNodes() != len(tr.nodes) {
		t.Fatalf("flat nodes %d != tree nodes %d", f.NumNodes(), len(tr.nodes))
	}
	if f.NumCandidates() != tr.NumCandidates() {
		t.Fatalf("flat cands %d != tree cands %d", f.NumCandidates(), tr.NumCandidates())
	}
	if tr.Freeze() != f {
		t.Fatal("Freeze not cached")
	}
	// Every candidate id must appear exactly once across the leaf CSR.
	seen := make([]int, f.NumCandidates())
	var leaves, internal int
	for n := 0; n < f.NumNodes(); n++ {
		if f.childBase[n] < 0 {
			leaves++
			for _, c := range f.leafItems[f.leafStart[n]:f.leafStart[n+1]] {
				seen[c]++
			}
			continue
		}
		internal++
		if f.leafStart[n] != f.leafStart[n+1] {
			t.Fatalf("internal node %d has leaf items", n)
		}
		for _, ch := range f.children[f.childBase[n] : f.childBase[n]+int32(f.fanout)] {
			if ch >= 0 && (ch <= int32(n) || ch >= int32(f.NumNodes())) {
				t.Fatalf("node %d child %d not in DFS-forward order", n, ch)
			}
		}
	}
	for id, c := range seen {
		if c != 1 {
			t.Fatalf("candidate %d appears %d times in leaf CSR", id, c)
		}
	}
	st := tr.ComputeStats()
	if leaves != st.Leaves || internal != st.Internal {
		t.Fatalf("flat leaves/internal %d/%d != stats %d/%d", leaves, internal, st.Leaves, st.Internal)
	}
}

// TestFlatCountMatchesPointerTree is the layout property test: frozen
// flat-tree counting must produce counts identical to the deliberately
// pointer-chasing PointerTree on randomized databases, across all counter
// modes and both short-circuit settings. Run under -race in CI.
func TestFlatCountMatchesPointerTree(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 12; trial++ {
		k := 2 + rng.Intn(3)
		universe := 10 + rng.Intn(20)
		candSet := map[string]itemset.Itemset{}
		for i := 0; i < 20+rng.Intn(80); i++ {
			m := map[itemset.Item]bool{}
			for len(m) < k {
				m[itemset.Item(rng.Intn(universe))] = true
			}
			var s itemset.Itemset
			for it := range m {
				s = append(s, it)
			}
			c := itemset.New(s...)
			candSet[c.Key()] = c
		}
		var cands []itemset.Itemset
		for _, c := range candSet {
			cands = append(cands, c)
		}
		txs := randomTxs(rng, 60+rng.Intn(100), 2+rng.Intn(12), universe)
		cfg := Config{
			K: k, Fanout: 2 + rng.Intn(6), Threshold: 1 + rng.Intn(5),
			Hash: HashKind(rng.Intn(2)), NumItems: universe,
		}

		for _, sc := range []bool{false, true} {
			// Fresh reference tree per setting: PointerTree counts accumulate
			// in the nodes themselves.
			ptr, err := BuildPointer(cfg, cands)
			if err != nil {
				t.Fatal(err)
			}
			pctx := ptr.NewCountCtx(sc)
			for _, tx := range txs {
				pctx.CountTransaction(tx)
			}
			want := map[string]int64{}
			ptr.ForEachCandidate(func(items itemset.Itemset, count int64) {
				want[items.Key()] = count
			})

			for _, mode := range []CounterMode{CounterLocked, CounterAtomic, CounterPrivate} {
				tr, err := Build(cfg, cands)
				if err != nil {
					t.Fatal(err)
				}
				const procs = 4
				counters := NewCounters(mode, tr.NumCandidates(), procs)
				done := make(chan struct{}, procs)
				for p := 0; p < procs; p++ {
					go func(p int) {
						ctx := tr.NewCountCtx(counters, CountOpts{ShortCircuit: sc, Proc: p})
						lo := p * len(txs) / procs
						hi := (p + 1) * len(txs) / procs
						for _, tx := range txs[lo:hi] {
							ctx.CountTransaction(tx)
						}
						done <- struct{}{}
					}(p)
				}
				for p := 0; p < procs; p++ {
					<-done
				}
				counters.Reduce()
				tr.ForEachCandidate(func(id int32) {
					key := tr.Candidate(id).Key()
					if got := counters.Count(id); got != want[key] {
						t.Fatalf("trial %d sc=%v mode=%v: candidate %v count %d, want %d",
							trial, sc, mode, tr.Candidate(id), got, want[key])
					}
				})
			}
		}
	}
}

// TestFlatWorkMatchesRecursiveModel pins the deterministic work model: the
// iterative kernel must accumulate exactly the work units of the recursive
// definition (checked against an independent recursive re-implementation).
func TestFlatWorkMatchesRecursiveModel(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cands := combinations(14, 3)
	txs := randomTxs(rng, 120, 12, 14)
	for _, sc := range []bool{false, true} {
		tr, err := Build(Config{K: 3, Fanout: 3, Threshold: 2, NumItems: 14}, cands)
		if err != nil {
			t.Fatal(err)
		}
		counters := NewCounters(CounterPrivate, tr.NumCandidates(), 1)
		ctx := tr.NewCountCtx(counters, CountOpts{ShortCircuit: sc})
		ref := newRecursiveRef(tr, sc)
		for _, tx := range txs {
			ctx.CountTransaction(tx)
			ref.countTransaction(tx)
		}
		if ctx.Work != ref.work {
			t.Fatalf("sc=%v: iterative work %d != recursive reference %d", sc, ctx.Work, ref.work)
		}
	}
}

// recursiveRef re-implements the pre-flat recursive walk over the pointer
// node structure, accumulating only work units.
type recursiveRef struct {
	t         *Tree
	sc        bool
	work      int64
	visit     [][]uint64
	epoch     []uint64
	leafStamp []uint64
	txSerial  uint64
}

func newRecursiveRef(t *Tree, sc bool) *recursiveRef {
	r := &recursiveRef{t: t, sc: sc}
	r.visit = make([][]uint64, t.cfg.K+1)
	for d := range r.visit {
		r.visit[d] = make([]uint64, t.cfg.Fanout)
	}
	r.epoch = make([]uint64, t.cfg.K+1)
	r.leafStamp = make([]uint64, len(t.nodes))
	return r
}

func (r *recursiveRef) countTransaction(items itemset.Itemset) {
	if len(items) < r.t.cfg.K {
		return
	}
	r.txSerial++
	r.walk(0, items, 0)
}

func (r *recursiveRef) walk(id int32, items itemset.Itemset, start int) {
	n := r.t.nodes[id]
	k := r.t.cfg.K
	r.work += WorkNodeVisit
	if n.isLeaf() {
		if !r.sc {
			if r.leafStamp[id] == r.txSerial {
				return
			}
			r.leafStamp[id] = r.txSerial
		}
		r.work += int64(len(n.items)) * int64(WorkLeafCand+k)
		for _, cand := range n.items {
			if items.Contains(r.t.candidateLocked(cand)) {
				r.work += WorkCtrUpdate
			}
		}
		return
	}
	d := int(n.depth)
	var row []uint64
	var ep uint64
	if r.sc {
		r.epoch[d]++
		ep = r.epoch[d]
		row = r.visit[d]
	}
	limit := len(items) - k + d
	for i := start; i <= limit; i++ {
		c := r.t.cell(items[i])
		r.work += WorkCellProbe
		if r.sc {
			if row[c] == ep {
				continue
			}
			row[c] = ep
		}
		child := n.children[c]
		if child < 0 {
			continue
		}
		r.walk(child, items, i+1)
	}
}

// TestCountTransactionZeroAlloc is the allocation regression gate for the
// counting kernel: steady-state CountTransaction must not touch the heap, in
// any counter mode, projected or not. The transaction carries items past
// the candidates' range, which the projection drops.
func TestCountTransactionZeroAlloc(t *testing.T) {
	cands := combinations(16, 3)
	tr, err := Build(Config{K: 3, Fanout: 4, Threshold: 3, NumItems: 24}, cands)
	if err != nil {
		t.Fatal(err)
	}
	tx := itemset.New(0, 2, 3, 5, 7, 8, 10, 11, 13, 15, 17, 20, 23)
	for _, mode := range []CounterMode{CounterLocked, CounterAtomic, CounterPrivate} {
		for _, sc := range []bool{false, true} {
			for _, project := range []bool{false, true} {
				counters := NewCounters(mode, tr.NumCandidates(), 1)
				ctx := tr.NewCountCtx(counters, CountOpts{ShortCircuit: sc, Project: project})
				allocs := testing.AllocsPerRun(50, func() {
					ctx.CountTransaction(tx)
				})
				if allocs != 0 {
					t.Errorf("mode=%v sc=%v project=%v: %v allocs/op, want 0", mode, sc, project, allocs)
				}
			}
		}
	}
}

// TestCountDatabaseUsesUnsynchronizedCounters pins the sequential-baseline
// bugfix: CountDatabase must not pay atomic/lock cost on its single-threaded
// scan.
func TestCountDatabaseUsesUnsynchronizedCounters(t *testing.T) {
	tr, err := Build(Config{K: 2, Fanout: 2, Threshold: 2, NumItems: 6},
		[]itemset.Itemset{itemset.New(1, 2), itemset.New(2, 4), itemset.New(4, 5)})
	if err != nil {
		t.Fatal(err)
	}
	counters := tr.CountDatabase([]itemset.Itemset{
		itemset.New(1, 2, 4), itemset.New(2, 4, 5),
	}, CountOpts{ShortCircuit: true})
	if counters.Mode != CounterPrivate {
		t.Fatalf("CountDatabase counters mode %v, want private (unsynchronized)", counters.Mode)
	}
	if got := counters.Count(1); got != 2 { // (2 4) is candidate id 1
		t.Fatalf("count = %d, want 2", got)
	}
}
