package hashtree

import (
	"math/rand"
	"testing"

	"repro/internal/itemset"
)

// projectOnto keeps the items of tx that occur in some candidate, computed
// from the candidate list rather than from the frozen tree.
func projectOnto(tx itemset.Itemset, cands []itemset.Itemset) itemset.Itemset {
	in := map[itemset.Item]bool{}
	for _, c := range cands {
		for _, it := range c {
			in[it] = true
		}
	}
	var out itemset.Itemset
	for _, it := range tx {
		if in[it] {
			out = append(out, it)
		}
	}
	return out
}

// randomCands draws up to n distinct k-itemsets over items [lo, hi).
func randomCands(rng *rand.Rand, n, k int, lo, hi int) []itemset.Itemset {
	set := map[string]itemset.Itemset{}
	for i := 0; i < n; i++ {
		m := map[itemset.Item]bool{}
		for len(m) < k {
			m[itemset.Item(lo+rng.Intn(hi-lo))] = true
		}
		var s itemset.Itemset
		for it := range m {
			s = append(s, it)
		}
		c := itemset.New(s...)
		set[c.Key()] = c
	}
	var out []itemset.Itemset
	for _, c := range set {
		out = append(out, c)
	}
	return out
}

// TestProjectedCountMatchesUnprojected is the projection's property test.
// Over random trees (k=2..5, both hash kinds, short-circuit on and off) a
// projected context must count exactly what an unprojected one counts, and
// its work must equal the unprojected walk of the pre-projected transaction
// plus one WorkItemScan per item the projection read. The candidates draw
// from a middle band of the universe, so transactions carry items below the
// band, inside it but in no candidate, and past stampLen; many are left with
// fewer than k items.
func TestProjectedCountMatchesUnprojected(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 40; trial++ {
		k := 2 + trial%4
		universe := 30 + rng.Intn(30)
		cands := randomCands(rng, 5+rng.Intn(60), k, 5, universe-5)
		txs := randomTxs(rng, 150, 2+rng.Intn(14), universe)
		txs = append(txs, itemset.New(), itemset.New(0, 1), itemset.New(itemset.Item(universe-1)))
		cfg := Config{
			K: k, Fanout: 2 + rng.Intn(5), Threshold: 1 + rng.Intn(4),
			Hash: HashKind(trial / 4 % 2), NumItems: universe,
		}
		tr, err := Build(cfg, cands)
		if err != nil {
			t.Fatal(err)
		}
		want := bruteCount(cands, txs)
		for _, sc := range []bool{false, true} {
			plain := NewCounters(CounterPrivate, tr.NumCandidates(), 1)
			proj := NewCounters(CounterPrivate, tr.NumCandidates(), 1)
			ref := tr.NewCountCtx(NewCounters(CounterPrivate, tr.NumCandidates(), 1), CountOpts{ShortCircuit: sc})
			pctx := tr.NewCountCtx(proj, CountOpts{ShortCircuit: sc, Project: true})
			uctx := tr.NewCountCtx(plain, CountOpts{ShortCircuit: sc})
			for i, tx := range txs {
				before, refBefore := pctx.Work, ref.Work
				pctx.CountTransaction(tx)
				uctx.CountTransaction(tx)
				ref.CountTransaction(projectOnto(tx, cands))
				var scans int64
				if len(tx) >= k {
					scans = int64(len(tx)) * WorkItemScan
				}
				if got, exp := pctx.Work-before, ref.Work-refBefore+scans; got != exp {
					t.Fatalf("trial %d sc=%v tx %d %v: projected work %d, want %d", trial, sc, i, tx, got, exp)
				}
			}
			plain.Reduce()
			proj.Reduce()
			tr.ForEachCandidate(func(id int32) {
				key := tr.Candidate(id).Key()
				if proj.Count(id) != plain.Count(id) || proj.Count(id) != want[key] {
					t.Fatalf("trial %d sc=%v: candidate %v projected %d, unprojected %d, brute force %d",
						trial, sc, tr.Candidate(id), proj.Count(id), plain.Count(id), want[key])
				}
			})
		}
	}
}

// TestInsertRefusesNegativeItem: every candidate item indexes the counting
// contexts' item stamps, so the tree refuses a negative one.
func TestInsertRefusesNegativeItem(t *testing.T) {
	tr := New(Config{K: 2, Fanout: 2, Threshold: 8, NumItems: 6})
	if _, err := tr.Insert(itemset.Itemset{-3, 1}); err == nil || tr.NumCandidates() != 0 {
		t.Errorf("Insert of a negative item: err %v, %d candidates; want an error and none", err, tr.NumCandidates())
	}
}

// FuzzProjectedCount builds a tree and a database from the fuzz input and
// checks projected counts against brute-force subset counting. The first
// bytes pick k, fan-out, leaf threshold, hash kind and short-circuiting; the
// rest alternate between candidate and transaction items over a 24-item
// universe, a zero byte closing the current itemset.
func FuzzProjectedCount(f *testing.F) {
	f.Add([]byte{3, 2, 2, 0, 1, 1, 2, 3, 0, 2, 3, 4, 0, 1, 2, 3, 4, 0, 2, 3, 4, 9, 0})
	f.Add([]byte{2, 3, 1, 1, 0, 5, 7, 0, 7, 9, 0, 5, 7, 9, 11, 0, 1, 2, 3, 0, 23, 24, 0})
	f.Add([]byte{5, 4, 3, 0, 1, 1, 2, 3, 4, 5, 0, 1, 2, 3, 4, 5, 6, 7, 0, 2, 3, 4, 5, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 5 {
			return
		}
		const universe = 24
		k := 2 + int(data[0])%4
		cfg := Config{
			K: k, Fanout: 2 + int(data[1])%5, Threshold: 1 + int(data[2])%4,
			Hash: HashKind(data[3] % 2), NumItems: universe,
		}
		sc := data[4]%2 == 1
		seen := map[string]bool{}
		var cands, txs []itemset.Itemset
		var cur itemset.Itemset
		toCands := true
		for _, b := range data[5:] {
			if b != 0 {
				cur = append(cur, itemset.Item(b%(universe+8)))
				continue
			}
			s := itemset.New(cur...)
			cur = cur[:0]
			if toCands && len(s) >= k {
				c := s[:k]
				if !seen[c.Key()] {
					seen[c.Key()] = true
					cands = append(cands, c)
				}
			} else if !toCands {
				txs = append(txs, s)
			}
			toCands = !toCands
		}
		if len(cands) == 0 {
			return
		}
		tr, err := Build(cfg, cands)
		if err != nil {
			t.Fatal(err)
		}
		got := tr.CountDatabase(txs, CountOpts{ShortCircuit: sc, Project: true})
		want := bruteCount(cands, txs)
		tr.ForEachCandidate(func(id int32) {
			if c := tr.Candidate(id); got.Count(id) != want[c.Key()] {
				t.Fatalf("candidate %v: projected count %d, brute force %d", c, got.Count(id), want[c.Key()])
			}
		})
	})
}
