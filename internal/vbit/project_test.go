package vbit

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/apriori"
	"repro/internal/db"
	"repro/internal/itemset"
)

// TestProjectKernels checks ProjectTable, ProjectInto and ProjectListInto
// against re-numbering each member of a random subset of a random mask by
// its rank among the mask's tids.
func TestProjectKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(400)
		mask, maskList := randBitmap(rng, n, rng.Float64())
		src := make([]uint64, len(mask))
		var want []int32
		for r, tid := range maskList {
			if rng.Intn(2) == 0 {
				SetBit(src, tid)
				want = append(want, int32(r))
			}
		}
		cum := make([]int32, len(mask)+1)
		moves := make([][6]uint64, len(mask))
		ProjectTable(cum, moves, mask)
		if int(cum[len(mask)]) != len(maskList) {
			t.Fatalf("trial %d: ProjectTable total %d, want %d", trial, cum[len(mask)], len(maskList))
		}
		width := (len(maskList) + 63) / 64
		dst := make([]uint64, width)
		for i := range dst {
			dst[i] = ^uint64(0) // stale bits the kernel must clear
		}
		ProjectInto(dst, src, moves, cum)
		wantWords := make([]uint64, width)
		for _, r := range want {
			SetBit(wantWords, r)
		}
		for i := range wantWords {
			if dst[i] != wantWords[i] {
				t.Fatalf("trial %d: ProjectInto word %d = %#x, want %#x", trial, i, dst[i], wantWords[i])
			}
		}
		list := make([]int32, len(want))
		if got := ProjectListInto(list, src, mask, cum); got != len(want) {
			t.Fatalf("trial %d: ProjectListInto n = %d, want %d", trial, got, len(want))
		}
		for i := range want {
			if list[i] != want[i] {
				t.Fatalf("trial %d: ProjectListInto[%d] = %d, want %d", trial, i, list[i], want[i])
			}
		}
	}
}

// frameDB builds a database of d rows whose anchor items 0.. have exactly
// the given supports, item len(sups) is in every row (a full-width anchor,
// never projected), and the remaining extra items have random densities.
// Item len(sups)+1 contains every row of item 0 plus a few, so item 0's
// level-2 diffset against it is empty: a child demoted to a tidlist inside
// the frame at any width.
func frameDB(rng *rand.Rand, d int, sups []int, extra int) *db.Database {
	n := len(sups) + 2 + extra
	rows := make([]itemset.Itemset, d)
	for it, s := range sups {
		for _, tid := range rng.Perm(d)[:s] {
			rows[tid] = append(rows[tid], itemset.Item(it))
		}
	}
	full, cover := itemset.Item(len(sups)), itemset.Item(len(sups)+1)
	for tid := range rows {
		rows[tid] = append(rows[tid], full)
		if len(sups) > 0 && rows[tid][0] == 0 || rng.Intn(8) == 0 {
			rows[tid] = append(rows[tid], cover)
		}
	}
	for it := len(sups) + 2; it < n; it++ {
		density := []float64{0.97, 0.8, 0.5, 0.2, 0.04}[rng.Intn(5)]
		for tid := range rows {
			if rng.Float64() < density {
				rows[tid] = append(rows[tid], itemset.Item(it))
			}
		}
	}
	out := db.New(n)
	for tid, r := range rows {
		out.Append(int64(tid), itemset.New(r...))
	}
	return out
}

// layoutAt materializes d's columns for the items of support >= minCount.
func layoutAt(d *db.Database, cutoff float64, minCount int64) *Layout {
	sups := make([]int64, d.NumItems())
	for i := 0; i < d.Len(); i++ {
		for _, it := range d.Items(i) {
			sups[it]++
		}
	}
	l := newLayout(d.Len(), d.NumItems(), cutoff, minCount, sups)
	l.fill(0, d)
	return l
}

// projectedClasses counts the classes the projection rule sends into a
// frame narrower than the layout, with the pair pass's triangle when pairs
// is set, and how many of their level-2 children start there as tidlists.
func projectedClasses(t *testing.T, d *db.Database, cutoff float64, minCount int64, pairs bool) (classes, listKids int) {
	t.Helper()
	f1 := apriori.FrequentOne(d, minCount)
	lay := layoutAt(d, cutoff, minCount)
	heads := classOrder(f1)
	tk := newTask(lay, minCount, 0, len(heads))
	if pairs && len(f1) >= 2 {
		tk.pc = apriori.NewPairCount(f1, d.NumItems())
		tk.tri = countPairs(t, d, tk.pc, 1, 64)
	}
	pairsOnly := newTask(lay, minCount, 2, len(heads))
	for c, h := range heads {
		if _, ok := pairsOnly.frame(h); ok {
			t.Fatalf("class %d projected at MaxK 2, where no diff runs past level 2", h.item)
		}
		width, ok := tk.frame(h)
		if !ok {
			continue
		}
		classes++
		tk.mineClass(heads, c)
		for _, kid := range tk.kids[1] {
			if !kid.s.dense() {
				listKids++
			} else if len(kid.s.words) != width {
				t.Fatalf("class %d: child bitmap of %d words, want the frame's %d", h.item, len(kid.s.words), width)
			}
		}
	}
	return classes, listKids
}

// TestProjectedFrameMatchesApriori drives the projected class DFS over the
// shapes at its edges — databases of 63, 64, 65, 129 and 640 rows, anchors
// of 64k−1, 64k and 64k+1 tids, an anchor in every row (never projected),
// children that start the frame as tidlists — under MaxK 2, 3 and
// unlimited, the pair pass forced on and off, 1 and 3 workers, and the
// all-bitmap and a mixed layout cutoff, against sequential Apriori. At 640
// rows (10 words) anchors of 576 tids are the widest projected and 577 the
// narrowest not. No class projects where the pair pass ran.
func TestProjectedFrameMatchesApriori(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	cutoffs := map[string]float64{"all-bitmap": 1e-9, "mixed": 0.25}
	var projected [2]int // without, with the pair pass
	var listKids int
	for _, shape := range []struct{ d, k int }{{63, 1}, {64, 1}, {65, 1}, {129, 1}, {129, 2}, {640, 1}, {640, 2}, {640, 5}, {640, 9}} {
		d := shape.d
		var sups []int
		for _, s := range []int{64*shape.k - 1, 64 * shape.k, 64*shape.k + 1} {
			if s <= d {
				sups = append(sups, s)
			}
		}
		for trial := 0; trial < 2; trial++ {
			data := frameDB(rng, d, sups, 8)
			const minCount = 3
			want, err := apriori.Mine(data, apriori.Options{AbsSupport: minCount})
			if err != nil {
				t.Fatal(err)
			}
			for cn, cutoff := range cutoffs {
				for i, pairs := range []bool{false, true} {
					c, l := projectedClasses(t, data, cutoff, minCount, pairs)
					if d <= 64 && c > 0 {
						t.Fatalf("D=%d: %d classes projected, want none in a one-word layout", d, c)
					}
					projected[i] += c
					listKids += l
				}
				for _, maxK := range []int{2, 3, 0} {
					for _, force := range []int8{1, -1} {
						for _, procs := range []int{1, 3} {
							label := fmt.Sprintf("D=%d k=%d trial %d %s maxK=%d pairs=%d P=%d", d, shape.k, trial, cn, maxK, force, procs)
							got, _, err := Mine(data, Options{AbsSupport: minCount, MaxK: maxK, Procs: procs, DensityCutoff: cutoff, forcePairs: force})
							if err != nil {
								t.Fatalf("%s: %v", label, err)
							}
							ref := want
							if maxK > 0 {
								ref = &apriori.Result{MinCount: want.MinCount, ByK: want.ByK[:min(maxK+1, len(want.ByK))]}
							}
							sameResult(t, label, got, ref)
						}
					}
				}
			}
		}
	}
	if projected[0] == 0 || listKids == 0 {
		t.Fatalf("%d projected classes, %d of their children tidlists: the shapes miss the frame", projected[0], listKids)
	}
	if projected[1] != 0 {
		t.Fatalf("%d classes projected under the pair pass, want none", projected[1])
	}
}

// FuzzMineVsApriori mines small databases under the all-bitmap cutoff, so
// every class whose anchor is narrow enough runs projected, against
// sequential Apriori. Each row is four bytes, ANDed in pairs into a mask
// over 12 items (density about a quarter, so rows past 64 make narrow
// anchors); flags pick MaxK, the pair pass and the worker count. At most
// 300 rows over 12 items bound an input at 4,095 frequent itemsets: over
// 16 items one input could hold 65,535, and the level-wise Apriori
// reference took over a second on it.
func FuzzMineVsApriori(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for _, rows := range []int{63, 64, 65, 129, 300} {
		data := make([]byte, 4*rows)
		rng.Read(data)
		f.Add(data, uint8(rows%7), uint8(rows))
	}
	f.Add([]byte{}, uint8(0), uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, minCount, flags uint8) {
		if len(data) > 1200 {
			data = data[:1200]
		}
		d := db.New(12)
		for r := 0; r+3 < len(data); r += 4 {
			var row itemset.Itemset
			m := (uint16(data[r]&data[r+1]) | uint16(data[r+2]&data[r+3])<<8) & (1<<12 - 1)
			for it := 0; m != 0; it, m = it+1, m>>1 {
				if m&1 != 0 {
					row = append(row, itemset.Item(it))
				}
			}
			d.Append(int64(d.Len()), row)
		}
		abs := int64(minCount%16) + 1
		want, err := apriori.Mine(d, apriori.Options{AbsSupport: abs})
		if err != nil {
			t.Fatal(err)
		}
		maxK := []int{0, 2, 3, 0}[flags&3]
		if maxK > 0 && len(want.ByK) > maxK+1 {
			want.ByK = want.ByK[:maxK+1]
		}
		force := int8(1)
		if flags&4 != 0 {
			force = -1
		}
		got, _, err := Mine(d, Options{AbsSupport: abs, MaxK: maxK, Procs: 1 + int(flags>>3&1), DensityCutoff: 1e-9, forcePairs: force})
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, fmt.Sprintf("rows=%d minCount=%d flags=%#x", d.Len(), abs, flags), got, want)
	})
}
