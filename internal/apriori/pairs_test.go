package apriori

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/db"
	"repro/internal/hashtree"
	"repro/internal/itemset"
)

// checkPairCount runs the pair kernel over d the way the engines do — one
// private triangle per worker over block ranges, reduced and extracted over
// uneven cell ranges — and checks every cell against a brute-force pair
// count, the extracted F2 against sequential Apriori's, and the work figure
// against its definition.
func checkPairCount(t *testing.T, d *db.Database, minCount int64, procs, stride int) {
	t.Helper()
	f1 := FrequentOne(d, minCount)
	pc := NewPairCount(f1, d.NumItems())
	if pc.N() != len(f1) || int64(pc.Cells()) != PairCells(len(f1)) {
		t.Fatalf("N=%d Cells=%d for |F1|=%d", pc.N(), pc.Cells(), len(f1))
	}
	brute := map[[2]itemset.Item]int32{}
	freq := map[itemset.Item]bool{}
	for _, f := range f1 {
		freq[f.Items[0]] = true
	}
	var wantWork int64
	for i := 0; i < d.Len(); i++ {
		var fi []itemset.Item
		for _, it := range d.Items(i) {
			if freq[it] {
				fi = append(fi, it)
			}
		}
		for x := range fi {
			for y := x + 1; y < len(fi); y++ {
				brute[[2]itemset.Item{fi[x], fi[y]}]++
			}
		}
		wantWork += int64(d.Items(i).K())*hashtree.WorkItemScan + int64(len(fi)*(len(fi)-1)/2)*WorkPairInc
	}

	tris := make([][]int32, procs)
	scratch := make([]int32, pc.N())
	var work int64
	for p := range tris {
		tris[p] = make([]int32, pc.Cells())
		lo, hi := p*d.Len()/procs, (p+1)*d.Len()/procs
		work += pc.CountRange(context.Background(), tris[p], scratch, d, lo, hi, stride)
	}
	if work != wantWork {
		t.Errorf("work = %d, want %d", work, wantWork)
	}
	// Reduce and extract over uneven ranges, one of them a single cell.
	cuts := []int{0, pc.Cells() / 3, min(pc.Cells()/3+1, pc.Cells()), pc.Cells()}
	var got []FrequentItemset
	for i := 0; i+1 < len(cuts); i++ {
		ReduceRange(tris, cuts[i], cuts[i+1])
	}
	for i := 0; i+1 < len(cuts); i++ {
		got = append(got, pc.FrequentRange(tris[0], minCount, cuts[i], cuts[i+1])...)
	}
	for a := 0; a < pc.N(); a++ {
		for b := a + 1; b < pc.N(); b++ {
			key := [2]itemset.Item{f1[a].Items[0], f1[b].Items[0]}
			if c := tris[0][pc.RowBase(a)+b]; c != brute[key] {
				t.Fatalf("pair %v: triangle %d, brute force %d", key, c, brute[key])
			}
		}
	}
	ref, err := Mine(d, Options{AbsSupport: minCount, MaxK: 2})
	if err != nil {
		t.Fatal(err)
	}
	var want []FrequentItemset
	if len(ref.ByK) > 2 {
		want = ref.ByK[2]
	}
	if len(got) != len(want) || (len(got) > 0 && !reflect.DeepEqual(got, want)) {
		t.Fatalf("minCount %d: F2 = %v, want %v", minCount, got, want)
	}
}

// randomPairDB builds n transactions over items [0, items), each item
// present with probability density.
func randomPairDB(rng *rand.Rand, n, items int, density float64) *db.Database {
	d := db.New(items)
	for i := 0; i < n; i++ {
		var t itemset.Itemset
		for it := 0; it < items; it++ {
			if rng.Float64() < density {
				t = append(t, itemset.Item(it))
			}
		}
		d.Append(int64(i), t)
	}
	return d
}

// TestPairCountMatchesBruteForce drives the kernel over seeded databases
// and the edge shapes: |F1| of 0, 1 and 2, rows with no frequent item, a row
// holding every F1 item, and minCount on either side of a pair's count.
func TestPairCountMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 4; trial++ {
		d := randomPairDB(rng, 300, 30, 0.2)
		for _, procs := range []int{1, 2, 3} {
			for _, minCount := range []int64{1, 5, 12, 20} {
				checkPairCount(t, d, minCount, procs, 7)
			}
		}
	}

	// |F1| = 0, 1, 2: item 0 in every row, item 1 in half, items 2 and 3
	// in one each.
	d := db.New(4)
	for i := 0; i < 10; i++ {
		switch {
		case i == 0:
			d.Append(int64(i), itemset.New(0, 1, 2))
		case i == 1:
			d.Append(int64(i), itemset.New(0, 3))
		case i%2 == 0:
			d.Append(int64(i), itemset.New(0, 1))
		default:
			d.Append(int64(i), itemset.New(0))
		}
	}
	for _, minCount := range []int64{11, 10, 5} { // |F1| = 0, 1, 2
		checkPairCount(t, d, minCount, 2, 3)
	}

	// Rows with no frequent item, a row holding every F1 item, and
	// minCount at, above and below the count of pair {0, 1} (4).
	d = db.New(8)
	d.Append(0, itemset.New(0, 1, 2, 3, 4, 5, 6, 7))
	d.Append(1, itemset.New(0, 1, 2))
	d.Append(2, itemset.New(0, 1))
	d.Append(3, itemset.New(0, 1, 3))
	d.Append(4, itemset.New(6))
	d.Append(5, nil)
	d.Append(6, itemset.New(2, 3))
	for _, minCount := range []int64{3, 4, 5} {
		checkPairCount(t, d, minCount, 3, 1)
	}
}

// TestPairCountCanceled: a done context stops the kernel at its first poll.
func TestPairCountCanceled(t *testing.T) {
	d := randomPairDB(rand.New(rand.NewSource(3)), 50, 10, 0.5)
	pc := NewPairCount(FrequentOne(d, 1), d.NumItems())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	tri := make([]int32, pc.Cells())
	if w := pc.CountRange(ctx, tri, make([]int32, pc.N()), d, 0, d.Len(), 8); w != 0 {
		t.Errorf("canceled CountRange did %d work", w)
	}
}

// FuzzPairCount checks the kernel against brute force on databases decoded
// from the fuzz input: each byte is one item (low 4 bits) of the current
// row, and a byte with the high bit set ends the row.
func FuzzPairCount(f *testing.F) {
	f.Add([]byte{0x01, 0x02, 0x83, 0x01, 0x02, 0x80, 0x01, 0x03}, uint8(1), uint8(2))
	f.Add([]byte{0x00, 0x01, 0x02, 0x03, 0x04, 0x85, 0x85, 0x00, 0x05}, uint8(2), uint8(1))
	f.Add([]byte{}, uint8(1), uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, minCount, procs uint8) {
		d := db.New(16)
		var row []itemset.Item
		flush := func() {
			d.Append(int64(d.Len()), itemset.New(row...))
			row = row[:0]
		}
		for _, b := range data {
			row = append(row, itemset.Item(b&0x0f))
			if b&0x80 != 0 {
				flush()
			}
		}
		flush()
		checkPairCount(t, d, int64(minCount%8)+1, int(procs%4)+1, 2)
	})
}
