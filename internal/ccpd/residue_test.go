package ccpd

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/apriori"
	"repro/internal/db"
	"repro/internal/db/seg"
	"repro/internal/gen"
	"repro/internal/itemset"
)

// pinnedProjectOpts are TestModelTimePinnedProject's options at P=1, block.
func pinnedProjectOpts() Options {
	return Options{
		Options: apriori.Options{AbsSupport: 10, ShortCircuit: true},
		Procs:   1, Balance: BalanceBitonic, AdaptiveMinUnits: 1,
		DBPart: PartitionBlock, Project: true,
	}
}

// residueBytes returns the footprint of the residue hash-tree pass k leaves
// for pass k+1 when fk1 is F_{k-1}: the rows of d holding more than k of
// C_k's items, projected onto them, at 12 bytes a row and 4 an item.
func residueBytes(d *db.Database, fk1 []apriori.FrequentItemset, k int) (rows int, bytes int64) {
	prev := make([]itemset.Itemset, len(fk1))
	for i, f := range fk1 {
		prev[i] = f.Items
	}
	cands, _, _ := apriori.GenerateCandidates(prev, false)
	in := map[itemset.Item]bool{}
	for _, c := range cands {
		for _, it := range c {
			in[it] = true
		}
	}
	for i := 0; i < d.Len(); i++ {
		n := 0
		for _, it := range d.Items(i) {
			if in[it] {
				n++
			}
		}
		if n > k {
			rows++
			bytes += 12 + 4*int64(n)
		}
	}
	return rows, bytes
}

// TestResidueCeiling: a residue over the ceiling is dropped and the next
// pass reads the whole source, with the output unchanged. With the ceiling
// one byte below the first residue (the one k=3 leaves), k=4 reads all D
// rows with the full-scan work, and k=4's own residue, which is smaller,
// takes over from k=5 with the unconstrained run's work. At the residue's
// size nothing changes, and below every residue each pass reproduces the
// full-scan figures pinned before the residue existed (P=1, block).
func TestResidueCeiling(t *testing.T) {
	d, err := gen.Generate(gen.Params{T: 10, I: 4, D: 2000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	opts := pinnedProjectOpts()
	want, wantSt, err := Mine(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	rows, size := residueBytes(d, want.ByK[2], 3)
	if got := wantSt.PerIter[3].Rows; got != rows || rows == 0 || rows >= d.Len() {
		t.Fatalf("k=4 read %d rows, want the %d of the residue (of %d)", got, rows, d.Len())
	}
	fullScan := []int64{20873, 442243, 371793, 128325, 30743, 21681, 18332, 0}

	for _, ceiling := range []int64{1, size - 1, size} {
		opts.residueMaxBytes = ceiling
		got, st, err := Mine(d, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("ceiling %d: result differs", ceiling)
		}
		if len(st.PerIter) != len(fullScan) {
			t.Fatalf("ceiling %d: %d iterations, want %d", ceiling, len(st.PerIter), len(fullScan))
		}
		for i, it := range st.PerIter {
			ref := wantSt.PerIter[i]
			wantWork, wantRows := ref.ModelTime(1), ref.Rows
			if ceiling == 1 || (ceiling == size-1 && it.K == 4) {
				wantWork = fullScan[i]
				if it.Candidates > 0 {
					wantRows = d.Len()
				}
			}
			if got := it.ModelTime(1); got != wantWork || it.Rows != wantRows {
				t.Errorf("ceiling %d (first residue %d bytes) k=%d: ModelTime %d over %d rows, want %d over %d",
					ceiling, size, it.K, got, it.Rows, wantWork, wantRows)
			}
		}
	}

	// The same decision with four workers claiming 16-row chunks, whose
	// flushes race on the shared byte total.
	par := pinnedProjectOpts()
	par.Procs, par.DBPart, par.ChunkSize = 4, PartitionStealing, 16
	for _, ceiling := range []int64{size - 1, size} {
		par.residueMaxBytes = ceiling
		got, st, err := Mine(d, par)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("P=4 ceiling %d: result differs", ceiling)
		}
		wantRows := rows
		if ceiling < size {
			wantRows = d.Len()
		}
		if got := st.PerIter[3].Rows; got != wantRows {
			t.Errorf("P=4 ceiling %d (first residue %d bytes): k=4 read %d rows, want %d", ceiling, size, got, wantRows)
		}
	}
}

// TestSegmentedResidueLoads: on a 4-segment store the passes through k=3
// load every segment, and from k=4 on they read the residue in RAM, with
// the same per-iteration work and rows as in RAM, in both partition modes
// the store supports.
func TestSegmentedResidueLoads(t *testing.T) {
	d, err := gen.Generate(gen.Params{T: 10, I: 4, D: 2000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	r := segStore(t, d, seg.WriterOptions{SegTx: 500})
	if r.NumSegments() != 4 {
		t.Fatalf("%d segments, want 4", r.NumSegments())
	}
	for _, part := range []DBPartition{PartitionBlock, PartitionStealing} {
		opts := pinnedProjectOpts()
		opts.Procs, opts.DBPart, opts.ChunkSize = 2, part, 64
		_, wantSt, err := Mine(d, opts)
		if err != nil {
			t.Fatal(err)
		}
		_, st, err := MineSegmented(r, SegmentedOptions{Options: opts})
		if err != nil {
			t.Fatal(err)
		}
		if len(st.PerIter) < 5 || len(st.PerIter) != len(wantSt.PerIter) {
			t.Fatalf("%s: %d iterations (in RAM %d), want the same and past k=4", part, len(st.PerIter), len(wantSt.PerIter))
		}
		if ooc := st.OutOfCore; ooc.Segments != 12 || ooc.Passes != 3 {
			t.Errorf("%s: %d segment loads over %d passes, want 12 over 3 (k=1..3)", part, ooc.Segments, ooc.Passes)
		}
		for i, it := range st.PerIter {
			w := wantSt.PerIter[i]
			if !reflect.DeepEqual(it.CountWork, w.CountWork) || it.ModelTime(2) != w.ModelTime(2) || it.Rows != w.Rows {
				t.Errorf("%s k=%d: CountWork %v over %d rows, in RAM %v over %d", part, it.K, it.CountWork, it.Rows, w.CountWork, w.Rows)
			}
			if read := it.K <= 3; it.Candidates > 0 && (it.Rows == d.Len()) != read {
				t.Errorf("%s k=%d: read %d of %d rows", part, it.K, it.Rows, d.Len())
			}
		}
	}
}

// FuzzMineVsApriori mines small databases with Options.Project, so every
// pass from k=4 on reads a residue, against sequential Apriori. Each row is
// four bytes, ANDed in pairs into a mask over 12 items (about three items a
// row); flags pick the worker count (1 or 3), the partition (block or
// stealing, 8-row chunks) and MaxK (0 or 3). At most 300 rows over 12
// items bound an input at 4,095 frequent itemsets, which both level-wise
// sides mine in milliseconds.
func FuzzMineVsApriori(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for _, rows := range []int{7, 8, 9, 64, 300} {
		data := make([]byte, 4*rows)
		rng.Read(data)
		f.Add(data, uint8(rows%5), uint8(rows))
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
		abs := int64(minCount%8) + 1
		maxK := 0
		if flags&4 != 0 {
			maxK = 3
		}
		want, err := apriori.Mine(d, apriori.Options{AbsSupport: abs, MaxK: maxK, ShortCircuit: true})
		if err != nil {
			t.Fatal(err)
		}
		part := PartitionBlock
		if flags&2 != 0 {
			part = PartitionStealing
		}
		opts := Options{
			Options: apriori.Options{AbsSupport: abs, MaxK: maxK, ShortCircuit: true},
			Procs:   1 + 2*int(flags&1), DBPart: part, ChunkSize: 8, Project: true,
		}
		got, _, err := Mine(d, opts)
		if err != nil {
			t.Fatal(err)
		}
		assertSameResult(t, fmt.Sprintf("rows=%d minCount=%d flags=%#x", d.Len(), abs, flags), got, want)
	})
}
