package vbit

import (
	"testing"

	"repro/internal/db"
	"repro/internal/itemset"
)

func TestLayoutClassification(t *testing.T) {
	// 128 transactions; item 0 in every row (density 1), item 1 in exactly
	// 2 rows (density 1/64 — exactly at the default cutoff, dense), item 2
	// in 1 row (below it, sparse), item 3 nowhere.
	d := db.New(4)
	for t2 := 0; t2 < 128; t2++ {
		items := itemset.New(0)
		if t2 < 2 {
			items = itemset.New(0, 1)
		} else if t2 == 5 {
			items = itemset.New(0, 2)
		}
		d.Append(int64(t2), items)
	}
	l := layoutAt(d, 0, 1)
	if l.Cutoff != DefaultDensityCutoff {
		t.Errorf("Cutoff = %v, want default %v", l.Cutoff, DefaultDensityCutoff)
	}
	if l.Words != 2 {
		t.Errorf("Words = %d, want 2", l.Words)
	}
	if !l.sets[0].dense() || !l.sets[1].dense() {
		t.Errorf("items 0,1 should be bitmap columns")
	}
	if l.sets[2].list == nil || l.sets[2].dense() {
		t.Errorf("item 2 should be a tidlist column")
	}
	if l.sets[3].words != nil || l.sets[3].list != nil {
		t.Errorf("absent item 3 should have no column")
	}
	if l.denseItems != 2 || l.sparseItems != 1 {
		t.Errorf("dense/sparse = %d/%d, want 2/1", l.denseItems, l.sparseItems)
	}
	for it, want := range []int64{128, 2, 1, 0} {
		if got := l.sets[it].card; got != want {
			t.Errorf("column %d card = %d, want %d", it, got, want)
		}
	}
	if got := l.sets[2].list; len(got) != 1 || got[0] != 5 {
		t.Errorf("item 2's tidlist = %v, want [5]", got)
	}
}
