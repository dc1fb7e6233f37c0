package vbit

import (
	"testing"

	"repro/internal/db"
	"repro/internal/itemset"
)

func TestCharacterize(t *testing.T) {
	d := db.New(100)
	for i := 0; i < 50; i++ {
		d.Append(int64(i), itemset.New(0, 1, 2, 3, 4))
	}
	s := Characterize(d)
	if s.Transactions != 50 || s.NumItems != 100 {
		t.Errorf("D/N = %d/%d, want 50/100", s.Transactions, s.NumItems)
	}
	if s.AvgLen != 5 {
		t.Errorf("AvgLen = %v, want 5", s.AvgLen)
	}
	if s.Density != 0.05 {
		t.Errorf("Density = %v, want 0.05", s.Density)
	}
}
