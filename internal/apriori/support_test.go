package apriori

import (
	"reflect"
	"testing"

	"repro/internal/db"
	"repro/internal/itemset"
)

// TestCeilSupport pins the fractional-threshold arithmetic: the minimum
// count is the ceiling of MinSupport×|D|, with exact products snapped
// through the float-rounding guard. The old floor form int64(s×n) returned
// 2 for 0.01×300 (the product is 2.999…97 in binary) and admitted itemsets
// below the requested support.
func TestCeilSupport(t *testing.T) {
	cases := []struct {
		sup  float64
		n    int
		want int64
	}{
		{0.01, 300, 3},     // 2.999…97 → exact 3, the regression case
		{0.1, 300, 30},     // 30.000…004 → exact 30, guard in the other direction
		{0.005, 1000, 5},   // exact
		{0.0033, 1000, 4},  // 3.3 → genuine ceiling
		{0.5, 3, 2},        // 1.5 → 2
		{0.2, 4, 1},        // 0.8 → 1
		{0.000001, 100, 1}, // floor would be 0; threshold never drops below 1
		{0, 100, 1},
	}
	for _, c := range cases {
		if got := CeilSupport(c.sup, c.n); got != c.want {
			t.Errorf("CeilSupport(%g, %d) = %d, want %d", c.sup, c.n, got, c.want)
		}
	}
	// AbsSupport bypasses the fraction entirely.
	if got := (Options{MinSupport: 0.01, AbsSupport: 7}).MinCount(300); got != 7 {
		t.Errorf("AbsSupport override: MinCount = %d, want 7", got)
	}
	if got := (Options{MinSupport: 0.01}).MinCount(300); got != 3 {
		t.Errorf("MinCount(300) at 1%% = %d, want 3", got)
	}
}

// exactBoundaryDB: 300 transactions; itemset {0,1} occurs exactly twice and
// item 2 exactly three times — one below and exactly at a 1% threshold.
func exactBoundaryDB() *db.Database {
	d := db.New(4)
	for i := 0; i < 300; i++ {
		switch {
		case i < 2:
			d.Append(int64(i), itemset.New(0, 1, 3))
		case i < 3:
			d.Append(int64(i), itemset.New(2, 3))
		case i < 5:
			d.Append(int64(i), itemset.New(2))
		default:
			d.Append(int64(i), itemset.New(3))
		}
	}
	return d
}

// TestFractionalSupportBoundary is the sequential-engine regression for the
// floor bug: at MinSupport 0.01 over 300 transactions, 2 occurrences are
// below threshold and 3 are at it.
func TestFractionalSupportBoundary(t *testing.T) {
	d := exactBoundaryDB()
	res, err := Mine(d, Options{MinSupport: 0.01, ShortCircuit: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.MinCount != 3 {
		t.Fatalf("MinCount = %d, want 3 (ceil of 0.01×300)", res.MinCount)
	}
	if got := res.SupportOf(itemset.New(0, 1)); got != 0 {
		t.Errorf("{0,1} with 2 occurrences reported frequent (support %d)", got)
	}
	if got := res.SupportOf(itemset.New(2)); got != 3 {
		t.Errorf("{2} support = %d, want 3", got)
	}
}

// TestMineBatchedBitIdentical: the sequential miner under a candidate
// memory budget (multiple hash trees and database passes per iteration)
// returns exactly the unbatched result, and reports its batch counts.
func TestMineBatchedBitIdentical(t *testing.T) {
	d := db.New(30)
	// A dense block of overlapping transactions so iteration 2 has far more
	// candidates than the budget below.
	for i := 0; i < 60; i++ {
		items := itemset.New(
			itemset.Item(i%5), itemset.Item(5+i%7), itemset.Item(12+i%6),
			itemset.Item(18+i%4), itemset.Item(22+i%3),
		)
		d.Append(int64(i), items)
	}
	straight, err := Mine(d, Options{MinSupport: 0.05, ShortCircuit: true})
	if err != nil {
		t.Fatal(err)
	}
	batched, err := Mine(d, Options{MinSupport: 0.05, ShortCircuit: true, MaxCandidatesInMemory: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(batched.ByK, straight.ByK) {
		t.Error("batched result differs from unbatched")
	}
	saw := false
	for _, it := range batched.Iters {
		if it.Batches > 1 {
			saw = true
		}
		if it.Batches < 1 {
			t.Errorf("k=%d: Batches = %d, want >= 1", it.K, it.Batches)
		}
	}
	if !saw {
		t.Error("budget of 5 candidates never produced multiple batches")
	}
}
