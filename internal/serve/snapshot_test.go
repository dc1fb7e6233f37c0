package serve

import (
	"reflect"
	"runtime"
	"testing"

	"repro/internal/apriori"
	"repro/internal/gen"
	"repro/internal/itemset"
	"repro/internal/rules"
)

// appendIndex is the per-item rule index built the straightforward way,
// each item's list grown by append: the reference ruleIndex must equal.
func appendIndex(rs []rules.Rule) map[itemset.Item][]int32 {
	byItem := make(map[itemset.Item][]int32)
	for i, r := range rs {
		for _, it := range r.Antecedent {
			byItem[it] = append(byItem[it], int32(i))
		}
		for _, it := range r.Consequent {
			byItem[it] = append(byItem[it], int32(i))
		}
	}
	return byItem
}

// TestRuleIndexArena: on a seeded dense rule set the arena-carved index
// equals the append-built one, so every QueryRules answer is unchanged,
// and building it allocates a handful of objects (the count map, the
// index map and one arena) and about the arena's bytes, however many rules
// name each item.
func TestRuleIndexArena(t *testing.T) {
	d, err := gen.Generate(gen.Params{N: 60, L: 30, T: 12, I: 4, D: 3000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := apriori.Mine(d, apriori.Options{MinSupport: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	rs := rules.GenerateFast(res, rules.Options{MinConfidence: 0.5, DBSize: int64(d.Len())})
	want := appendIndex(rs)
	if len(want) < 20 || len(rs) < 1000 {
		t.Fatalf("%d rules over %d items: the seeded snapshot is too small to exercise the index", len(rs), len(want))
	}
	got := ruleIndex(rs)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("arena-built rule index differs from the append-built one")
	}
	snap := &Snapshot{Rules: rs, byItem: got}
	for it := range want {
		var ref []rules.Rule
		for _, idx := range want[it] {
			if !rules.MeetsConfidence(rs[idx].Confidence, 0.7) {
				break
			}
			ref = append(ref, rs[idx])
		}
		if q := snap.QueryRules(0.7, int64(it), 0); len(q) != len(ref) || len(q) > 0 && !reflect.DeepEqual(q, ref) {
			t.Fatalf("QueryRules(item %d) = %d rules, want %d", it, len(q), len(ref))
		}
	}

	var entries int
	for _, l := range want {
		entries += len(l)
	}
	allocs := testing.AllocsPerRun(5, func() { ruleIndex(rs) })
	// TotalAlloc is process-wide: the least of three builds keeps a
	// stray allocation elsewhere out of the figure.
	bytes := ^uint64(0)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		ruleIndex(rs)
		runtime.ReadMemStats(&after)
		bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
	}
	t.Logf("%d rules, %d items, %d entries: %.0f allocs, %d bytes", len(rs), len(want), entries, allocs, bytes)
	if allocs > 16 {
		t.Errorf("ruleIndex: %.0f allocs for %d items, want at most 16", allocs, len(want))
	}
	if arena := uint64(4 * entries); bytes > arena+arena/4+32<<10 {
		t.Errorf("ruleIndex allocated %d bytes for a %d-byte arena", bytes, arena)
	}
}
