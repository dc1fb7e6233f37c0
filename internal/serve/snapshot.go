package serve

import (
	"math"
	"time"

	"repro/internal/apriori"
	"repro/internal/db"
	"repro/internal/itemset"
	"repro/internal/rules"
)

// Snapshot is one published mining generation: a frozen mining result, its
// pre-generated rule list, and a per-item query index. Snapshots are
// immutable after newSnapshot returns — handlers read them lock-free behind
// the server's atomic pointer, so nothing here may ever be mutated.
type Snapshot struct {
	// Generation counts publishes, starting at 1.
	Generation int64
	// DBLen is the transaction-prefix length this snapshot covers: queries
	// trail ingestion by exactly (live length − DBLen) transactions.
	//
	//armlint:wide
	DBLen int64
	// NumItems is the item-universe bound observed in the prefix.
	NumItems int
	// Engine names the registry engine the planner (or pin) chose.
	Engine string
	// MinedAt and Wall record when and how long the mine ran.
	MinedAt time.Time
	Wall    time.Duration

	// Result is the frozen frequent-itemset lattice.
	Result *apriori.Result
	// Rules is the pre-generated rule list in the deterministic sortRules
	// order (confidence desc, support desc, antecedent, consequent), so
	// every query slices a prefix-consistent ranking.
	Rules []rules.Rule

	// byItem maps each item to the indices (ascending, hence still in rule
	// order) of rules containing it in antecedent or consequent — the
	// /rules?item= filter without an O(|Rules|) scan per query.
	byItem map[itemset.Item][]int32
}

// newSnapshot freezes a mining result into a publishable snapshot.
func newSnapshot(gen int64, view *db.Database, engineName string, res *apriori.Result, rs []rules.Rule, wall time.Duration) *Snapshot {
	return &Snapshot{
		Generation: gen,
		DBLen:      int64(view.Len()),
		NumItems:   view.NumItems(),
		Engine:     engineName,
		MinedAt:    time.Now(),
		Wall:       wall,
		Result:     res,
		Rules:      rs,
		byItem:     ruleIndex(rs),
	}
}

// ruleIndex maps each item to the ascending indices of the rules naming it.
// It counts first and carves every item's list from one arena: lists grown
// by append allocated about four times the index's final size per publish.
func ruleIndex(rs []rules.Rule) map[itemset.Item][]int32 {
	counts := make(map[itemset.Item]int)
	var total int
	for _, r := range rs {
		for _, it := range r.Antecedent {
			counts[it]++
		}
		for _, it := range r.Consequent {
			counts[it]++
		}
		total += len(r.Antecedent) + len(r.Consequent)
	}
	arena := make([]int32, total)
	byItem := make(map[itemset.Item][]int32, len(counts))
	var off int
	for it, n := range counts {
		byItem[it] = arena[off : off : off+n]
		off += n
	}
	for i, r := range rs {
		// Antecedent and consequent are disjoint, so no dedup needed; the
		// appends fill each list's carved capacity and never reallocate.
		for _, it := range r.Antecedent {
			byItem[it] = append(byItem[it], int32(i))
		}
		for _, it := range r.Consequent {
			byItem[it] = append(byItem[it], int32(i))
		}
	}
	return byItem
}

// QueryRules returns up to limit rules at or above minConf, optionally
// restricted to rules mentioning item (item < 0 means no filter; an item
// past the int32 id range matches no rule rather than wrapping). The
// pre-sorted rule list makes the confidence cut a prefix: iteration stops
// at the first rule below threshold. The returned slice is freshly
// allocated; the rules it holds alias the immutable snapshot.
func (s *Snapshot) QueryRules(minConf float64, item int64, limit int) []rules.Rule {
	if limit <= 0 {
		limit = len(s.Rules)
	}
	out := []rules.Rule{}
	if item > math.MaxInt32 {
		return out
	}
	if item >= 0 {
		for _, idx := range s.byItem[itemset.Item(item)] {
			r := s.Rules[idx]
			if !rules.MeetsConfidence(r.Confidence, minConf) {
				break // indices ascend, rules sorted by confidence desc
			}
			out = append(out, r)
			if len(out) >= limit {
				break
			}
		}
		return out
	}
	for _, r := range s.Rules {
		if !rules.MeetsConfidence(r.Confidence, minConf) {
			break
		}
		out = append(out, r)
		if len(out) >= limit {
			break
		}
	}
	return out
}

// QueryItemsets returns up to limit frequent k-itemsets (all sizes when
// k <= 0), in the result's canonical lexicographic-by-level order.
func (s *Snapshot) QueryItemsets(k, limit int) []apriori.FrequentItemset {
	if limit <= 0 {
		limit = 1 << 20
	}
	out := []apriori.FrequentItemset{}
	if k > 0 {
		if k >= len(s.Result.ByK) {
			return out
		}
		fk := s.Result.ByK[k]
		if len(fk) > limit {
			fk = fk[:limit]
		}
		return append(out, fk...)
	}
	for _, fk := range s.Result.ByK {
		for _, f := range fk {
			if len(out) >= limit {
				return out
			}
			out = append(out, f)
		}
	}
	return out
}
