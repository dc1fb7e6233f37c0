package rules

import (
	"repro/internal/apriori"
	"repro/internal/itemset"
)

// bruteForce is the reference GenerateFast is tested against: for every
// frequent itemset X (|X| ≥ 2) and every non-empty proper subset Y ⊂ X up
// to the consequent bound, it evaluates X−Y ⇒ Y against a string-keyed
// support map — the 2^k enumeration with none of GenerateFast's pruning,
// indexing or memory reuse. It shares only MeetsConfidence and sortRules
// with the production generator.
func bruteForce(res *apriori.Result, opts Options) []Rule {
	sup := make(map[string]int64)
	for _, f := range res.All() {
		sup[f.Items.Key()] = f.Count
	}
	var out []Rule
	for k := 2; k < len(res.ByK); k++ {
		for _, f := range res.ByK[k] {
			x := f.Items
			// Enumerate consequent sizes 1..k-1 (bounded).
			maxC := k - 1
			if opts.MaxConsequent > 0 && opts.MaxConsequent < maxC {
				maxC = opts.MaxConsequent
			}
			for cs := 1; cs <= maxC; cs++ {
				x.ForEachSubset(cs, func(y itemset.Itemset) bool {
					if r, ok := bruteEval(sup, x, f.Count, y, opts); ok {
						out = append(out, r)
					}
					return true
				})
			}
		}
	}
	sortRules(out)
	return out
}

// bruteEval scores the candidate rule (x−y) ⇒ y against the support map:
// confidence from the antecedent's support, and — when DBSize is known —
// the support fraction and lift. ok=false when the rule fails the
// confidence threshold or the antecedent is missing from the map.
func bruteEval(sup map[string]int64, x itemset.Itemset, xCount int64, y itemset.Itemset, opts Options) (Rule, bool) {
	ante := x.Minus(y)
	anteSup, ok := sup[ante.Key()]
	if !ok || anteSup == 0 {
		return Rule{}, false
	}
	conf := float64(xCount) / float64(anteSup)
	if !MeetsConfidence(conf, opts.MinConfidence) {
		return Rule{}, false
	}
	r := Rule{
		Antecedent: ante,
		Consequent: y.Clone(),
		Support:    xCount,
		Confidence: conf,
	}
	if opts.DBSize > 0 {
		r.SupportFrac = float64(xCount) / float64(opts.DBSize)
		if cSup, ok := sup[y.Key()]; ok && cSup > 0 {
			r.Lift = conf / (float64(cSup) / float64(opts.DBSize))
		}
	}
	return r, true
}
