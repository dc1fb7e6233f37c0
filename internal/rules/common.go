package rules

import "sort"

// confEpsilon absorbs float rounding at the confidence threshold: a rule
// whose exact confidence equals MinConfidence must pass even when the
// division lands an ulp low (support ratios like 3/4 vs a 0.75 threshold).
// GenerateFast and the brute-force oracle of its tests share this constant
// through MeetsConfidence, so the two can never diverge on boundary rules.
const confEpsilon = 1e-12

// MeetsConfidence reports whether a computed confidence passes the
// threshold, with the shared epsilon applied. Exported so downstream
// consumers of pre-generated rule lists (the armined query index) cut off
// at exactly the same boundary the generator used.
func MeetsConfidence(conf, min float64) bool {
	return conf+confEpsilon >= min
}

// sortRules orders a rule list deterministically: descending confidence,
// then descending support, then antecedent, then consequent. The final
// consequent tiebreak makes the comparator a total order — two distinct
// rules never compare equal (an (antecedent, consequent) pair is unique) —
// so the output is byte-identical whatever order the rules were
// discovered in.
func sortRules(out []Rule) {
	sort.Slice(out, func(i, j int) bool {
		if out[i].Confidence != out[j].Confidence {
			return out[i].Confidence > out[j].Confidence
		}
		if out[i].Support != out[j].Support {
			return out[i].Support > out[j].Support
		}
		if c := out[i].Antecedent.Compare(out[j].Antecedent); c != 0 {
			return c < 0
		}
		return out[i].Consequent.Less(out[j].Consequent)
	})
}
