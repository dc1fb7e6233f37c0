package rules

import (
	"math"
	"strings"
	"testing"

	"repro/internal/apriori"
	"repro/internal/db"
	"repro/internal/gen"
	"repro/internal/itemset"
)

func exampleResult(t *testing.T) *apriori.Result {
	t.Helper()
	d := db.New(6)
	d.Append(1, itemset.New(1, 4, 5))
	d.Append(2, itemset.New(1, 2))
	d.Append(3, itemset.New(3, 4, 5))
	d.Append(4, itemset.New(1, 2, 4, 5))
	res, err := apriori.Mine(d, apriori.Options{AbsSupport: 2})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func findRule(rs []Rule, ante, cons itemset.Itemset) *Rule {
	for i := range rs {
		if rs[i].Antecedent.Equal(ante) && rs[i].Consequent.Equal(cons) {
			return &rs[i]
		}
	}
	return nil
}

func TestGenerateFromExample(t *testing.T) {
	res := exampleResult(t)
	rs := GenerateFast(res, Options{MinConfidence: 0, DBSize: 4})
	// 4 ⇒ 5: support(45)=3, support(4)=3 → confidence 1.0.
	r := findRule(rs, itemset.New(4), itemset.New(5))
	if r == nil {
		t.Fatal("rule 4⇒5 missing")
	}
	if math.Abs(r.Confidence-1.0) > 1e-9 || r.Support != 3 {
		t.Errorf("4⇒5 = %+v", *r)
	}
	// 1 ⇒ 2: support(12)=2, support(1)=3 → confidence 2/3.
	r = findRule(rs, itemset.New(1), itemset.New(2))
	if r == nil {
		t.Fatal("rule 1⇒2 missing")
	}
	if math.Abs(r.Confidence-2.0/3) > 1e-9 {
		t.Errorf("1⇒2 confidence = %f", r.Confidence)
	}
	// From F3={145}: rules like 14⇒5, 1⇒45 etc must exist.
	if findRule(rs, itemset.New(1, 4), itemset.New(5)) == nil {
		t.Error("rule 14⇒5 missing")
	}
	if findRule(rs, itemset.New(1), itemset.New(4, 5)) == nil {
		t.Error("rule 1⇒45 missing")
	}
}

func TestConfidenceThreshold(t *testing.T) {
	res := exampleResult(t)
	all := GenerateFast(res, Options{MinConfidence: 0})
	strict := GenerateFast(res, Options{MinConfidence: 0.9})
	if len(strict) >= len(all) {
		t.Errorf("threshold did not filter: %d vs %d", len(strict), len(all))
	}
	for _, r := range strict {
		if r.Confidence < 0.9-1e-9 {
			t.Errorf("rule below threshold survived: %+v", r)
		}
	}
}

func TestRulesSortedByConfidence(t *testing.T) {
	res := exampleResult(t)
	rs := GenerateFast(res, Options{MinConfidence: 0})
	for i := 1; i < len(rs); i++ {
		if rs[i-1].Confidence < rs[i].Confidence-1e-12 {
			t.Fatalf("rules not sorted at %d", i)
		}
	}
}

func TestAntecedentConsequentDisjointAndComplete(t *testing.T) {
	res := exampleResult(t)
	rs := GenerateFast(res, Options{MinConfidence: 0})
	for _, r := range rs {
		if r.Antecedent.Intersect(r.Consequent).K() != 0 {
			t.Errorf("overlapping rule %v", r)
		}
		x := r.Antecedent.Union(r.Consequent)
		if res.SupportOf(x) != r.Support {
			t.Errorf("support mismatch for %v: rule %d vs result %d", r, r.Support, res.SupportOf(x))
		}
		if r.Antecedent.K() == 0 || r.Consequent.K() == 0 {
			t.Errorf("degenerate rule %v", r)
		}
	}
}

func TestLiftComputation(t *testing.T) {
	res := exampleResult(t)
	rs := GenerateFast(res, Options{MinConfidence: 0, DBSize: 4})
	r := findRule(rs, itemset.New(4), itemset.New(5))
	// conf(4⇒5)=1.0; supFrac(5)=3/4 → lift 4/3.
	if math.Abs(r.Lift-4.0/3) > 1e-9 {
		t.Errorf("lift = %f, want %f", r.Lift, 4.0/3)
	}
	if math.Abs(r.SupportFrac-0.75) > 1e-9 {
		t.Errorf("supportFrac = %f", r.SupportFrac)
	}
	// Without DBSize lift stays zero.
	rs0 := GenerateFast(res, Options{MinConfidence: 0})
	if findRule(rs0, itemset.New(4), itemset.New(5)).Lift != 0 {
		t.Error("lift computed without DBSize")
	}
}

func TestMaxConsequent(t *testing.T) {
	res := exampleResult(t)
	rs := GenerateFast(res, Options{MinConfidence: 0, MaxConsequent: 1})
	for _, r := range rs {
		if r.Consequent.K() > 1 {
			t.Errorf("consequent too large: %v", r)
		}
	}
}

func TestRuleString(t *testing.T) {
	r := Rule{
		Antecedent: itemset.New(1), Consequent: itemset.New(2),
		Support: 5, Confidence: 0.5,
	}
	s := r.String()
	if !strings.Contains(s, "=>") || !strings.Contains(s, "0.500") {
		t.Errorf("String = %q", s)
	}
}

func TestGenerateOnSyntheticData(t *testing.T) {
	d, err := gen.Generate(gen.Params{N: 60, L: 15, I: 4, T: 8, D: 500, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	res, err := apriori.Mine(d, apriori.Options{MinSupport: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	rs := GenerateFast(res, Options{MinConfidence: 0.5, DBSize: int64(d.Len())})
	// Verify each rule's confidence against raw data.
	for _, r := range rs[:min(len(rs), 30)] {
		x := r.Antecedent.Union(r.Consequent)
		var supX, supA int64
		for i := 0; i < d.Len(); i++ {
			items := d.Items(i)
			if items.Contains(x) {
				supX++
			}
			if items.Contains(r.Antecedent) {
				supA++
			}
		}
		if supX != r.Support {
			t.Errorf("rule %v support %d, raw %d", r, r.Support, supX)
		}
		if math.Abs(r.Confidence-float64(supX)/float64(supA)) > 1e-9 {
			t.Errorf("rule %v confidence mismatch", r)
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestEmptyResult(t *testing.T) {
	res := &apriori.Result{ByK: make([][]apriori.FrequentItemset, 2)}
	if rs := GenerateFast(res, Options{}); len(rs) != 0 {
		t.Errorf("empty result generated %d rules", len(rs))
	}
}
