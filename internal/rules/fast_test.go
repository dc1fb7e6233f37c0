package rules

import (
	"math/rand"
	"testing"

	"repro/internal/apriori"
	"repro/internal/gen"
)

// ruleKey identifies a rule by antecedent/consequent.
func ruleKey(r Rule) string {
	return r.Antecedent.Key() + "=>" + r.Consequent.Key()
}

// TestGenerateFastMatchesGenerate checks GenerateFast against the
// brute-force oracle rule by rule, over seeded Quest workloads and a range
// of confidence thresholds.
func TestGenerateFastMatchesGenerate(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 5; trial++ {
		d, err := gen.Generate(gen.Params{
			N: 40, L: 12, I: 3, T: 7, D: 300, Seed: rng.Int63(),
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := apriori.Mine(d, apriori.Options{MinSupport: 0.03})
		if err != nil {
			t.Fatal(err)
		}
		for _, conf := range []float64{0, 0.5, 0.8, 0.95} {
			opts := Options{MinConfidence: conf, DBSize: int64(d.Len())}
			slow := bruteForce(res, opts)
			fast := GenerateFast(res, opts)
			if len(slow) != len(fast) {
				t.Fatalf("trial %d conf %.2f: %d rules vs %d", trial, conf, len(slow), len(fast))
			}
			sm := map[string]Rule{}
			for _, r := range slow {
				sm[ruleKey(r)] = r
			}
			for _, r := range fast {
				ref, ok := sm[ruleKey(r)]
				if !ok {
					t.Fatalf("trial %d: fast-only rule %v", trial, r)
				}
				if ref.Confidence != r.Confidence || ref.Support != r.Support || ref.Lift != r.Lift {
					t.Fatalf("trial %d: rule %v metrics differ: %+v vs %+v", trial, ruleKey(r), ref, r)
				}
			}
		}
	}
}

func TestGenerateFastMaxConsequent(t *testing.T) {
	res := exampleResult(t)
	for _, maxC := range []int{1, 2} {
		opts := Options{MinConfidence: 0, MaxConsequent: maxC}
		slow := bruteForce(res, opts)
		fast := GenerateFast(res, opts)
		if len(slow) != len(fast) {
			t.Fatalf("maxC=%d: %d vs %d rules", maxC, len(slow), len(fast))
		}
		for _, r := range fast {
			if r.Consequent.K() > maxC {
				t.Fatalf("consequent too big: %v", r)
			}
		}
	}
}

func TestGenerateFastEmpty(t *testing.T) {
	res := &apriori.Result{ByK: make([][]apriori.FrequentItemset, 2)}
	if rs := GenerateFast(res, Options{}); len(rs) != 0 {
		t.Errorf("empty result generated %d rules", len(rs))
	}
}

func TestGenerateFastSorted(t *testing.T) {
	res := exampleResult(t)
	rs := GenerateFast(res, Options{MinConfidence: 0})
	for i := 1; i < len(rs); i++ {
		if rs[i-1].Confidence < rs[i].Confidence-1e-12 {
			t.Fatalf("not sorted at %d", i)
		}
	}
}

// TestGenerateFastAllocs gates the allocation-free candidate path: on a
// result with more than 10K rules, GenerateFast makes about 100
// allocations in all — the support index, the rule list's growth, the
// arena chunks and the consequent scratch — however many candidates it
// scores.
func TestGenerateFastAllocs(t *testing.T) {
	d, err := gen.Generate(gen.Params{N: 60, L: 30, T: 12, I: 4, D: 2000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := apriori.Mine(d, apriori.Options{MinSupport: 0.04})
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{MinConfidence: 0.8, DBSize: int64(d.Len())}
	var n int
	allocs := testing.AllocsPerRun(3, func() { n = len(GenerateFast(res, opts)) })
	if n < 10000 {
		t.Fatalf("workload yields %d rules, the gate needs at least 10K", n)
	}
	if allocs > 100 {
		t.Errorf("GenerateFast: %.0f allocs for %d rules, want at most 100", allocs, n)
	}
}
