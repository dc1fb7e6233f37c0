package rules

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/apriori"
	"repro/internal/db"
	"repro/internal/gen"
	"repro/internal/itemset"
)

// assertSameRules compares two rule lists for bit-identity: same rules, same
// order, same scores. The shared sortRules total order makes element-wise
// DeepEqual meaningful.
func assertSameRules(t *testing.T, label string, slow, fast []Rule) {
	t.Helper()
	if len(slow) != len(fast) {
		t.Fatalf("%s: the oracle emits %d rules, GenerateFast %d", label, len(slow), len(fast))
	}
	for i := range slow {
		if !reflect.DeepEqual(slow[i], fast[i]) {
			t.Fatalf("%s: rule %d differs:\n  oracle:       %+v (frac %v lift %v)\n  GenerateFast: %+v (frac %v lift %v)",
				label, i, slow[i], slow[i].SupportFrac, slow[i].Lift, fast[i], fast[i].SupportFrac, fast[i].Lift)
		}
	}
}

// TestGenerateVsFastOnGenWorkloads is the differential property test: over
// seeded Quest workloads (uniform, dense, skewed), every combination of
// confidence threshold, MaxConsequent bound and DBSize must yield
// bit-identical rule lists — same rules, same scores, same deterministic
// order — from the brute-force 2^k-subset oracle and GenerateFast's
// ap-genrules consequent growth.
func TestGenerateVsFastOnGenWorkloads(t *testing.T) {
	workloads := []struct {
		p       gen.Params
		support float64
	}{
		{gen.Params{T: 8, I: 4, D: 400, Seed: 7}, 0.02},
		{gen.Params{T: 12, I: 6, D: 200, N: 80, L: 40, Seed: 11}, 0.06},              // dense: long itemsets, deep rules
		{gen.Params{T: 6, I: 3, D: 500, Seed: 3, SkewFrac: 0.05, SkewMult: 6}, 0.02}, // planted heavy tail
	}
	for wi, w := range workloads {
		d, err := gen.Generate(w.p)
		if err != nil {
			t.Fatal(err)
		}
		res, err := apriori.Mine(d, apriori.Options{MinSupport: w.support, ShortCircuit: true})
		if err != nil {
			t.Fatal(err)
		}
		for _, conf := range []float64{0, 0.5, 0.75, 0.9, 1.0} {
			for _, maxC := range []int{0, 1, 2} {
				for _, dbSize := range []int64{0, int64(d.Len())} {
					opts := Options{MinConfidence: conf, MaxConsequent: maxC, DBSize: dbSize}
					label := fmt.Sprintf("w%d conf=%g maxc=%d dbsize=%d", wi, conf, maxC, dbSize)
					assertSameRules(t, label, bruteForce(res, opts), GenerateFast(res, opts))
				}
			}
		}
	}
}

// TestGenerateVsFastBoundaryConfidence pins the shared epsilon: rules whose
// confidence is exactly the threshold (3/4 against 0.75, 2/3 against the
// nearest float to 2/3) must be kept by both the oracle and GenerateFast,
// and a threshold one ulp above must drop them from both. A divergence here
// means the two no longer share MeetsConfidence's epsilon.
func TestGenerateVsFastBoundaryConfidence(t *testing.T) {
	// support({1}) = 4, support({1,2}) = 3 → conf(1⇒2) = 0.75 exactly.
	// support({3}) = 3, support({3,4}) = 2 → conf(3⇒4) = 2/3 (inexact).
	d := db.New(6)
	d.Append(1, itemset.New(1, 2, 3, 4))
	d.Append(2, itemset.New(1, 2, 3, 4))
	d.Append(3, itemset.New(1, 2, 3))
	d.Append(4, itemset.New(1, 5))
	res, err := apriori.Mine(d, apriori.Options{AbsSupport: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, conf := range []float64{0.75, 2.0 / 3.0, 0.6666666666666667, 1.0} {
		opts := Options{MinConfidence: conf, DBSize: int64(d.Len())}
		slow, fast := bruteForce(res, opts), GenerateFast(res, opts)
		assertSameRules(t, fmt.Sprintf("conf=%v", conf), slow, fast)
		for _, r := range slow {
			if !MeetsConfidence(r.Confidence, conf) {
				t.Errorf("conf=%v: emitted rule below threshold: %v", conf, r)
			}
		}
	}
	// The exact-boundary rule must survive its own threshold.
	rs := GenerateFast(res, Options{MinConfidence: 0.75})
	if findRule(rs, itemset.New(1), itemset.New(2)) == nil {
		t.Error("conf-0.75 rule 1⇒2 dropped at threshold 0.75 (epsilon regression)")
	}
}

// FuzzGenerateVsFast feeds arbitrary small transaction databases through
// GenerateFast and the oracle. The input encoding: bytes are consumed two at a time as
// (transaction id, item) with item folded into a small universe, so short
// random inputs produce overlapping baskets and real rules.
func FuzzGenerateVsFast(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 1, 1, 1, 2, 2, 1, 3, 3}, 0.5, uint8(0))
	f.Add([]byte{0, 1, 0, 2, 0, 3, 1, 1, 1, 2, 1, 3, 2, 1, 2, 2}, 0.75, uint8(1))
	f.Add([]byte{5, 5, 5, 6, 6, 5, 6, 6, 7, 5, 7, 6, 7, 7}, 1.0, uint8(2))
	f.Fuzz(func(t *testing.T, raw []byte, conf float64, maxC uint8) {
		if len(raw) < 4 || len(raw) > 256 {
			return
		}
		if conf < 0 || conf > 1 || conf != conf {
			return
		}
		// Group items by transaction id (mod 16), fold items into [0, 8).
		byTx := map[int][]itemset.Item{}
		for i := 0; i+1 < len(raw); i += 2 {
			byTx[int(raw[i]%16)] = append(byTx[int(raw[i]%16)], itemset.Item(raw[i+1]%8))
		}
		d := db.New(8)
		tid := int64(0)
		for txi := 0; txi < 16; txi++ {
			items := byTx[txi]
			if len(items) == 0 {
				continue
			}
			d.Append(tid, itemset.New(items...)) // New sorts and dedups
			tid++
		}
		if d.Len() == 0 {
			return
		}
		res, err := apriori.Mine(d, apriori.Options{AbsSupport: 1})
		if err != nil {
			t.Fatal(err)
		}
		opts := Options{MinConfidence: conf, MaxConsequent: int(maxC % 4), DBSize: int64(d.Len())}
		assertSameRules(t, "fuzz", bruteForce(res, opts), GenerateFast(res, opts))
	})
}
