package armine

import (
	"path/filepath"
	"reflect"
	"testing"
)

// TestPublicAPIEndToEnd walks the full public surface the way a downstream
// user would: generate → persist → reload → mine (3 ways) → rules → study.
func TestPublicAPIEndToEnd(t *testing.T) {
	d, err := Generate(GenParams{T: 8, I: 3, D: 800, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "data.ardb")
	if err := d.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadDatabase(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != d.Len() {
		t.Fatalf("reload: %d vs %d", loaded.Len(), d.Len())
	}

	seq, err := MineSequential(loaded, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	par, stats, err := MineParallel(loaded, 0.01, 3)
	if err != nil {
		t.Fatal(err)
	}
	if seq.NumFrequent() != par.NumFrequent() {
		t.Fatalf("seq %d vs par %d", seq.NumFrequent(), par.NumFrequent())
	}
	if stats.Total <= 0 {
		t.Error("no parallel timing")
	}
	pccd, _, err := MinePCCD(loaded, ParallelOptions{
		Options: MiningOptions{MinSupport: 0.01}, Procs: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if pccd.NumFrequent() != seq.NumFrequent() {
		t.Fatalf("pccd %d vs seq %d", pccd.NumFrequent(), seq.NumFrequent())
	}

	rules := GenerateRules(seq, RuleOptions{MinConfidence: 0.6, DBSize: int64(loaded.Len())})
	for _, r := range rules {
		if r.Confidence < 0.6-1e-9 {
			t.Errorf("rule below threshold: %v", r)
		}
	}

	study, err := RunPlacementStudy(loaded, StudyOptions{
		Mining:     MiningOptions{MinSupport: 0.01, Hash: HashBitonic, ShortCircuit: true},
		Procs:      2,
		Policies:   []Policy{PolicyCCPD, PolicySPP, PolicyLCAGPP},
		MaxTraceTx: 40,
	})
	if err != nil {
		t.Fatal(err)
	}
	if study.ByPolicy(PolicySPP) == nil {
		t.Fatal("study missing SPP row")
	}
	if n := study.ByPolicy(PolicySPP).Normalized; n <= 0 || n >= 1.1 {
		t.Errorf("SPP normalized time out of range: %f", n)
	}
}

// TestExtensionAPIs drives the Section 7/8 re-exports end to end.
func TestExtensionAPIs(t *testing.T) {
	// Sequences.
	seqs, _, err := GenerateSequences(SequenceGenParams{C: 200, SeqLen: 8, NP: 5, PatLen: 3, N: 40, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	sres, err := MineSequences(seqs, SequenceOptions{MinSupport: 0.05, Procs: 2, Hash: SeqHashBitonic})
	if err != nil {
		t.Fatal(err)
	}
	if sres.NumPatterns() == 0 {
		t.Error("no sequential patterns")
	}

	// Taxonomy.
	tax, err := GenerateTaxonomy(TaxonomyGenParams{NumLeaves: 40, Fanout: 4, Levels: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	d, err := Generate(GenParams{N: 40, L: 10, T: 5, I: 2, D: 400, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	tres, err := MineGeneralized(d, tax, TaxonomyOptions{Mining: MiningOptions{MinSupport: 0.05}})
	if err != nil {
		t.Fatal(err)
	}
	if tres.NumFrequent() == 0 {
		t.Error("no generalized itemsets")
	}

	// Quantitative.
	vals := make([]float64, 300)
	for i := range vals {
		vals[i] = float64(i % 50)
	}
	qres, err := MineQuantitative(&QuantTable{Cols: []QuantColumn{
		{Name: "x", Kind: Numeric, Values: vals},
	}}, QuantOptions{Intervals: 4, Mining: MiningOptions{MinSupport: 0.1}})
	if err != nil {
		t.Fatal(err)
	}
	if len(qres.Frequent(1)) == 0 {
		t.Error("no quantitative itemsets")
	}

	// Eclat agrees with Apriori.
	aRes, err := Mine(d, MiningOptions{MinSupport: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	eRes, err := MineEclat(d, EclatOptions{MinSupport: 0.05, Procs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if aRes.NumFrequent() != eRes.NumFrequent() {
		t.Errorf("eclat %d vs apriori %d", eRes.NumFrequent(), aRes.NumFrequent())
	}

	// Maximal extraction; GenerateRulesFast is an alias of GenerateRules.
	if len(aRes.Maximal()) == 0 && aRes.NumFrequent() > 0 {
		t.Error("no maximal itemsets")
	}
	rs := GenerateRules(aRes, RuleOptions{MinConfidence: 0.5})
	if alias := GenerateRulesFast(aRes, RuleOptions{MinConfidence: 0.5}); !reflect.DeepEqual(rs, alias) {
		t.Errorf("GenerateRulesFast returned %d rules, GenerateRules %d, or a different list", len(alias), len(rs))
	}

	// Sampling evaluation.
	acc, _, err := EvaluateSampling(d, SamplingOptions{
		Fraction: 0.5, Mining: MiningOptions{MinSupport: 0.05}, Seed: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if acc.Recall() < 0.5 {
		t.Errorf("sampling recall %.2f implausibly low", acc.Recall())
	}
}

func TestPublicConstants(t *testing.T) {
	// AllPolicies is the Fig. 13 x-axis: 7 policies (LPP itself appears
	// only in the single-processor Fig. 12 comparison).
	if len(AllPolicies) != 7 {
		t.Errorf("AllPolicies = %d", len(AllPolicies))
	}
	if PolicyLCAGPP.String() != "LCA-GPP" {
		t.Error("policy re-export broken")
	}
	s := NewItemset(3, 1, 2)
	if !s.Equal(NewItemset(1, 2, 3)) {
		t.Error("NewItemset re-export broken")
	}
	cfg := DefaultCacheConfig(4)
	if cfg.Procs != 4 || cfg.LineSize == 0 {
		t.Errorf("cache config: %+v", cfg)
	}
}
