// Benchmarks regenerating every table and figure of the paper's evaluation
// (one benchmark per table/figure; see DESIGN.md's experiment index) plus
// ablation benches for the design choices. Figure benches drive the same
// runners as cmd/experiments at a reduced scale and report wall-clock per
// full regeneration; ablations isolate a single mechanism.
package armine

import (
	"io"
	"testing"

	"repro/internal/apriori"
	"repro/internal/baseline"
	"repro/internal/ccpd"
	"repro/internal/db"
	"repro/internal/eclat"
	"repro/internal/expt"
	"repro/internal/gen"
	"repro/internal/hashtree"
	"repro/internal/itemset"
	"repro/internal/mem"
	"repro/internal/quant"
	"repro/internal/rules"
	"repro/internal/seqpat"
	"repro/internal/taxonomy"
	"repro/internal/vbit"
)

// benchScale keeps each figure regeneration around a second.
const benchScale = 0.004

func benchRunner() *expt.Runner {
	r := expt.NewRunner(benchScale)
	r.Procs = []int{1, 2, 4, 8}
	r.MaxTraceTx = 100
	return r
}

func benchDB(b *testing.B, t, i, d int) *db.Database {
	b.Helper()
	out, err := gen.Generate(gen.Params{T: t, I: i, D: d, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	return out
}

// BenchmarkGen measures synthetic database generation (Table 2 substrate).
func BenchmarkGen(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := gen.Generate(gen.Params{T: 10, I: 4, D: 5000, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2Properties regenerates the database-properties table.
func BenchmarkTable2Properties(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := benchRunner()
		if err := r.Table2(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig06TreeSize regenerates the hash-tree-size-per-iteration series.
func BenchmarkFig06TreeSize(b *testing.B) {
	r := benchRunner()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := r.Figure6(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig07Frequent regenerates the frequent-itemsets-per-iteration series.
func BenchmarkFig07Frequent(b *testing.B) {
	r := benchRunner()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := r.Figure7(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig08Balancing regenerates the COMP/TREE/COMP-TREE improvements.
func BenchmarkFig08Balancing(b *testing.B) {
	r := benchRunner()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := r.Figure8(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig09ShortCircuit regenerates the short-circuit improvements.
func BenchmarkFig09ShortCircuit(b *testing.B) {
	r := benchRunner()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := r.Figure9(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig10PerIteration regenerates the per-iteration improvement series.
func BenchmarkFig10PerIteration(b *testing.B) {
	r := benchRunner()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := r.Figure10(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig11Speedup regenerates the CCPD speed-up curves.
func BenchmarkFig11Speedup(b *testing.B) {
	r := benchRunner()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := r.Figure11(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig12Placement1P regenerates the single-processor placement study.
func BenchmarkFig12Placement1P(b *testing.B) {
	r := benchRunner()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := r.Figure12(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig13PlacementMP regenerates the multi-processor placement study.
func BenchmarkFig13PlacementMP(b *testing.B) {
	r := benchRunner()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := r.Figure13(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation benches (design choices called out in DESIGN.md) ---

// BenchmarkAblationCounters compares the counter update modes under
// concurrent counting.
func BenchmarkAblationCounters(b *testing.B) {
	d := benchDB(b, 10, 4, 2000)
	for _, mode := range []hashtree.CounterMode{
		hashtree.CounterLocked, hashtree.CounterAtomic, hashtree.CounterPrivate,
	} {
		b.Run(mode.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, _, err := ccpd.Mine(d, ccpd.Options{
					Options: apriori.Options{AbsSupport: 10, ShortCircuit: true},
					Procs:   4, Counter: mode,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationFanout compares fixed fan-outs against the adaptive rule.
func BenchmarkAblationFanout(b *testing.B) {
	d := benchDB(b, 10, 4, 2000)
	for _, fan := range []int{0, 2, 8, 32, 128} { // 0 = adaptive
		name := "adaptive"
		if fan > 0 {
			name = "H" + itoa(fan)
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, err := apriori.Mine(d, apriori.Options{
					AbsSupport: 10, Fanout: fan, ShortCircuit: true,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationVisited compares counting with and without the
// short-circuit VISITED optimization on a wide-transaction workload.
func BenchmarkAblationVisited(b *testing.B) {
	d := benchDB(b, 20, 6, 1500)
	for _, sc := range []bool{false, true} {
		name := "base"
		if sc {
			name = "shortcircuit"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, err := apriori.Mine(d, apriori.Options{AbsSupport: 8, ShortCircuit: sc})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationJoin compares the equivalence-class join against the
// naive all-pairs join.
func BenchmarkAblationJoin(b *testing.B) {
	d := benchDB(b, 10, 4, 2000)
	res, err := apriori.Mine(d, apriori.Options{AbsSupport: 10})
	if err != nil {
		b.Fatal(err)
	}
	var f2 []itemset.Itemset
	for _, f := range res.ByK[2] {
		f2 = append(f2, f.Items)
	}
	if len(f2) == 0 {
		b.Skip("no frequent 2-itemsets at this scale")
	}
	b.Run("class", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			apriori.GenerateCandidates(f2, false)
		}
	})
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			apriori.GenerateCandidates(f2, true)
		}
	})
}

// BenchmarkAblationDBPartition compares block vs workload-heuristic
// database partitioning.
func BenchmarkAblationDBPartition(b *testing.B) {
	d := benchDB(b, 15, 4, 2000)
	for _, part := range []ccpd.DBPartition{ccpd.PartitionBlock, ccpd.PartitionWorkload} {
		b.Run(part.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, _, err := ccpd.Mine(d, ccpd.Options{
					Options: apriori.Options{AbsSupport: 10, ShortCircuit: true},
					Procs:   4, DBPart: part,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationHashKind compares interleaved vs bitonic tree hashing in
// wall clock (the real-layout side of the TREE optimization).
func BenchmarkAblationHashKind(b *testing.B) {
	d := benchDB(b, 10, 6, 2000)
	for _, h := range []hashtree.HashKind{hashtree.HashInterleaved, hashtree.HashBitonic} {
		b.Run(h.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, err := apriori.Mine(d, apriori.Options{AbsSupport: 10, Hash: h})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRules measures rule generation from a mined result.
func BenchmarkRules(b *testing.B) {
	d := benchDB(b, 10, 4, 3000)
	res, err := apriori.Mine(d, apriori.Options{AbsSupport: 12})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rules.GenerateFast(res, rules.Options{MinConfidence: 0.5, DBSize: int64(d.Len())})
	}
}

// BenchmarkCounting isolates the support-counting hot loop (tree walk).
func BenchmarkCounting(b *testing.B) {
	d := benchDB(b, 10, 4, 1000)
	res, err := apriori.Mine(d, apriori.Options{AbsSupport: 5, MaxK: 2})
	if err != nil {
		b.Fatal(err)
	}
	var f1 []itemset.Itemset
	for _, f := range res.ByK[1] {
		f1 = append(f1, f.Items)
	}
	cands, _, _ := apriori.GenerateCandidates(f1, false)
	tree, err := hashtree.Build(hashtree.Config{
		K: 2, Threshold: 8, Hash: hashtree.HashBitonic, NumItems: d.NumItems(),
	}, cands)
	if err != nil {
		b.Fatal(err)
	}
	counters := hashtree.NewCounters(hashtree.CounterAtomic, tree.NumCandidates(), 1)
	ctx := tree.NewCountCtx(counters, hashtree.CountOpts{ShortCircuit: true})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for t := 0; t < d.Len(); t++ {
			ctx.CountTransaction(d.Items(t))
		}
	}
}

// BenchmarkCountKernel is the allocation-visible view of the frozen-flat
// counting kernel: one full database pass per op over a K=3 tree, reported
// with allocs/op (must be 0) for each counter mode. This is
// the benchmark cmd/benchjson snapshots into BENCH_counting.json.
func BenchmarkCountKernel(b *testing.B) {
	d := benchDB(b, 10, 4, 1000)
	res, err := apriori.Mine(d, apriori.Options{AbsSupport: 5, MaxK: 3})
	if err != nil {
		b.Fatal(err)
	}
	var f2 []itemset.Itemset
	for _, f := range res.ByK[2] {
		f2 = append(f2, f.Items)
	}
	cands, _, _ := apriori.GenerateCandidates(f2, false)
	if len(cands) == 0 {
		b.Skip("no 3-candidates at this scale")
	}
	tree, err := hashtree.Build(hashtree.Config{
		K: 3, Threshold: 8, Hash: hashtree.HashBitonic, NumItems: d.NumItems(),
	}, cands)
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []hashtree.CounterMode{
		hashtree.CounterLocked, hashtree.CounterAtomic, hashtree.CounterPrivate,
	} {
		b.Run(mode.String(), func(b *testing.B) {
			counters := hashtree.NewCounters(mode, tree.NumCandidates(), 1)
			ctx := tree.NewCountCtx(counters, hashtree.CountOpts{ShortCircuit: true})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for t := 0; t < d.Len(); t++ {
					ctx.CountTransaction(d.Items(t))
				}
			}
		})
	}
}

// BenchmarkPlacementAssign measures address assignment per policy.
func BenchmarkPlacementAssign(b *testing.B) {
	d := benchDB(b, 10, 4, 1000)
	res, err := apriori.Mine(d, apriori.Options{AbsSupport: 5, MaxK: 2})
	if err != nil {
		b.Fatal(err)
	}
	var f1 []itemset.Itemset
	for _, f := range res.ByK[1] {
		f1 = append(f1, f.Items)
	}
	cands, _, _ := apriori.GenerateCandidates(f1, false)
	tree, err := hashtree.Build(hashtree.Config{K: 2, NumItems: d.NumItems()}, cands)
	if err != nil {
		b.Fatal(err)
	}
	for _, pol := range []mem.Policy{mem.PolicyCCPD, mem.PolicySPP, mem.PolicyGPP, mem.PolicyLCAGPP} {
		b.Run(pol.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				hashtree.NewPlacement(tree, pol, 4)
			}
		})
	}
}

// BenchmarkAblationLayout compares real wall-clock counting over the
// pointer-chasing tree (the original malloc'd CCPD layout) vs the
// arena-backed tree (the SPP-style contiguous layout) — the genuine-Go side
// of the Section 5 locality claim.
func BenchmarkAblationLayout(b *testing.B) {
	d := benchDB(b, 10, 4, 2000)
	res, err := apriori.Mine(d, apriori.Options{AbsSupport: 8, MaxK: 2})
	if err != nil {
		b.Fatal(err)
	}
	var f1 []itemset.Itemset
	for _, f := range res.ByK[1] {
		f1 = append(f1, f.Items)
	}
	cands, _, _ := apriori.GenerateCandidates(f1, false)
	cfg := hashtree.Config{K: 2, Threshold: 8, Hash: hashtree.HashBitonic, NumItems: d.NumItems()}

	b.Run("pointer", func(b *testing.B) {
		tree, err := hashtree.BuildPointer(cfg, cands)
		if err != nil {
			b.Fatal(err)
		}
		ctx := tree.NewCountCtx(true)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for t := 0; t < d.Len(); t++ {
				ctx.CountTransaction(d.Items(t))
			}
		}
	})
	b.Run("arena", func(b *testing.B) {
		tree, err := hashtree.Build(cfg, cands)
		if err != nil {
			b.Fatal(err)
		}
		counters := hashtree.NewCounters(hashtree.CounterAtomic, tree.NumCandidates(), 1)
		ctx := tree.NewCountCtx(counters, hashtree.CountOpts{ShortCircuit: true})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for t := 0; t < d.Len(); t++ {
				ctx.CountTransaction(d.Items(t))
			}
		}
	})
}

// BenchmarkBaselines compares the mining algorithms the paper positions
// against: sequential Apriori, DHP (hash filtering), Partition (two
// scans) and Count Distribution (message-passing parallel).
func BenchmarkBaselines(b *testing.B) {
	d := benchDB(b, 10, 4, 2000)
	opts := apriori.Options{AbsSupport: 10, ShortCircuit: true}
	b.Run("apriori", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := apriori.Mine(d, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("dhp", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := baseline.MineDHP(d, baseline.DHPOptions{Mining: opts}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("partition", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := baseline.MinePartition(d, baseline.PartitionOptions{Mining: opts, Chunks: 4}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("countdist", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := baseline.MineCD(d, baseline.CDOptions{Mining: opts, Procs: 4}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("eclat", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := eclat.Mine(d, eclat.Options{AbsSupport: 10, Procs: 4}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("vbit", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := vbit.Mine(d, vbit.Options{AbsSupport: 10, Procs: 4}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Extension-task benches (Section 8: sequences, taxonomy, quantitative) ---

// BenchmarkSeqPat measures sequential-pattern mining end to end.
func BenchmarkSeqPat(b *testing.B) {
	d, _, err := seqpat.Generate(seqpat.GenParams{C: 800, SeqLen: 10, NP: 10, PatLen: 3, N: 100, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := seqpat.Mine(d, seqpat.Options{MinSupport: 0.05, Procs: 4, Hash: seqpat.HashBitonic}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTaxonomy measures generalized mining over an extended database.
func BenchmarkTaxonomy(b *testing.B) {
	d := benchDB(b, 6, 3, 1500)
	tx, err := taxonomy.Generate(taxonomy.GenParams{NumLeaves: d.NumItems(), Fanout: 6, Levels: 2, Seed: 2})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := taxonomy.Mine(d, tx, taxonomy.Options{
			Mining: apriori.Options{MinSupport: 0.02}, Procs: 2,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQuant measures quantitative mining of a 3-attribute table.
func BenchmarkQuant(b *testing.B) {
	rows := 2000
	tab := &quant.Table{Cols: []quant.Column{
		{Name: "x", Kind: quant.Numeric, Values: make([]float64, rows)},
		{Name: "y", Kind: quant.Numeric, Values: make([]float64, rows)},
		{Name: "c", Kind: quant.Categorical, Values: make([]float64, rows)},
	}}
	for i := 0; i < rows; i++ {
		tab.Cols[0].Values[i] = float64(i % 97)
		tab.Cols[1].Values[i] = float64((i * 7) % 89)
		tab.Cols[2].Values[i] = float64(i % 3)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := quant.Mine(tab, quant.Options{
			Intervals: 4, MaxMerge: 2, Mining: apriori.Options{MinSupport: 0.05},
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
