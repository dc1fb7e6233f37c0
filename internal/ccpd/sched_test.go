package ccpd

import (
	"testing"

	"repro/internal/apriori"
	"repro/internal/gen"
	"repro/internal/hashtree"
	"repro/internal/sched"
)

// assertSameOrder checks exact frequent-list equality including order —
// dynamic scheduling must not perturb the output sequence, only the wall
// clock.
func assertSameOrder(t *testing.T, label string, got, want *apriori.Result) {
	t.Helper()
	g, w := got.All(), want.All()
	if len(g) != len(w) {
		t.Fatalf("%s: %d frequent itemsets, want %d", label, len(g), len(w))
	}
	for i := range w {
		if !g[i].Items.Equal(w[i].Items) || g[i].Count != w[i].Count {
			t.Fatalf("%s: item %d = %v(%d), want %v(%d)",
				label, i, g[i].Items, g[i].Count, w[i].Items, w[i].Count)
		}
	}
}

func countWorkTotals(s *Stats) []int64 {
	out := make([]int64, len(s.PerIter))
	for i := range s.PerIter {
		var tot int64
		for _, w := range s.PerIter[i].CountWork {
			tot += w
		}
		out[i] = tot
	}
	return out
}

// TestDynamicMatchesStatic sweeps the stealing partition against the
// static block baseline over counter modes, chunk sizes and processor
// counts: identical frequent sets in identical order, identical per-iteration
// total counting work (the per-transaction work units are partition
// independent), and coherent scheduler observability (claims cover every
// chunk exactly once, F1's included).
func TestDynamicMatchesStatic(t *testing.T) {
	d := testDB(t)
	base := apriori.Options{MinSupport: 0.01, ShortCircuit: true}
	ref, refStats, err := Mine(d, Options{Options: base, Procs: 1})
	if err != nil {
		t.Fatal(err)
	}
	refTotals := countWorkTotals(refStats)

	for _, mode := range []hashtree.CounterMode{hashtree.CounterLocked, hashtree.CounterAtomic, hashtree.CounterPrivate} {
		for _, chunk := range []int{1, 64, 997} {
			for _, procs := range []int{1, 4} {
				label := "stealing/" + mode.String()
				res, stats, err := Mine(d, Options{
					Options: base, Procs: procs, Counter: mode,
					DBPart: PartitionStealing, ChunkSize: chunk,
				})
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				assertSameOrder(t, label, res, ref)

				totals := countWorkTotals(stats)
				numChunks := int64(sched.NumChunks(d.Len(), chunk))
				for i, it := range stats.PerIter {
					if totals[i] != refTotals[i] {
						t.Errorf("%s chunk=%d procs=%d k=%d: total count work %d, want %d",
							label, chunk, procs, it.K, totals[i], refTotals[i])
					}
					if it.Candidates == 0 {
						continue // terminal iteration: no counting ran
					}
					var claimed int64
					for _, c := range it.ChunksClaimed {
						claimed += c
					}
					if claimed != numChunks {
						t.Errorf("%s chunk=%d procs=%d k=%d: %d chunks claimed, want %d",
							label, chunk, procs, it.K, claimed, numChunks)
					}
				}
			}
		}
	}
}

// TestStaticModesUnchangedByPool re-checks the static paths (now running on
// the persistent pool) against the sequential miner, including observability
// defaults: no chunk claims.
func TestStaticModesUnchangedByPool(t *testing.T) {
	d := testDB(t)
	base := apriori.Options{MinSupport: 0.01, ShortCircuit: true}
	seqRes, err := apriori.Mine(d, base)
	if err != nil {
		t.Fatal(err)
	}
	for _, part := range []DBPartition{PartitionBlock, PartitionWorkload} {
		res, stats, err := Mine(d, Options{Options: base, Procs: 4, DBPart: part})
		if err != nil {
			t.Fatal(err)
		}
		assertSameOrder(t, part.String(), res, seqRes)
		for _, it := range stats.PerIter {
			if it.ChunksClaimed != nil {
				t.Errorf("%s k=%d: static mode reported chunk claims %v",
					part, it.K, it.ChunksClaimed)
			}
		}
	}
}

// TestDynamicBeatsStaticOnSkew plants a heavy tail of giant transactions at
// the end of the database (the worst case for a block partition: one
// processor owns the entire tail) and asserts the stealing partition cuts the
// modelled idle work. This is the acceptance criterion of the scheduler
// change in deterministic form — on a host with real cores the wall-clock
// gap follows the modelled one.
func TestDynamicBeatsStaticOnSkew(t *testing.T) {
	d, err := gen.Generate(gen.Params{
		N: 80, L: 20, I: 4, T: 8, D: 2000, Seed: 7,
		SkewFrac: 0.05, SkewMult: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The heavy tail makes deep levels combinatorially dense; MaxK bounds
	// the run (the scheduling comparison only needs the counting phases).
	base := apriori.Options{MinSupport: 0.02, ShortCircuit: true, MaxK: 3}
	run := func(part DBPartition) *Stats {
		_, stats, err := Mine(d, Options{
			Options: base, Procs: 4, DBPart: part, ChunkSize: 8,
		})
		if err != nil {
			t.Fatal(err)
		}
		return stats
	}
	static := run(PartitionBlock)
	staticIdle := static.CountIdleWork()
	if staticIdle == 0 {
		t.Fatal("skewed database produced no static imbalance; test is vacuous")
	}
	dyn := run(PartitionStealing)
	// Stealing idle is bounded by roughly one chunk's work per processor
	// per iteration; on this workload that is far below half the static
	// imbalance.
	if idle := dyn.CountIdleWork(); idle*2 >= staticIdle {
		t.Errorf("modelled idle %d not well below static %d", idle, staticIdle)
	}
	if dyn.ModelTime() >= static.ModelTime() {
		t.Errorf("model time %d not below static %d", dyn.ModelTime(), static.ModelTime())
	}
}
