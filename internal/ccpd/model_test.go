package ccpd

import (
	"testing"
	"time"

	"repro/internal/apriori"
	"repro/internal/gen"
)

// optsFor builds mining options at a support fraction.
func optsFor(sup float64) apriori.Options {
	return apriori.Options{MinSupport: sup, ShortCircuit: true}
}

func TestPhaseTimingModelTime(t *testing.T) {
	pt := PhaseTiming{
		GenWork:    []int64{10, 30, 20},
		CountWork:  []int64{100, 150, 120},
		BuildWork:  90,
		ReduceWork: 5,
	}
	// max(gen)=30 + build/3=30 + max(count)=150 + reduce=5 = 215.
	if got := pt.ModelTime(3); got != 215 {
		t.Errorf("ModelTime = %d, want 215", got)
	}
	// Zero procs: build term skipped.
	if got := pt.ModelTime(0); got != 185 {
		t.Errorf("ModelTime(0) = %d, want 185", got)
	}
	// Empty phases.
	empty := PhaseTiming{}
	if got := empty.ModelTime(4); got != 0 {
		t.Errorf("empty ModelTime = %d", got)
	}
}

func TestStatsModelTimeSums(t *testing.T) {
	s := Stats{
		Procs: 2,
		PerIter: []PhaseTiming{
			{CountWork: []int64{10, 20}},
			{CountWork: []int64{5, 5}, ReduceWork: 1},
		},
	}
	if got := s.ModelTime(); got != 20+5+1 {
		t.Errorf("Stats.ModelTime = %d", got)
	}
}

func TestModelTimeDecreasesWithProcs(t *testing.T) {
	d := testDB(t)
	var prev int64
	for i, procs := range []int{1, 2, 4, 8} {
		_, st, err := Mine(d, Options{
			Options: optsFor(0.01), Procs: procs,
			Balance: BalanceBitonic, AdaptiveMinUnits: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		mt := st.ModelTime()
		if i > 0 && mt >= prev {
			t.Errorf("ModelTime did not shrink at P=%d: %d >= %d", procs, mt, prev)
		}
		prev = mt
	}
}

// TestModelTimePinned pins the deterministic work-model totals on a fixed
// dataset, per partition mode. The model is the substitute for parallel
// wall-clock (see DESIGN.md), so layout or traversal rewrites of the
// counting kernel must leave these numbers bit-identical; a change here
// means the cost model moved, which invalidates the regenerated figures
// until re-derived.
//
// The per-mode figures differ only through iteration balance: at procs=1
// every mode must agree exactly (work is conserved), stealing follows the
// greedy list-schedule model, and workload's static heuristic lands in
// between. Before the k=1 attribution fix, every mode wrongly reported the
// block figure.
func TestModelTimePinned(t *testing.T) {
	d, err := gen.Generate(gen.Params{T: 10, I: 4, D: 2000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := map[DBPartition]map[int]int64{
		PartitionBlock:    {1: 13435543, 4: 3719619},
		PartitionWorkload: {1: 13435543, 4: 3633905},
		PartitionStealing: {1: 13435543, 4: 3689075},
	}
	for part, byProcs := range want {
		for _, procs := range []int{1, 4} {
			_, st, err := Mine(d, Options{
				Options: apriori.Options{AbsSupport: 10, ShortCircuit: true},
				Procs:   procs, Balance: BalanceBitonic, AdaptiveMinUnits: 1,
				DBPart: part,
			})
			if err != nil {
				t.Fatal(err)
			}
			if got := st.ModelTime(); got != byProcs[procs] {
				t.Errorf("%s procs=%d: ModelTime = %d, want %d (work model changed)",
					part, procs, got, byProcs[procs])
			}
		}
	}
}

// TestIterOneCountWorkConserved asserts the k=1 attribution fix: every
// partition mode distributes the same total iteration-1 work (work is
// conserved across partitionings), and the stealing mode reports the greedy
// list-schedule rather than the block split.
func TestIterOneCountWorkConserved(t *testing.T) {
	d := testDB(t)
	var blockTotal int64
	for _, part := range []DBPartition{PartitionBlock, PartitionWorkload, PartitionStealing} {
		o := optsFor(0.01)
		o.MaxK = 1
		_, st, err := Mine(d, Options{Options: o, Procs: 4, DBPart: part})
		if err != nil {
			t.Fatal(err)
		}
		work := st.PerIter[0].CountWork
		if len(work) != 4 {
			t.Fatalf("%s: %d entries, want 4", part, len(work))
		}
		var total int64
		for _, w := range work {
			total += w
		}
		if part == PartitionBlock {
			blockTotal = total
		} else if total != blockTotal {
			t.Errorf("%s: total k=1 work %d, want %d (conservation)", part, total, blockTotal)
		}
	}
}

func TestTotalTimePositive(t *testing.T) {
	d := testDB(t)
	_, st, err := Mine(d, Options{Options: optsFor(0.02), Procs: 2})
	if err != nil {
		t.Fatal(err)
	}
	var phases time.Duration
	for _, it := range st.PerIter {
		phases += it.CandGen + it.TreeBuild + it.Count + it.Reduce
	}
	if phases <= 0 || st.Total < phases/2 {
		t.Errorf("timing inconsistent: total %v, phases %v", st.Total, phases)
	}
}
