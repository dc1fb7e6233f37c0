package ccpd

import (
	"context"
	"errors"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/apriori"
	"repro/internal/gen"
	"repro/internal/robust"
	"repro/internal/robust/faultinj"
)

// TestPairPassMatchesHashTree: iteration 2 through the pair pass gives
// results deeply equal to the hash-tree iteration in every partition mode,
// processor count and MaxK, and steps aside for the hash tree when the
// triangles would not fit the byte ceiling or the candidates would not fit
// MaxCandidatesInMemory.
func TestPairPassMatchesHashTree(t *testing.T) {
	d := testDB(t)
	for _, part := range []DBPartition{PartitionBlock, PartitionWorkload, PartitionStealing} {
		for _, procs := range []int{1, 2, 4} {
			for _, maxK := range []int{0, 2} {
				opts := robustOpts()
				opts.DBPart, opts.Procs, opts.MaxK = part, procs, maxK
				want, wantSt, err := Mine(d, opts)
				if err != nil {
					t.Fatal(err)
				}
				opts.PairPass = true
				got, gotSt, err := Mine(d, opts)
				if err != nil {
					t.Fatal(err)
				}
				label := part.String()
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s P=%d MaxK=%d: pair pass result differs from the hash tree", label, procs, maxK)
				}
				it, ref := gotSt.PerIter[1], wantSt.PerIter[1]
				if !it.Paired() || ref.Paired() {
					t.Errorf("%s P=%d: Paired = %v with the pass, %v without", label, procs, it.Paired(), ref.Paired())
				}
				if it.Candidates != ref.Candidates || it.Frequent != ref.Frequent {
					t.Errorf("%s P=%d: k=2 cands/freq %d/%d, hash tree %d/%d",
						label, procs, it.Candidates, it.Frequent, ref.Candidates, ref.Frequent)
				}
			}
		}
	}

	// A candidate budget below C(|F1|,2) keeps the batched hash tree.
	opts := robustOpts()
	opts.MaxCandidatesInMemory = 500
	want, _, err := Mine(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.PairPass = true
	got, st, err := Mine(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("budget fallback: result differs")
	}
	if it := st.PerIter[1]; it.Paired() || it.Batches < 2 {
		t.Errorf("budget %d with C(n,2)=%d: Paired=%v Batches=%d, want the batched hash tree",
			opts.MaxCandidatesInMemory, it.Candidates, it.Paired(), it.Batches)
	}

	// Procs triangles one byte over the ceiling keep the hash tree; at the
	// ceiling the pass runs.
	opts = robustOpts()
	opts.Procs = 2
	want, wantSt, err := Mine(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	triangles := int64(opts.Procs) * int64(wantSt.PerIter[1].Candidates) * 4
	opts.PairPass = true
	for _, maxBytes := range []int64{triangles - 1, triangles} {
		opts.pairMaxBytes = maxBytes
		got, st, err := Mine(d, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("ceiling %d: result differs", maxBytes)
		}
		if paired := st.PerIter[1].Paired(); paired != (maxBytes == triangles) {
			t.Errorf("ceiling %d for %d bytes of triangles: Paired=%v", maxBytes, triangles, paired)
		}
	}
}

// TestPairPassCancel cancels from inside the pair pass: the run returns the
// F1-only partial result with a CanceledError naming the pass.
func TestPairPassCancel(t *testing.T) {
	d := testDB(t)
	for _, part := range []DBPartition{PartitionBlock, PartitionStealing} {
		ctx, cancel := context.WithCancel(context.Background())
		opts := robustOpts()
		opts.DBPart, opts.PairPass = part, true
		opts.FaultInj = faultinj.New(faultinj.Rule{
			Phase: "pairs", K: 2, Worker: faultinj.Wildcard, Chunk: faultinj.Wildcard,
			Action: faultinj.Call, Do: cancel, Once: true,
		})
		res, _, err := MineCtx(ctx, d, opts)
		cancel()
		var ce *robust.CanceledError
		if !errors.As(err, &ce) || ce.Phase != "pairs" || ce.K != 2 {
			t.Fatalf("%s: MineCtx = %v, want CanceledError at pairs/2", part, err)
		}
		if res == nil || len(res.ByK) != 2 {
			t.Fatalf("%s: partial result %v, want F1 only", part, res)
		}
	}
}

// TestPairPassResume: PairPass is part of the options fingerprint, and a
// checkpointed run resumed before or after k=2 reproduces the straight run
// bit for bit, work model included.
func TestPairPassResume(t *testing.T) {
	off := robustOpts().withDefaults()
	on := off
	on.PairPass = true
	if off.fingerprint() == on.fingerprint() {
		t.Fatal("fingerprint ignores PairPass")
	}

	d := testDB(t)
	for _, stopAt := range []int{1, 2} {
		opts := robustOpts()
		opts.DBPart, opts.PairPass = PartitionStealing, true
		want, wantSt, err := Mine(d, opts)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "run.ckpt")
		bounded := opts
		bounded.Checkpoint, bounded.MaxK = path, stopAt
		if _, _, err := Mine(d, bounded); err != nil {
			t.Fatal(err)
		}
		resumed := bounded
		resumed.MaxK = 0
		got, st, err := Resume(context.Background(), path, d, resumed)
		if err != nil {
			t.Fatalf("stop at k=%d: resume: %v", stopAt, err)
		}
		assertIdenticalByK(t, "resume", got.ByK, want.ByK)
		if st.ModelTime() != wantSt.ModelTime() || !st.PerIter[1].Paired() {
			t.Errorf("stop at k=%d: ModelTime %d (paired %v), straight %d",
				stopAt, st.ModelTime(), st.PerIter[1].Paired(), wantSt.ModelTime())
		}
		resumed.PairPass = false
		if _, _, err := Resume(context.Background(), path, d, resumed); err == nil {
			t.Errorf("stop at k=%d: resume without PairPass accepted a pair-pass checkpoint", stopAt)
		}
	}
}

// TestModelTimePinnedPairPass pins the work model with the pair pass on, on
// TestModelTimePinned's dataset (whose own pins stay with the pass off).
// Only k=2 differs from those pins: its CountWork is in item scans and
// triangle increments, it has no generation or build work, and ReduceWork
// is one unit per triangle cell.
func TestModelTimePinnedPairPass(t *testing.T) {
	d, err := gen.Generate(gen.Params{T: 10, I: 4, D: 2000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := map[DBPartition]map[int]int64{
		PartitionBlock:    {1: 4653087, 4: 1448524},
		PartitionWorkload: {1: 4653087, 4: 1429107},
		PartitionStealing: {1: 4653087, 4: 1436307},
	}
	for part, byProcs := range want {
		for _, procs := range []int{1, 4} {
			_, st, err := Mine(d, Options{
				Options: apriori.Options{AbsSupport: 10, ShortCircuit: true},
				Procs:   procs, Balance: BalanceBitonic, AdaptiveMinUnits: 1,
				DBPart: part, PairPass: true,
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
