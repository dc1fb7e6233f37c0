package vbit

import (
	"context"
	"errors"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/apriori"
	"repro/internal/db"
	"repro/internal/gen"
	"repro/internal/robust"
	"repro/internal/sched"
)

// pairShapes are a sparse database, where the cost rule takes the pair
// pass, and a dense one, where it declines.
var pairShapes = map[string]gen.Params{
	"sparse": {T: 10, I: 4, D: 2000, Seed: 1},
	"dense":  {N: 60, L: 30, T: 12, I: 4, D: 2000, Seed: 1},
}

// TestPairPassCostRule forces each branch of the cost rule on both shapes
// and requires results deeply equal to the engine without the pass, then
// checks the rule itself picks the pass on sparse and declines on dense.
func TestPairPassCostRule(t *testing.T) {
	for name, p := range pairShapes {
		d, err := gen.Generate(p)
		if err != nil {
			t.Fatal(err)
		}
		base := Options{AbsSupport: 10, Procs: 2, ChunkStride: 64, forcePairs: -1}
		want, _, err := Mine(d, base)
		if err != nil {
			t.Fatal(err)
		}
		for _, force := range []int8{1, -1, 0} {
			opts := base
			opts.forcePairs = force
			got, st, err := Mine(d, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s force=%d: result differs from the engine without the pass", name, force)
			}
			ran := st.PairWork != nil
			wantRan := force > 0 || (force == 0 && name == "sparse")
			if ran != wantRan {
				t.Errorf("%s force=%d: pair pass ran=%v, want %v", name, force, ran, wantRan)
			}
		}
	}
}

// TestPairTriangleMatchesDiffsets: every cell of the reduced triangle equals
// the support the level-2 diffset gives, anchor.sup − |d(ab)|.
func TestPairTriangleMatchesDiffsets(t *testing.T) {
	d, err := gen.Generate(gen.Params{N: 60, L: 30, T: 12, I: 4, D: 1000, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	const minCount = 20
	f1 := apriori.FrequentOne(d, minCount)
	lay := layoutAt(d, 0, minCount)
	pc := apriori.NewPairCount(f1, d.NumItems())
	tri := countPairs(t, d, pc, 3, 50)
	tk := newTask(lay, minCount, 0, len(f1))
	for a := range f1 {
		for b := a + 1; b < len(f1); b++ {
			x, y := f1[a].Items[0], f1[b].Items[0]
			card, _, _ := tk.diffInto(lay.sets[x], lay.sets[y])
			if got, want := int64(tri[pc.RowBase(a)+b]), f1[a].Count-card; got != want {
				t.Fatalf("pair (%d,%d): triangle %d, diffset support %d", x, y, got, want)
			}
		}
	}
}

// countPairs runs the pair pass over d in one segment on procs workers and
// returns the reduced triangle.
func countPairs(t *testing.T, d *db.Database, pc *apriori.PairCount, procs, stride int) []int32 {
	t.Helper()
	pool := sched.NewPool(procs)
	defer pool.Close()
	pp := newPairPass(context.Background(), pc, pool, d.Len(), stride, nil)
	if err := pp.count(-1, 0, d); err != nil {
		t.Fatal(err)
	}
	tri, _, err := pp.reduce()
	if err != nil {
		t.Fatal(err)
	}
	return tri
}

// tripCtx reports cancellation from its at-th Err call on.
type tripCtx struct {
	context.Context
	calls atomic.Int64
	at    int64
}

func (c *tripCtx) Err() error {
	if c.calls.Add(1) >= c.at {
		return context.Canceled
	}
	return nil
}

// TestPairPassCancel trips the context at successive polls until one lands
// inside the pair pass, which must return the F1-only partial result with a
// CanceledError naming the pass.
func TestPairPassCancel(t *testing.T) {
	d, err := gen.Generate(pairShapes["sparse"])
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{AbsSupport: 10, Procs: 1, ChunkStride: 256, forcePairs: 1}
	for at := int64(1); at < 100; at++ {
		res, _, err := MineCtx(&tripCtx{Context: context.Background(), at: at}, d, opts)
		var ce *robust.CanceledError
		if !errors.As(err, &ce) {
			t.Fatalf("trip at poll %d: err = %v, want a CanceledError", at, err)
		}
		if ce.Phase != "pairs" {
			continue
		}
		if ce.K != 2 || res == nil || len(res.ByK) != 2 {
			t.Fatalf("canceled in the pass: k=%d result %v, want k=2 and F1 only", ce.K, res)
		}
		return
	}
	t.Fatal("no poll landed inside the pair pass")
}

// TestPairPassNilContext: MineCtx takes a nil context as one that never
// cancels, the pair pass's polls included.
func TestPairPassNilContext(t *testing.T) {
	d, err := gen.Generate(pairShapes["sparse"])
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{AbsSupport: 10, Procs: 2, ChunkStride: 64, forcePairs: 1}
	want, _, err := Mine(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	got, st, err := MineCtx(nil, d, opts)
	if err != nil {
		t.Fatal(err)
	}
	if st.PairWork == nil || !reflect.DeepEqual(got, want) {
		t.Errorf("nil context: pair pass ran=%v, result equal=%v", st.PairWork != nil, reflect.DeepEqual(got, want))
	}
}

// TestModelPinnedPairPass pins the work model with the pair pass forced on,
// on TestModelPinned's dataset (whose own pins stay with the pass off): the
// totals stay independent of the processor count, and the pass adds its
// item scans and triangle increments while the class DFS loses the
// infrequent pairs' level-2 diffsets.
func TestModelPinnedPairPass(t *testing.T) {
	d, err := gen.Generate(gen.Params{N: 60, L: 15, I: 3, T: 6, D: 400, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, procs := range []int{1, 2, 4} {
		_, st, err := Mine(d, Options{MinSupport: 0.01, Procs: procs, forcePairs: 1})
		if err != nil {
			t.Fatal(err)
		}
		if total == 0 {
			total = st.TotalWork()
		} else if st.TotalWork() != total {
			t.Errorf("procs=%d: TotalWork %d != %d", procs, st.TotalWork(), total)
		}
		if procs == 4 && st.ModelTime() != 34794 {
			t.Errorf("ModelTime(procs=4) = %d, want pinned 34794", st.ModelTime())
		}
	}
	// 32458 without the pass, whose narrow classes are projected: on this
	// dense-ish data the pass costs more than it saves, which is why the
	// cost rule declines it here.
	if total != 82612 {
		t.Errorf("TotalWork = %d, want pinned 82612", total)
	}
}
