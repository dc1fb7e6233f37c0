package vbit

import (
	"context"
	"errors"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/apriori"
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
	heads := make([]head, len(f1))
	for i, f := range f1 {
		heads[i] = head{item: f.Items[0], sup: f.Count, s: lay.sets[f.Items[0]]}
	}
	pool := sched.NewPool(3)
	defer pool.Close()
	pc := apriori.NewPairCount(f1, d.NumItems())
	tris, _, err := pairPass(context.Background(), inRAM(d), pc, pool, 50, nil)
	if err != nil {
		t.Fatal(err)
	}
	tk := newTask(lay, minCount, 0, len(heads))
	for a := range heads {
		for b := a + 1; b < len(heads); b++ {
			card, _, _ := tk.diffInto(heads[a].s, heads[b].s)
			if got, want := int64(tris[0][pc.RowBase(a)+b]), heads[a].sup-card; got != want {
				t.Fatalf("pair (%d,%d): triangle %d, diffset support %d", heads[a].item, heads[b].item, got, want)
			}
		}
	}
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
		if procs == 4 && st.ModelTime() != 44467 {
			t.Errorf("ModelTime(procs=4) = %d, want pinned 44467", st.ModelTime())
		}
	}
	// 52635 without the pass, whose narrow classes are projected, and 99455
	// with none projected: on this dense-ish data the pass costs more than
	// it saves, which is why the cost rule declines it here.
	if total != 105847 {
		t.Errorf("TotalWork = %d, want pinned 105847", total)
	}
}
