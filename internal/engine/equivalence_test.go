package engine

import (
	"context"
	"errors"
	"path/filepath"
	"testing"

	"repro/internal/apriori"
	"repro/internal/db/seg"
	"repro/internal/gen"
)

// TestEquivalenceThroughInterface reruns the PR 5 cross-algorithm
// equivalence suite through the Miner interface: every registered exact
// engine, dispatched by name with one shared Spec, must return bit-identical
// results (frequent sets, supports, ordering, MinCount) to sequential
// Apriori over seeded databases and fractional thresholds — and the engines
// with a segmented capability must match again when mining the same data
// from an on-disk segmented store.
func TestEquivalenceThroughInterface(t *testing.T) {
	for _, seed := range []int64{5, 17} {
		d, err := gen.Generate(gen.Params{N: 60, L: 15, I: 3, T: 6, D: 400, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		segPath := filepath.Join(t.TempDir(), "eq.arseg")
		if err := seg.WriteDatabase(segPath, d, seg.WriterOptions{SegTx: 150}); err != nil {
			t.Fatal(err)
		}
		r, err := seg.Open(segPath)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()

		for _, sup := range []float64{0.01, 0.025} {
			want, err := apriori.Mine(d, apriori.Options{MinSupport: sup, ShortCircuit: true})
			if err != nil {
				t.Fatal(err)
			}
			spec := Spec{
				Mining: apriori.Options{MinSupport: sup, ShortCircuit: true},
				Procs:  3, ChunkSize: 32,
			}
			for _, name := range Names() {
				m, ok := Lookup(name)
				if !ok {
					t.Fatalf("Names() lists %q but Lookup fails", name)
				}
				res, _, err := m.MineCtx(context.Background(), d, spec)
				if err != nil {
					t.Fatalf("seed %d sup %g %s: %v", seed, sup, name, err)
				}
				assertSameResult(t, name, res, want)

				if sm, ok := AsSegmented(m); ok {
					sres, _, err := sm.MineSegmented(context.Background(), r, spec)
					if err != nil {
						t.Fatalf("seed %d sup %g %s segmented: %v", seed, sup, name, err)
					}
					assertSameResult(t, name+"/segmented", sres, want)
				}
			}
		}
	}
}

// TestDispatch exercises the single dispatch entry point: by-name lookup,
// in-RAM vs segmented routing, and the error paths the CLI relies on.
func TestDispatch(t *testing.T) {
	d, err := gen.Generate(gen.Params{N: 60, L: 15, I: 3, T: 6, D: 300, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	spec := Spec{Mining: apriori.Options{MinSupport: 0.02, ShortCircuit: true}, Procs: 2}
	want, err := apriori.Mine(d, spec.Mining)
	if err != nil {
		t.Fatal(err)
	}
	res, st, err := Dispatch(context.Background(), "vbit", d, nil, spec)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, "dispatch/vbit", res, want)
	if st == nil || st.EngineName != "vbit" || st.VBit == nil {
		t.Errorf("vbit stats not normalized: %+v", st)
	}

	if _, _, err := Dispatch(context.Background(), "nope", d, nil, spec); err == nil {
		t.Error("unknown engine should fail")
	}

	segPath := filepath.Join(t.TempDir(), "d.arseg")
	if err := seg.WriteDatabase(segPath, d, seg.WriterOptions{SegTx: 100}); err != nil {
		t.Fatal(err)
	}
	r, err := seg.Open(segPath)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	sres, sst, err := Dispatch(context.Background(), "ccpd", nil, r, spec)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, "dispatch/ccpd-seg", sres, want)
	if sst == nil || sst.Pipeline == nil {
		t.Errorf("segmented ccpd run missing pipeline stats: %+v", sst)
	}
	if _, _, err := Dispatch(context.Background(), "eclat", nil, r, spec); err == nil {
		t.Error("eclat has no out-of-core path; segmented dispatch should fail")
	}
}

// TestVBitStoreBudget: vbit's out-of-core path keeps a store's columns
// resident, so it refuses, with ErrOverBudget, a store whose projection
// exceeds the budget, and mines one that fits it exactly. The planner's veto
// draws the same line.
func TestVBitStoreBudget(t *testing.T) {
	d, err := gen.Generate(gen.Params{N: 60, L: 15, I: 3, T: 6, D: 300, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "d.arseg")
	if err := seg.WriteDatabase(path, d, seg.WriterOptions{SegTx: 100}); err != nil {
		t.Fatal(err)
	}
	r, err := seg.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	info := CharacterizeReader(r)
	need := VBitArenaBytes(info)
	if need <= info.MaxSegmentBytes {
		t.Fatalf("projection %d B holds no column", need)
	}
	spec := Spec{Mining: apriori.Options{MinSupport: 0.02, ShortCircuit: true}, Procs: 2}
	want, err := apriori.Mine(d, spec.Mining)
	if err != nil {
		t.Fatal(err)
	}
	for _, budget := range []int64{need - 1, need} {
		spec.MemBudget = budget
		res, st, err := Dispatch(context.Background(), "vbit", nil, r, spec)
		fits := budget >= need
		if fits {
			if err != nil {
				t.Fatalf("budget %d: %v", budget, err)
			}
			assertSameResult(t, "vbit/segmented", res, want)
			if st.VBit == nil || st.Pipeline == nil || st.Pipeline != st.VBit.OutOfCore {
				t.Errorf("budget %d: stats not normalized: %+v", budget, st)
			}
		} else if !errors.Is(err, ErrOverBudget) || res != nil {
			t.Errorf("budget %d of %d needed: err = %v, want ErrOverBudget", budget, need, err)
		}
		plan := Planner{Procs: 2, MemBudget: budget}.Plan(info)
		for _, e := range plan.Estimates {
			if e.Engine == "vbit" && e.Feasible != fits {
				t.Errorf("budget %d of %d needed: planner marks vbit feasible=%v", budget, need, e.Feasible)
			}
		}
	}
}

// TestCapsShape pins the capability matrix: callers branch on these flags
// and narrowing interfaces, so a silent capability regression is an
// interface break.
func TestCapsShape(t *testing.T) {
	type shape struct{ parallel, resumer, segmented bool }
	wantShapes := map[string]shape{
		"seq":   {},
		"ccpd":  {parallel: true, resumer: true, segmented: true},
		"pccd":  {parallel: true},
		"eclat": {parallel: true},
		"vbit":  {parallel: true, segmented: true},
	}
	names := Names()
	if len(names) != len(wantShapes) {
		t.Fatalf("registered engines %v, want %d of them", names, len(wantShapes))
	}
	for name, want := range wantShapes {
		m, ok := Lookup(name)
		if !ok {
			t.Errorf("engine %q not registered", name)
			continue
		}
		_, resumer := AsResumer(m)
		_, segmented := AsSegmented(m)
		if got := (shape{m.Caps().Parallel, resumer, segmented}); got != want {
			t.Errorf("%s: %+v, want %+v", name, got, want)
		}
	}
}

func assertSameResult(t *testing.T, label string, got, want *apriori.Result) {
	t.Helper()
	if got.MinCount != want.MinCount {
		t.Errorf("%s: MinCount %d != %d", label, got.MinCount, want.MinCount)
	}
	gk, wk := len(got.ByK), len(want.ByK)
	for k := 1; k < gk || k < wk; k++ {
		var g, w []apriori.FrequentItemset
		if k < gk {
			g = got.ByK[k]
		}
		if k < wk {
			w = want.ByK[k]
		}
		if len(g) != len(w) {
			t.Errorf("%s: k=%d has %d frequent, want %d", label, k, len(g), len(w))
			continue
		}
		for i := range g {
			if !g[i].Items.Equal(w[i].Items) || g[i].Count != w[i].Count {
				t.Errorf("%s: k=%d[%d] = %v/%d, want %v/%d",
					label, k, i, g[i].Items, g[i].Count, w[i].Items, w[i].Count)
				break
			}
		}
	}
}
