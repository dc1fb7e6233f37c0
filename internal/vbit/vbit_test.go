package vbit

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/apriori"
	"repro/internal/db"
	"repro/internal/gen"
	"repro/internal/itemset"
	"repro/internal/robust"
)

// randomDB builds a database of d transactions over n items where each
// item appears with probability density — including, deliberately, empty
// transactions when the dice say so.
func randomDB(rng *rand.Rand, n, dd int, density float64) *db.Database {
	out := db.New(n)
	for t := 0; t < dd; t++ {
		var items itemset.Itemset
		for it := 0; it < n; it++ {
			if rng.Float64() < density {
				items = append(items, itemset.Item(it))
			}
		}
		out.Append(int64(t), items)
	}
	return out
}

func sameResult(t *testing.T, label string, got, want *apriori.Result) {
	t.Helper()
	if got.NumFrequent() != want.NumFrequent() {
		t.Errorf("%s: %d frequent itemsets, want %d", label, got.NumFrequent(), want.NumFrequent())
	}
	for k := 1; k < len(want.ByK); k++ {
		wk := want.ByK[k]
		if k >= len(got.ByK) {
			if len(wk) > 0 {
				t.Errorf("%s: missing k=%d (%d sets)", label, k, len(wk))
			}
			continue
		}
		gk := got.ByK[k]
		if len(gk) != len(wk) {
			t.Errorf("%s: k=%d has %d sets, want %d", label, k, len(gk), len(wk))
			continue
		}
		for i := range wk {
			if !gk[i].Items.Equal(wk[i].Items) || gk[i].Count != wk[i].Count {
				t.Errorf("%s: k=%d[%d] = %v/%d, want %v/%d",
					label, k, i, gk[i].Items, gk[i].Count, wk[i].Items, wk[i].Count)
				break
			}
		}
	}
}

// TestMineProperty drives the engine over randomized databases spanning the
// density spectrum — plus the degenerate shapes (empty transactions,
// singleton universe) — under all three layouts, against sequential
// Apriori as the reference.
func TestMineProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	shapes := []struct {
		name    string
		n, d    int
		density float64
		support float64
	}{
		{"dense", 12, 200, 0.5, 0.1},
		{"sparse", 40, 300, 0.03, 0.01},
		{"mixed", 25, 250, 0.15, 0.05},
		{"singleton-universe", 1, 50, 0.5, 0.1},
		{"mostly-empty", 15, 120, 0.02, 0.02},
	}
	cutoffs := map[string]float64{"mixed-layout": 0, "all-bitmap": 1e-9, "all-tidlist": 1.5}
	for _, sh := range shapes {
		for trial := 0; trial < 3; trial++ {
			d := randomDB(rng, sh.n, sh.d, sh.density)
			want, err := apriori.Mine(d, apriori.Options{MinSupport: sh.support, ShortCircuit: true})
			if err != nil {
				t.Fatal(err)
			}
			for cn, cutoff := range cutoffs {
				res, stats, err := Mine(d, Options{MinSupport: sh.support, Procs: 3, DensityCutoff: cutoff})
				if err != nil {
					t.Fatalf("%s/%s trial %d: %v", sh.name, cn, trial, err)
				}
				sameResult(t, sh.name+"/"+cn, res, want)
				if res.MinCount != want.MinCount {
					t.Errorf("%s/%s: MinCount %d != %d", sh.name, cn, res.MinCount, want.MinCount)
				}
				if stats == nil || stats.Procs != 3 {
					t.Errorf("%s/%s: bad stats %+v", sh.name, cn, stats)
				}
			}
		}
	}
}

func TestMineMaxK(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	d := randomDB(rng, 15, 150, 0.4)
	full, _, err := Mine(d, Options{MinSupport: 0.1, Procs: 2})
	if err != nil {
		t.Fatal(err)
	}
	for maxK := 1; maxK <= 3; maxK++ {
		res, _, err := Mine(d, Options{MinSupport: 0.1, Procs: 2, MaxK: maxK})
		if err != nil {
			t.Fatal(err)
		}
		if got := len(res.ByK) - 1; got > maxK {
			t.Errorf("MaxK=%d: results reach k=%d", maxK, got)
		}
		for k := 1; k <= maxK && k < len(full.ByK); k++ {
			if len(res.ByK[k]) != len(full.ByK[k]) {
				t.Errorf("MaxK=%d: k=%d has %d sets, want %d", maxK, k, len(res.ByK[k]), len(full.ByK[k]))
			}
		}
	}
}

func TestMineCtxPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	d := randomDB(rand.New(rand.NewSource(1)), 10, 100, 0.3)
	res, _, err := MineCtx(ctx, d, Options{MinSupport: 0.1, Procs: 2})
	var ce *robust.CanceledError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want *robust.CanceledError", err)
	}
	if ce.Phase != "f1" || ce.K != 1 {
		t.Errorf("canceled at phase %q k=%d, want f1/1", ce.Phase, ce.K)
	}
	if res != nil {
		t.Errorf("pre-canceled run returned a result")
	}
}

// TestMineCtxMidRun cancels concurrently with the DFS phase; whatever the
// timing, the outcome must be either the complete result or a partial one
// that is a support-exact subset of it, tagged with a CanceledError.
func TestMineCtxMidRun(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	d := randomDB(rng, 30, 400, 0.35)
	opts := Options{MinSupport: 0.05, Procs: 2}
	want, _, err := Mine(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go cancel()
	res, _, err := MineCtx(ctx, d, opts)
	if err != nil {
		var ce *robust.CanceledError
		if !errors.As(err, &ce) {
			t.Fatalf("err = %v, want *robust.CanceledError", err)
		}
	}
	if res == nil {
		return // canceled inside F1: no usable partial, by contract
	}
	for k := 2; k < len(res.ByK); k++ {
		for _, f := range res.ByK[k] {
			if want.SupportOf(f.Items) != f.Count {
				t.Fatalf("partial result contains %v/%d not in the full result", f.Items, f.Count)
			}
		}
	}
}

// TestModelPinned pins the deterministic work model: the totals depend only
// on the database and options, not on the processor count or scheduling
// luck, and their absolute values are frozen so silent cost-model drift
// fails loudly (same discipline as the CCPD model tests).
func TestModelPinned(t *testing.T) {
	d, err := gen.Generate(gen.Params{N: 60, L: 15, I: 3, T: 6, D: 400, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	var ref *Stats
	for _, procs := range []int{1, 2, 4} {
		_, stats, err := Mine(d, Options{MinSupport: 0.01, Procs: procs})
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = stats
			continue
		}
		if stats.TotalWork() != ref.TotalWork() {
			t.Errorf("procs=%d: TotalWork %d != %d", procs, stats.TotalWork(), ref.TotalWork())
		}
		for c, w := range stats.ClassWork {
			if ref.ClassWork[c] != w {
				t.Errorf("procs=%d: ClassWork[%d] = %d != %d", procs, c, w, ref.ClassWork[c])
			}
		}
	}
	// Frozen values for N=60 L=15 I=3 T=6 D=400 seed=5 at support 0.01 with
	// the default layout cutoff: 28 bitmap columns, 9 tidlist columns, 37
	// first-level classes mined in ascending support, the classes of narrow
	// bitmap anchors projected.
	const pinnedTotalWork = 32458
	if ref.TotalWork() != pinnedTotalWork {
		t.Errorf("TotalWork = %d, want pinned %d", ref.TotalWork(), pinnedTotalWork)
	}
	_, stats4, err := Mine(d, Options{MinSupport: 0.01, Procs: 4})
	if err != nil {
		t.Fatal(err)
	}
	if stats4.ModelTime() != 16887 {
		t.Errorf("ModelTime(procs=4) = %d, want pinned 16887", stats4.ModelTime())
	}
	// The largest class holds 2,657 of the 19,265 class work units (13.8%;
	// 31.8% in item-id order).
	if got := stats4.LargestClassShare(); got != 2657.0/19265 {
		t.Errorf("LargestClassShare = %.4f, want pinned 2657/19265", got)
	}
	if stats4.Classes != 37 || stats4.DenseItems != 28 || stats4.SparseItems != 9 {
		t.Errorf("classes/dense/sparse = %d/%d/%d, want 37/28/9",
			stats4.Classes, stats4.DenseItems, stats4.SparseItems)
	}
	var schedSum, classSum int64
	for _, w := range ref.CountWork {
		schedSum += w
	}
	for _, w := range ref.ClassWork {
		classSum += w
	}
	if schedSum != classSum {
		t.Errorf("GreedySchedule lost work: %d != %d", schedSum, classSum)
	}
}

// TestModelPinnedMaxK2 pins a frequent-pair mine of TestModelPinned's data
// to the full-width work it had before classes were projected: at MaxK 2
// no diff runs past level 2, so no class pays for a projection table.
func TestModelPinnedMaxK2(t *testing.T) {
	d, err := gen.Generate(gen.Params{N: 60, L: 15, I: 3, T: 6, D: 400, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	_, stats, err := Mine(d, Options{MinSupport: 0.01, Procs: 4, MaxK: 2})
	if err != nil {
		t.Fatal(err)
	}
	if stats.TotalWork() != 9081 || stats.ModelTime() != 4255 {
		t.Errorf("TotalWork, ModelTime(procs=4) = %d, %d, want pinned 9081, 4255", stats.TotalWork(), stats.ModelTime())
	}
}

// TestClassOrder mines a handmade database whose frequent items tie on
// support: the classes run in ascending support, ties by item id, and the
// output keeps the canonical item order Apriori emits, at every worker
// count, with the pair pass forced on and off, in one bitmap word and,
// copied 20 times, in four (where the narrow classes are projected).
func TestClassOrder(t *testing.T) {
	rows := []itemset.Itemset{
		{0, 1, 2, 4}, {0, 1, 4, 7}, {0, 1, 3, 4, 5, 7}, {1, 3, 4, 7}, {1, 2, 3, 4},
		{1, 3, 4, 7}, {3, 4, 5, 7}, {3, 4, 6}, {0, 2}, {4, 5, 6, 7},
	}
	// Supports: 2 and 5 hold 3 rows, 0 holds 4, 1, 3 and 7 hold 6, 4 holds
	// 9, and 6 (2 rows) is infrequent at 3 rows a copy. Class 5 emits {5 7}
	// before {4 5}, so its pairs need sorting.
	wantOrder := []itemset.Item{2, 5, 0, 1, 3, 7, 4}
	for _, copies := range []int{1, 20} {
		d := db.New(8)
		for c := 0; c < copies; c++ {
			for _, r := range rows {
				d.Append(int64(d.Len()), r)
			}
		}
		minCount := int64(3 * copies)
		f1 := apriori.FrequentOne(d, minCount)
		heads := classOrder(f1)
		for i, h := range heads {
			if h.item != wantOrder[i] || f1[h.rank].Items[0] != h.item || h.sup != f1[h.rank].Count {
				t.Fatalf("copies=%d: class %d is item %d (rank %d, support %d), want item %d", copies, i, h.item, h.rank, h.sup, wantOrder[i])
			}
		}
		want, err := apriori.Mine(d, apriori.Options{AbsSupport: minCount})
		if err != nil {
			t.Fatal(err)
		}
		for _, cutoff := range []float64{0, 1e-9} {
			for _, force := range []int8{1, -1} {
				var ref *Stats
				for _, procs := range []int{1, 2, 4} {
					label := fmt.Sprintf("copies=%d cutoff=%g pairs=%d P=%d", copies, cutoff, force, procs)
					got, st, err := Mine(d, Options{AbsSupport: minCount, Procs: procs, DensityCutoff: cutoff, forcePairs: force})
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					sameResult(t, label, got, want)
					if ref == nil {
						ref = st
					} else if !reflect.DeepEqual(st.ClassWork, ref.ClassWork) {
						t.Errorf("%s: ClassWork %v, at P=1 %v", label, st.ClassWork, ref.ClassWork)
					}
				}
			}
		}
	}
}

// TestMineAllocsIndependentOfD gates the DFS-scoped diffset stacks: at
// Procs=1 a dense mine allocates the same number of objects at D and 2D
// transactions, within a small constant, and far fewer objects than it
// finds frequent itemsets. A slice per diffset fails both bounds: there
// are more diffsets than frequent itemsets, and their number moves with
// the data. Only the output and the stack blocks (sized in whole bitmaps)
// may allocate.
func TestMineAllocsIndependentOfD(t *testing.T) {
	var allocs [2]float64
	var frequent int
	for i, n := range []int{3000, 6000} {
		d, err := gen.Generate(gen.Params{N: 60, L: 30, T: 12, I: 4, D: n, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		allocs[i] = testing.AllocsPerRun(3, func() {
			res, _, err := MineCtx(context.Background(), d, Options{MinSupport: 0.02, Procs: 1})
			if err != nil {
				t.Fatal(err)
			}
			frequent = res.NumFrequent()
		})
		if allocs[i] > float64(frequent)/4 {
			t.Errorf("D=%d: %.0f allocs for %d frequent itemsets, want < 1 per 4", n, allocs[i], frequent)
		}
	}
	if diff := allocs[1] - allocs[0]; diff > 128 || diff < -128 {
		t.Errorf("allocs at D=3000: %.0f, at D=6000: %.0f; want equal within 128", allocs[0], allocs[1])
	}
}

// TestMineReusesArenas: a mine over a database a little longer than the
// previous mine's (armined re-mining a growing prefix) takes its column
// arenas and pair triangles from the reuse pools instead of allocating
// them. GC is off and one P runs, so the pools keep what they are given.
func TestMineReusesArenas(t *testing.T) {
	if raceEnabled {
		t.Skip("under -race, sync.Pool drops a random share of Puts by design")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	full, err := gen.Generate(gen.Params{T: 10, I: 4, D: 2000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	prefix := db.New(full.NumItems())
	for i := 0; i < 1900; i++ {
		prefix.Append(int64(i), full.Items(i))
	}
	opts := Options{AbsSupport: 10, Procs: 2, forcePairs: 1}
	allocated := func(d *db.Database) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, _, err := Mine(d, opts); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	runtime.GC() // two cycles empty the pools
	runtime.GC()
	cold := allocated(full)
	runtime.GC()
	runtime.GC()
	allocated(prefix)
	warm := allocated(full)
	if warm*2 > cold {
		t.Errorf("mine after a shorter one allocated %d bytes, with empty pools %d: arenas not reused", warm, cold)
	}

	// The column arenas a released layout hands back carry the next,
	// longer layout.
	lay := layoutAt(prefix, 0, 10)
	words, list := &lay.wordArena[0], &lay.listArena[0]
	lay.release()
	lay = layoutAt(full, 0, 10)
	if &lay.wordArena[0] != words || &lay.listArena[0] != list {
		t.Error("a released layout's arenas were not reused by the next, longer layout")
	}
}
