package vbit

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/apriori"
	"repro/internal/db"
	"repro/internal/db/seg"
	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/robust"
)

func segStore(t *testing.T, d *db.Database, wopts seg.WriterOptions) *seg.Reader {
	t.Helper()
	path := filepath.Join(t.TempDir(), "store.arseg")
	if err := seg.WriteDatabase(path, d, wopts); err != nil {
		t.Fatalf("WriteDatabase: %v", err)
	}
	r, err := seg.Open(path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { r.Close() })
	return r
}

// TestSegmentedMatchesInRAM: the out-of-core vertical miner must reproduce
// both sequential Apriori and the in-RAM engine exactly — same frequent
// sets, same supports, same MinCount — and its work model must equal the
// in-RAM one field by field, across the layout spectrum, with the pair pass
// forced on and off, for sync (budget 1) and double-buffered (budget 0)
// pipelines. The 150-row segments put bitmap words and 64-row pair chunks
// across segment edges.
func TestSegmentedMatchesInRAM(t *testing.T) {
	d, err := gen.Generate(gen.Params{N: 60, L: 15, I: 3, T: 6, D: 700, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	r := segStore(t, d, seg.WriterOptions{SegTx: 150})
	if r.NumSegments() < 4 {
		t.Fatalf("want >= 4 segments, got %d", r.NumSegments())
	}
	want, err := apriori.Mine(d, apriori.Options{MinSupport: 0.01, ShortCircuit: true})
	if err != nil {
		t.Fatal(err)
	}
	// model keeps the work-model fields, dropping walls and pipeline stats.
	model := func(s *Stats) Stats {
		return Stats{
			Procs: s.Procs, Classes: s.Classes, DenseItems: s.DenseItems, SparseItems: s.SparseItems,
			F1Work: s.F1Work, BuildWork: s.BuildWork, PairWork: s.PairWork, ClassWork: s.ClassWork,
			CountWork: s.CountWork, ReduceWork: s.ReduceWork,
		}
	}
	cutoffs := map[string]float64{"mixed-layout": 0, "all-bitmap": 1e-9, "all-tidlist": 1.5}
	for cn, cutoff := range cutoffs {
		for _, force := range []int8{1, -1} {
			opts := Options{MinSupport: 0.01, Procs: 3, DensityCutoff: cutoff, ChunkStride: 64, forcePairs: force}
			vres, vst, err := Mine(d, opts)
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, "in-RAM "+cn, vres, want)
			for _, budget := range []int64{1, 0} {
				label := fmt.Sprintf("%s pairs=%d budget=%d", cn, force, budget)
				res, stats, err := MineSegmented(r, SegmentedOptions{Options: opts, MemBudget: budget})
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				sameResult(t, label, res, want)
				if res.MinCount != want.MinCount {
					t.Errorf("%s: MinCount %d != %d", label, res.MinCount, want.MinCount)
				}
				if got, w := model(stats), model(vst); !reflect.DeepEqual(got, w) {
					t.Errorf("%s: work model\n got %+v\nwant %+v", label, got, w)
				}
				// F1, then the fill fused with the pair pass when it runs.
				p := stats.OutOfCore
				if p == nil || p.Passes != 2 || p.Segments != 2*r.NumSegments() {
					t.Errorf("%s: pipeline %+v, want 2 passes over %d segments", label, p, r.NumSegments())
				} else if budget == 0 && !p.Overlapped {
					t.Errorf("%s: default budget should double-buffer", label)
				}
			}
		}
	}
}

// TestSegmentedBeyondArenaLimit mines a store whose item arena exceeds the
// (test-lowered) single-arena ceiling — impossible to load in RAM — and must
// match the reference mined before the limit dropped, loading each segment
// once per horizontal pass: two passes, however deep the mine.
func TestSegmentedBeyondArenaLimit(t *testing.T) {
	d, err := gen.Generate(gen.Params{T: 10, I: 4, D: 2000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	want, err := apriori.Mine(d, apriori.Options{AbsSupport: 10, ShortCircuit: true})
	if err != nil {
		t.Fatal(err)
	}
	restore := db.SetArenaLimitForTesting(2048)
	defer restore()
	if d.TotalItems() <= db.ArenaLimit() {
		t.Fatalf("test premise broken: %d occurrences fit the limit", d.TotalItems())
	}
	r := segStore(t, d, seg.WriterOptions{})
	if r.NumSegments() < 5 {
		t.Fatalf("want many segments, got %d", r.NumSegments())
	}
	res, stats, err := MineSegmented(r, SegmentedOptions{
		Options: Options{AbsSupport: 10, Procs: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "beyond-arena", res, want)
	if p := stats.OutOfCore; p.Passes != 2 || p.Segments != 2*r.NumSegments() {
		t.Errorf("pipeline loaded %d segments over %d passes, want 2 passes of %d segments (mined to k=%d)",
			p.Segments, p.Passes, r.NumSegments(), len(res.ByK)-1)
	}
}

func TestSegmentedMaxK(t *testing.T) {
	d, err := gen.Generate(gen.Params{N: 40, L: 10, I: 3, T: 6, D: 300, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	r := segStore(t, d, seg.WriterOptions{SegTx: 100})
	full, _, err := MineSegmented(r, SegmentedOptions{Options: Options{MinSupport: 0.02, Procs: 2}})
	if err != nil {
		t.Fatal(err)
	}
	for maxK := 1; maxK <= 3; maxK++ {
		res, _, err := MineSegmented(r, SegmentedOptions{Options: Options{MinSupport: 0.02, Procs: 2, MaxK: maxK}})
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

func TestSegmentedCancellation(t *testing.T) {
	d, err := gen.Generate(gen.Params{N: 60, L: 15, I: 3, T: 6, D: 600, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	r := segStore(t, d, seg.WriterOptions{SegTx: 100})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err = MineSegmentedCtx(ctx, r, SegmentedOptions{Options: Options{MinSupport: 0.01, Procs: 2}})
	var ce *robust.CanceledError
	if !errors.As(err, &ce) {
		t.Fatalf("pre-canceled: err = %v, want *robust.CanceledError", err)
	}

	ctx2, cancel2 := context.WithCancel(context.Background())
	go func() {
		time.Sleep(3 * time.Millisecond)
		cancel2()
	}()
	res, _, err := MineSegmentedCtx(ctx2, r, SegmentedOptions{
		Options:   Options{MinSupport: 0.005, Procs: 2},
		LoadDelay: time.Millisecond,
	})
	if err != nil && !errors.As(err, &ce) {
		t.Fatalf("mid-run cancel: err = %v, want nil or CanceledError", err)
	}
	// A cancel during f1 legitimately yields no result; past it, completed
	// levels survive in the partial result.
	if err != nil && res != nil && len(res.ByK) > 1 && len(res.ByK[1]) == 0 {
		t.Error("partial result present but empty at k=1")
	}
	// A deadline is a cancellation too: whichever pass it lands in, the
	// run returns a CanceledError, with F1 once that phase has completed.
	for _, ms := range []int{3, 9, 15} {
		ctx, cancel := context.WithTimeout(context.Background(), time.Duration(ms)*time.Millisecond)
		res, _, err := MineSegmentedCtx(ctx, r, SegmentedOptions{
			Options:   Options{MinSupport: 0.005, Procs: 2},
			LoadDelay: 2 * time.Millisecond,
		})
		cancel()
		if !errors.As(err, &ce) || !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("%d ms deadline: err = %v, want a CanceledError over DeadlineExceeded", ms, err)
		}
		if ce.Phase != "f1" && (res == nil || len(res.ByK[1]) == 0) {
			t.Errorf("%d ms deadline in phase %s: partial result %v lacks F1", ms, ce.Phase, res)
		}
	}
	// The reader must be reusable after an aborted pass.
	if _, _, err := MineSegmented(r, SegmentedOptions{Options: Options{MinSupport: 0.01, Procs: 2}}); err != nil {
		t.Fatalf("rerun after cancel: %v", err)
	}
}

func TestSegmentedObsSpans(t *testing.T) {
	d, err := gen.Generate(gen.Params{N: 40, L: 10, I: 3, T: 6, D: 400, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	r := segStore(t, d, seg.WriterOptions{SegTx: 100})
	rec := obs.NewRecorder(2)
	if _, _, err := MineSegmented(r, SegmentedOptions{
		Options: Options{MinSupport: 0.02, Procs: 2, Obs: rec},
	}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rec.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"seg_load", "seg_count"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("trace missing %q events", want)
		}
	}
}
