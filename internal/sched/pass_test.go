package sched

import (
	"context"
	"fmt"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/db"
	"repro/internal/db/seg"
	"repro/internal/gen"
)

// passSources returns one database in RAM and the same rows as a 4-segment
// store. With 250-row segments and 64-row chunks, chunks 3, 7 and 11 each
// straddle a segment edge.
func passSources(t *testing.T) (*db.Database, *seg.Reader) {
	t.Helper()
	d, err := gen.Generate(gen.Params{T: 8, I: 3, D: 1000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "store.arseg")
	if err := seg.WriteDatabase(path, d, seg.WriterOptions{SegTx: 250}); err != nil {
		t.Fatal(err)
	}
	r, err := seg.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	if r.NumSegments() != 4 {
		t.Fatalf("store has %d segments, want 4", r.NumSegments())
	}
	return d, r
}

// runPass counts every row's length as its work, over d in RAM or over the
// store r when d is nil. It returns the pass's result, each row's work as
// the kernels saw it, and how often each worker built its kernel.
func runPass(t *testing.T, d *db.Database, r *seg.Reader, spec PassSpec, procs int) (res PassResult, rowWork, builds []int64) {
	t.Helper()
	pool := NewPool(procs)
	defer pool.Close()
	rowWork, builds = make([]int64, spec.Rows), make([]int64, procs)
	ps := NewPass(context.Background(), pool, spec, func(p int) Kernel {
		builds[p]++
		return func(_ context.Context, sd *db.Database, base, lo, hi int) (w int64) {
			for i := lo; i < hi; i++ {
				rowWork[base+i] = int64(len(sd.Items(i)))
				w += rowWork[base+i]
			}
			return w
		}
	})
	var pipe *seg.Pipeline
	if d == nil {
		pipe = r.NewPipeline(seg.PipelineOptions{})
	}
	if err := seg.EachSegment(context.Background(), d, pipe, ps.Segment); err != nil {
		t.Fatal(err)
	}
	return ps.Result(), rowWork, builds
}

// chunkSums buckets per-row work into size-row chunks.
func chunkSums(rowWork []int64, size int) []int64 {
	out := make([]int64, NumChunks(len(rowWork), size))
	for i, w := range rowWork {
		out[i/size] += w
	}
	return out
}

func sum(v []int64) (s int64) {
	for _, x := range v {
		s += x
	}
	return s
}

// TestPassStaticMatchesCursor runs the same rows in RAM and as a 4-segment
// store, split statically and claimed from the cursor. Every run counts
// every row once with the same work, so the per-chunk work and its greedy
// schedule agree across all four; the claims cover every chunk once plus
// one piece per straddled edge; and each worker builds its kernel once per
// pass, however many segments it counts.
func TestPassStaticMatchesCursor(t *testing.T) {
	d, r := passSources(t)
	const procs, chunk = 3, 64
	rows := d.Len()
	rowLen := make([]int64, rows)
	for i := range rowLen {
		rowLen[i] = int64(len(d.Items(i)))
	}
	want := chunkSums(rowLen, chunk)
	for _, src := range []struct {
		d     *db.Database
		edges int64 // segment edges a chunk straddles
	}{{d, 0}, {nil, 3}} {
		for _, static := range [][]db.Slice{Blocks(rows, procs), nil} {
			res, rowWork, builds := runPass(t, src.d, r, PassSpec{Static: static, Rows: rows, Chunk: chunk}, procs)
			label := fmt.Sprintf("edges=%d static=%v", src.edges, static != nil)
			if got := chunkSums(rowWork, chunk); !reflect.DeepEqual(got, want) {
				t.Errorf("%s: per-chunk work %v, want %v", label, got, want)
			}
			if sum(res.Work) != sum(want) {
				t.Errorf("%s: total work %d, want %d", label, sum(res.Work), sum(want))
			}
			for p, b := range builds {
				if b != 1 {
					t.Errorf("%s: worker %d built its kernel %d times, want once", label, p, b)
				}
			}
			if static != nil {
				if res.Claimed != nil {
					t.Errorf("%s: static pass reported claims %v", label, res.Claimed)
				}
				continue
			}
			if g := GreedySchedule(want, procs); !reflect.DeepEqual(res.Work, g) {
				t.Errorf("%s: work model %v, want GreedySchedule %v", label, res.Work, g)
			}
			if got, w := sum(res.Claimed), int64(NumChunks(rows, chunk))+src.edges; got != w {
				t.Errorf("%s: %d claims, want %d", label, got, w)
			}
		}
	}
}

// TestPassCancelBetweenClaims cancels the context inside the first claimed
// chunk while every other worker holds one chunk of its own: no worker may
// claim another.
func TestPassCancelBetweenClaims(t *testing.T) {
	d, _ := passSources(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	pool := NewPool(4)
	defer pool.Close()
	var calls atomic.Int64
	ps := NewPass(ctx, pool, PassSpec{Rows: d.Len(), Chunk: 16}, func(int) Kernel {
		return func(ctx context.Context, _ *db.Database, _, _, _ int) int64 {
			if calls.Add(1) == 1 {
				cancel()
			}
			<-ctx.Done()
			return 1
		}
	})
	if err := ps.Segment(-1, 0, d); err != nil {
		t.Fatal(err)
	}
	for p, c := range ps.Result().Claimed {
		if c > 1 {
			t.Errorf("worker %d claimed %d chunks, want at most the one in flight", p, c)
		}
	}
}
