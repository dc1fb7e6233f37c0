package sched

import (
	"context"
	"time"

	"repro/internal/db"
	"repro/internal/obs"
	"repro/internal/robust/faultinj"
)

// Kernel is one worker's counting loop in a Pass: it counts rows [lo, hi)
// of segment d, whose first row has global index base, and returns their
// work units. Over a static range it polls ctx itself, every few hundred
// rows; a claimed chunk is checked at its claim.
type Kernel func(ctx context.Context, d *db.Database, base, lo, hi int) int64

// PassSpec describes one row pass.
type PassSpec struct {
	// Phase and K name the pass's fault-injection sites and stamp its chunk
	// spans.
	Phase string
	K     int
	// Static, when non-nil, is each worker's global range of the pass's
	// rows (a block or workload split). Nil makes the workers claim the
	// chunks of a Chunk-row grid over the pass's Rows from a Cursor.
	Static      []db.Slice
	Rows, Chunk int
	// Rec receives chunk spans and per-worker work; nil records nothing.
	Rec *obs.Recorder
	// Faults fires at each worker's segment (static) or chunk (claimed);
	// nil injects nothing.
	Faults *faultinj.Injector
}

// Pass is one counting pass over a source's rows: every engine's F1 scan,
// pair pass and hash-tree walk. The caller hands it the source a segment at
// a time (one segment for an in-RAM database); each worker builds its kernel
// once, at its first segment, and keeps it across segments, so the pass
// counts exactly what a pass over the concatenated rows would.
//
// A chunk straddling a segment edge is claimed in two pieces, one per
// segment (the pool barrier sits between them), so the claims sum to the
// chunk count plus one per straddled edge.
type Pass struct {
	ctx       context.Context
	spec      PassSpec
	pool      *Pool
	newKernel func(p int) Kernel
	kernels   []Kernel
	acc       []perWorker
	chunkWork []int64 // per-chunk work when chunks are claimed; nil when static
}

// PassResult is a pass's accounting.
type PassResult struct {
	// Work[p] is worker p's work units: what it counted under a static
	// split, or else the GreedySchedule of the per-chunk work. Racy claims
	// make the observed split nonreproducible; the schedule is not, and it
	// sums to the same total, equal for any segmentation.
	Work []int64
	// Claimed[p] is how many chunks worker p claimed; nil when static.
	Claimed []int64
	// Idle is the pass's wall-clock idle: Σ_p (slowest worker's time −
	// worker p's).
	Idle time.Duration
}

// NewPass prepares a pass on pool under ctx. Workers stop claiming once ctx
// is done; the caller then discards the partial counts.
func NewPass(ctx context.Context, pool *Pool, spec PassSpec, newKernel func(p int) Kernel) *Pass {
	ps := &Pass{
		ctx: ctx, spec: spec, pool: pool, newKernel: newKernel,
		kernels: make([]Kernel, pool.Procs()),
		acc:     make([]perWorker, pool.Procs()),
	}
	if spec.Static == nil {
		ps.chunkWork = make([]int64, NumChunks(spec.Rows, spec.Chunk))
	}
	return ps
}

// kernel returns worker p's kernel, building it on first use.
func (ps *Pass) kernel(p int) Kernel {
	if ps.kernels[p] == nil {
		ps.kernels[p] = ps.newKernel(p)
	}
	return ps.kernels[p]
}

// Segment counts the rows of segment sd, whose first row has global index
// base, on every worker; si is the segment's index in its store (-1 in
// RAM), the fault site of a static pass. Its signature is
// seg.EachSegment's callback.
func (ps *Pass) Segment(si, base int, sd *db.Database) error {
	ctx, sp := ps.ctx, &ps.spec
	end := base + sd.Len()
	if ps.chunkWork == nil {
		return ps.pool.Run(func(p int) {
			t0 := time.Now() //armlint:allow determinism wall-clock idle feeds PassResult.Idle only, never the work model
			sp.Faults.Fire(sp.Phase, sp.K, p, si)
			lo, hi := max(sp.Static[p].Lo, base)-base, min(sp.Static[p].Hi, end)-base
			w := ps.kernel(p)(ctx, sd, base, lo, hi)
			ps.acc[p].Work += w
			sp.Rec.Worker(p).AddWork(w)
			ps.acc[p].ElapsedNS += time.Since(t0).Nanoseconds() //armlint:allow determinism wall-clock idle feeds PassResult.Idle only, never the work model
		})
	}
	cLo, cHi := ChunkSpan(base, end, sp.Chunk)
	cur := NewCursor(cHi - cLo)
	return ps.pool.Run(func(p int) {
		t0 := time.Now() //armlint:allow determinism wall-clock idle feeds PassResult.Idle only, never the work model
		count, acc, ow := ps.kernel(p), &ps.acc[p], sp.Rec.Worker(p)
		var work int64
		for ctx.Err() == nil {
			c, ok := cur.Next()
			if !ok {
				break
			}
			c += cLo
			ps.pool.NoteChunk(p, c)
			sp.Faults.Fire(sp.Phase, sp.K, p, c)
			ow.BeginChunk(sp.K, c)
			lo, hi := ChunkRange(c, sp.Chunk, base, end)
			// Each chunk is claimed once per segment, and segments are
			// separated by the pool barrier, so this write is private.
			cw := count(ctx, sd, base, lo, hi)
			ps.chunkWork[c] += cw
			work += cw
			ow.EndChunk(sp.K, c)
			acc.Claimed++
		}
		ps.pool.NoteChunk(p, -1)
		acc.Work += work
		ow.AddWork(work)
		acc.ElapsedNS += time.Since(t0).Nanoseconds() //armlint:allow determinism wall-clock idle feeds PassResult.Idle only, never the work model
	})
}

// Result returns the pass's accounting; call it after the last segment.
func (ps *Pass) Result() PassResult {
	procs := len(ps.acc)
	r := PassResult{Work: make([]int64, procs)}
	var slowest int64
	for p := range ps.acc {
		r.Work[p] = ps.acc[p].Work
		slowest = max(slowest, ps.acc[p].ElapsedNS)
	}
	for p := range ps.acc {
		r.Idle += time.Duration(slowest - ps.acc[p].ElapsedNS)
	}
	if ps.chunkWork != nil {
		r.Work = GreedySchedule(ps.chunkWork, procs)
		r.Claimed = make([]int64, procs)
		for p := range ps.acc {
			r.Claimed[p] = ps.acc[p].Claimed
		}
	}
	return r
}

// Blocks splits rows into procs contiguous ranges of nearly equal length:
// the paper's block partition, as global ranges of a pass's rows. The
// products run in int64, so no bound near 2³¹ truncates.
func Blocks(rows, procs int) []db.Slice {
	out := make([]db.Slice, procs)
	for p := range out {
		out[p].Lo = int(int64(p) * int64(rows) / int64(procs))
		out[p].Hi = int(int64(p+1) * int64(rows) / int64(procs))
	}
	return out
}
