package ccpd

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/apriori"
	"repro/internal/db"
	"repro/internal/db/seg"
	"repro/internal/hashtree"
	"repro/internal/itemset"
	"repro/internal/sched"
)

// SegmentedOptions configures an out-of-core CCPD run over a segmented store.
type SegmentedOptions struct {
	Options
	// MemBudget caps the bytes of decoded segments resident at once (the
	// seg.Pipeline budget). 0 double-buffers; a budget below two segments
	// degrades to synchronous load-then-count.
	MemBudget int64
	// LoadDelay adds synthetic latency to every segment load — the
	// prefetch-overlap benchmarks' slow-disk model.
	LoadDelay time.Duration
}

// MineSegmented mines a segmented store without ever materializing the whole
// database: every counting pass streams the segments through a pipeline that
// prefetches segment N+1 while the pool counts segment N. The frequent sets
// and the deterministic work model (CountWork, ModelTime, IdleWork) are
// bit-identical to an in-RAM Mine over the same data and options: each
// worker (static block) or chunk (PartitionStealing) covers exactly the same
// global transaction ranges, merely delivered a segment at a time.
func MineSegmented(r *seg.Reader, opts SegmentedOptions) (*apriori.Result, *Stats, error) {
	return MineSegmentedCtx(context.Background(), r, opts)
}

// MineSegmentedCtx is MineSegmented under a context; cancellation behaves
// exactly like MineCtx. Stats.OutOfCore carries the pipeline accounting.
//
// PartitionWorkload is not supported (its boundary computation needs a full
// extra database pass before any counting), and neither is checkpointing.
//
//armlint:cancellable
func MineSegmentedCtx(ctx context.Context, r *seg.Reader, opts SegmentedOptions) (*apriori.Result, *Stats, error) {
	o := opts.Options.withDefaults()
	if o.DBPart == PartitionWorkload {
		return nil, nil, fmt.Errorf("ccpd: out-of-core mining supports block and stealing partitions; workload needs a full up-front pass")
	}
	if o.Checkpoint != "" {
		return nil, nil, fmt.Errorf("ccpd: checkpointing is not supported for out-of-core runs")
	}
	start := time.Now()
	m := &miner{
		opts: o, fi: o.FaultInj,
		minCount: o.MinCount(int(r.NumTx())), //armlint:narrowok int is 64-bit on every supported target, so the int64 transaction count converts losslessly
		rec:      o.Obs,
	}
	m.src = &segSource{
		r: r,
		pipe: r.NewPipeline(seg.PipelineOptions{
			Budget: opts.MemBudget, LoadDelay: opts.LoadDelay, Obs: o.Obs,
		}),
	}
	cleanup := m.setupPool()
	defer cleanup()
	return m.mine(ctx, start)
}

// segSource streams counting passes from a segmented store. One long-lived
// pipeline serves every pass of the run, so its buffers are reused across
// iterations and its stats accumulate the whole mine.
type segSource struct {
	r    *seg.Reader
	pipe *seg.Pipeline
}

// blockRange is processor p's global transaction range under the static
// block partition — the same i*n/p boundaries as db.BlockPartition, in int64.
func blockRange(p, procs int, n int64) (lo, hi int64) {
	return int64(p) * n / int64(procs), int64(p+1) * n / int64(procs)
}

// chunkSpan returns the global chunk ids overlapping [base, segHi).
func chunkSpan(base, segHi, chunkSize int64) (cLo, cHi int) {
	if segHi <= base {
		return 0, 0
	}
	return int(base / chunkSize), int((segHi + chunkSize - 1) / chunkSize)
}

// frequentOne is the streaming iteration 1: per-processor private count
// arrays over block sub-ranges of each segment (summing item counts is
// partition-independent, so the result matches any in-RAM mode), plus the
// work model for the configured partition mode, computed from the same
// per-transaction EstimatedWork figures the in-RAM model uses.
func (s *segSource) frequentOne(ctx context.Context, m *miner) ([]apriori.FrequentItemset, []int64, error) {
	opts := m.opts
	procs := opts.Procs
	numItems := s.r.NumItems()
	n := s.r.NumTx()
	cs := int64(opts.ChunkSize)

	local := make([][]int64, procs)
	for p := range local {
		local[p] = make([]int64, numItems)
	}
	var chunkEst []int64
	blockEst := make([]int64, procs)
	if opts.DBPart == PartitionStealing {
		chunkEst = make([]int64, sched.NumChunks(int(n), opts.ChunkSize)) //armlint:narrowok int is 64-bit on every supported target, so the int64 transaction count converts losslessly
	}

	err := s.pipe.ForEach(ctx, func(si int, sd *db.Database) error {
		base := s.r.Segment(si).TxOff
		segHi := base + int64(sd.Len())
		// Work-model attribution, on the coordinator: per-chunk (stealing) or
		// per-processor-block (static) Σ|t| — EstimatedWork(1) — scaled by
		// the item-scan cost, exactly as iterOneCountWork computes in RAM.
		if chunkEst != nil {
			cLo, cHi := chunkSpan(base, segHi, cs)
			//armlint:allow ctxpoll per-chunk estimation over one resident segment; the enclosing segment loop polls between segments
			for c := cLo; c < cHi; c++ {
				lo, hi := maxI64(int64(c)*cs, base), minI64(int64(c+1)*cs, segHi)
				var w int64
				//armlint:allow ctxpoll chunk slice of one resident segment; the enclosing segment loop polls between segments
				for i := lo; i < hi; i++ {
					w += int64(sd.Items(int(i - base)).K())
				}
				chunkEst[c] += w * hashtree.WorkItemScan
			}
		} else {
			//armlint:allow ctxpoll per-processor estimation over one resident segment; the enclosing segment loop polls between segments
			for p := 0; p < procs; p++ {
				lo, hi := blockRange(p, procs, n)
				lo, hi = maxI64(lo, base), minI64(hi, segHi)
				var w int64
				//armlint:allow ctxpoll block slice of one resident segment; the enclosing segment loop polls between segments
				for i := lo; i < hi; i++ {
					w += int64(sd.Items(int(i - base)).K())
				}
				blockEst[p] += w * hashtree.WorkItemScan
			}
		}
		return m.pool.Run(func(p int) {
			m.fi.Fire("f1", 1, p, si)
			counts := local[p]
			lo, hi := blockRange(p, procs, n)
			lo, hi = maxI64(lo, base), minI64(hi, segHi)
			for i := lo; i < hi; i++ {
				if (i-lo)%cs == 0 && ctx.Err() != nil {
					break
				}
				for _, it := range sd.Items(int(i - base)) {
					counts[it]++
				}
			}
		})
	})
	if err != nil && !errors.Is(err, context.Canceled) {
		// A canceled pass falls through: the caller's robust.Canceled check
		// discards the partial counts, the same contract as the in-RAM path.
		return nil, nil, err
	}

	var out []apriori.FrequentItemset
	for it := 0; it < numItems; it++ {
		var c int64
		for p := 0; p < procs; p++ {
			c += local[p][it]
		}
		if c >= m.minCount {
			out = append(out, apriori.FrequentItemset{Items: itemset.New(itemset.Item(it)), Count: c})
		}
	}
	work := blockEst
	if chunkEst != nil {
		work = sched.GreedySchedule(chunkEst, procs)
	}
	return out, work, nil
}

// countPhase streams one support-counting pass. Workers keep their CountCtx
// (tree walk state, work tally) across segments, so the pass-level
// accounting is identical to counting the concatenated database:
//
//   - Static block: worker p counts the intersection of its global block
//     [p·n/P, (p+1)·n/P) with each segment — the same transactions, in the
//     same order, as the in-RAM BlockPartition, so per-processor CountWork
//     matches bit-for-bit.
//   - Stealing: the global ChunkSize grid is preserved; each segment
//     claims its overlapping chunk ids from a per-segment deque set. A
//     chunk straddling a segment edge is counted in two pieces (its
//     work accumulates across the two sequential segment passes — no race,
//     the pool barrier sits between them), so chunkWork, and with it the
//     GreedySchedule CountWork model, is bit-identical to in-RAM. Claims and
//     steals remain runtime-dependent, and ChunksClaimed sums to the chunk
//     count plus one extra claim per straddled boundary.
func (s *segSource) countPhase(ctx context.Context, m *miner, tree *hashtree.Tree, counters *hashtree.Counters, k int) (countResult, error) {
	opts := m.opts
	procs := opts.Procs
	rec := opts.Obs
	fi := opts.FaultInj
	n := s.r.NumTx()
	cs := int64(opts.ChunkSize)

	acc := make([]sched.PerWorker, procs)
	ctxs := make([]*hashtree.CountCtx, procs)
	ctxOf := func(p int) *hashtree.CountCtx {
		if ctxs[p] == nil {
			ctxs[p] = tree.NewCountCtx(counters, hashtree.CountOpts{ShortCircuit: opts.ShortCircuit, Proc: p})
		}
		return ctxs[p]
	}

	var chunkWork []int64
	if opts.DBPart == PartitionStealing {
		chunkWork = make([]int64, sched.NumChunks(int(n), opts.ChunkSize)) //armlint:narrowok int is 64-bit on every supported target, so the int64 transaction count converts losslessly
	}

	err := s.pipe.ForEach(ctx, func(si int, sd *db.Database) error {
		base := s.r.Segment(si).TxOff
		segHi := base + int64(sd.Len())

		if opts.DBPart != PartitionStealing {
			return m.pool.Run(func(p int) {
				t0 := time.Now()
				fi.Fire("count", k, p, si)
				ctxc := ctxOf(p)
				lo, hi := blockRange(p, procs, n)
				lo, hi = maxI64(lo, base), minI64(hi, segHi)
				for i := lo; i < hi; i++ {
					if (i-lo)%cs == 0 && ctx.Err() != nil {
						break
					}
					ctxc.CountTransaction(sd.Items(int(i - base)))
				}
				acc[p].ElapsedNS += time.Since(t0).Nanoseconds()
			})
		}
		cLo, cHi := chunkSpan(base, segHi, cs)
		st := sched.NewStealing(procs)
		st.SeedBlocks(cHi - cLo)
		return m.pool.Run(func(p int) {
			t0 := time.Now()
			ctxc := ctxOf(p)
			w := &acc[p]
			ow := rec.Worker(p)
			for ctx.Err() == nil {
				lc, victim, ok := st.Next(p)
				if !ok {
					break
				}
				c := cLo + int(lc)
				if victim != p {
					w.Stolen++
					ow.Steal(k, c, victim)
				}
				m.pool.NoteChunk(p, c)
				fi.Fire("count", k, p, c)
				ow.BeginChunk(k, c)
				lo, hi := maxI64(int64(c)*cs, base), minI64(int64(c+1)*cs, segHi)
				before := ctxc.Work
				//armlint:allow ctxpoll a chunk is at most ChunkSize transactions; the claim loop around it polls between chunks
				for i := lo; i < hi; i++ {
					ctxc.CountTransaction(sd.Items(int(i - base)))
				}
				// Claimed once per segment; segments are separated by the
				// pool barrier, so the accumulation is race-free even for
				// chunks that straddle a segment edge.
				chunkWork[c] += ctxc.Work - before
				ow.EndChunk(k, c)
				w.Claimed++
			}
			m.pool.NoteChunk(p, -1)
			w.ElapsedNS += time.Since(t0).Nanoseconds()
		})
	})
	if err != nil && !errors.Is(err, context.Canceled) {
		// Cancellation falls through with partial counts; buildCountExtract's
		// robust.Canceled check right after countPhase discards them — the
		// same contract as the in-RAM phase.
		return countResult{}, err
	}

	// Per-worker work tallies, read after the last segment's barrier.
	for p, ctxc := range ctxs {
		if ctxc != nil {
			rec.Worker(p).AddWork(ctxc.Work)
			acc[p].Work = ctxc.Work
		}
	}

	cr := countResult{Idle: idleOf(acc)}
	if opts.DBPart == PartitionStealing {
		cr.Work = sched.GreedySchedule(chunkWork, procs)
		cr.Claimed = make([]int64, procs)
		cr.Steals = make([]int64, procs)
		for p := range acc {
			cr.Claimed[p] = acc[p].Claimed
			cr.Steals[p] = acc[p].Stolen
		}
	} else {
		cr.Work = make([]int64, procs)
		for p := range acc {
			cr.Work[p] = acc[p].Work
		}
	}
	return cr, nil
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func minI64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
