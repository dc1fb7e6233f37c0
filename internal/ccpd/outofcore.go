package ccpd

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/apriori"
	"repro/internal/db/seg"
)

// ErrSegmentedWorkload is MineSegmentedCtx's rejection of PartitionWorkload,
// whose boundary computation needs a full extra database pass before any
// counting.
var ErrSegmentedWorkload = errors.New("ccpd: out-of-core mining supports block and stealing partitions; workload needs a full up-front pass")

// SegmentedOptions configures an out-of-core CCPD run over a segmented store.
type SegmentedOptions struct {
	Options
	// MemBudget caps the bytes of decoded segments resident at once (the
	// seg.Pipeline budget). 0 double-buffers; a budget below two segments
	// degrades to synchronous load-then-count. Under Options.Project the
	// residual database sits outside it, as the pair triangles do, under
	// the same apriori.PairPassMaxBytes ceiling; once a pass has left one,
	// later passes read it in RAM and load no segment.
	MemBudget int64
	// LoadDelay adds synthetic latency to every segment load — the
	// prefetch-overlap benchmarks' slow-disk model.
	LoadDelay time.Duration
}

// MineSegmented mines a segmented store without ever materializing the whole
// database: every counting pass streams the segments through a pipeline that
// prefetches segment N+1 while the pool counts segment N, until a pass
// leaves a residual database (Options.Project) for the next one to read in
// RAM. It runs the same counting passes as MineCtx, so the frequent sets
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
// PartitionWorkload is not supported (ErrSegmentedWorkload), and neither is
// checkpointing.
//
//armlint:cancellable
func MineSegmentedCtx(ctx context.Context, r *seg.Reader, opts SegmentedOptions) (*apriori.Result, *Stats, error) {
	o := opts.Options.withDefaults()
	if o.DBPart == PartitionWorkload {
		return nil, nil, ErrSegmentedWorkload
	}
	if o.Checkpoint != "" {
		return nil, nil, fmt.Errorf("ccpd: checkpointing is not supported for out-of-core runs")
	}
	start := time.Now()
	numTx := int(r.NumTx()) //armlint:narrowok int is 64-bit on every supported target, so the int64 transaction count converts losslessly
	m := &miner{
		numTx: numTx, numItems: r.NumItems(),
		pipe: r.NewPipeline(seg.PipelineOptions{
			Budget: opts.MemBudget, LoadDelay: opts.LoadDelay, Obs: o.Obs,
		}),
		opts: o, fi: o.FaultInj,
		minCount: o.MinCount(numTx),
		rec:      o.Obs,
	}
	cleanup := m.setupPool()
	defer cleanup()
	return m.mine(ctx, start)
}
