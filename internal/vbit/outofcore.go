package vbit

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/apriori"
	"repro/internal/db/seg"
)

// SegmentedOptions configures an out-of-core vertical run.
type SegmentedOptions struct {
	Options
	// MemBudget caps the bytes of decoded segments resident at once (the
	// seg.Pipeline budget); 0 double-buffers. The columns sit outside it.
	MemBudget int64
	// LoadDelay adds synthetic latency per segment load (benchmark knob).
	LoadDelay time.Duration
}

// ErrTooManyTx is MineSegmentedCtx's refusal of a store of more than
// 2³¹−1 transactions: the columns hold int32 tids.
var ErrTooManyTx = errors.New("vbit: store holds more than 2³¹−1 transactions, past the columns' int32 tids")

// MineSegmented mines a segmented store with the in-RAM engine's pipeline,
// without materializing the horizontal database. As in the authors' Eclat
// (Zaki, Parthasarathy, Ogihara and Li, KDD 1997), it counts horizontally,
// turns the data vertical once and mines the classes depth-first: the F1
// scan, then one stream that fills the columns and, when its cost rule
// pays, runs the pair pass, each stream the segments through one
// seg.Pipeline, so every segment loads twice. The fill writes every
// transaction's global tid (segment offset + row). The columns, the class
// DFS and the work model are therefore exactly those of Mine over the same
// transactions, and the columns are resident.
func MineSegmented(r *seg.Reader, opts SegmentedOptions) (*apriori.Result, *Stats, error) {
	return MineSegmentedCtx(context.Background(), r, opts)
}

// MineSegmentedCtx is MineSegmented under a context; cancellation behaves
// exactly like MineCtx. A store of more than 2³¹−1 transactions is refused
// with ErrTooManyTx before any segment loads. Stats.OutOfCore carries the
// pipeline accounting.
//
//armlint:cancellable
func MineSegmentedCtx(ctx context.Context, r *seg.Reader, opts SegmentedOptions) (*apriori.Result, *Stats, error) {
	if r.NumTx() > math.MaxInt32 {
		return nil, nil, fmt.Errorf("%w (%d)", ErrTooManyTx, r.NumTx())
	}
	pipe := r.NewPipeline(seg.PipelineOptions{Budget: opts.MemBudget, LoadDelay: opts.LoadDelay, Obs: opts.Obs})
	src := source{pipe: pipe, numTx: int(r.NumTx()), numItems: r.NumItems(), totalItems: r.TotalItems()} //armlint:narrowok the store holds at most 2³¹−1 transactions: larger ones were refused above
	res, st, err := mine(ctx, src, opts.Options)
	if st != nil {
		ps := pipe.Stats()
		st.OutOfCore = &ps
	}
	return res, st, err
}
