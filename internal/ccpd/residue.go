package ccpd

import (
	"context"
	"fmt"
	"slices"
	"sync/atomic"

	"repro/internal/apriori"
	"repro/internal/db"
	"repro/internal/itemset"
	"repro/internal/robust/ckpt"
)

// The residual database carries DHP's transaction trimming (Park, Chen and
// Yu, SIGMOD 1995) across passes. Every item of a (k+1)-candidate occurs in
// some k-candidate, so a row that holds a (k+1)-candidate keeps at least k+1
// of pass k's candidate items. An unbatched projected hash-tree pass k
// therefore keeps the rows its walk saw with at least k+1 items, projected
// onto its tree's candidate items and in source order, and pass k+1 counts
// over them instead of the source. That residue depends only on the source
// and C_k's items: rows dropped earlier hold too few of them, and the items
// dropped earlier are not among them.

// residueFlushBytes is how many bytes a worker writes between adding them
// to the pass's shared total: the most a worker can overshoot the ceiling
// by before it notices.
const residueFlushBytes = 64 << 10

// residueRowBytes and residueItemBytes are a residue's footprint: a tid and
// an offset per row, one arena cell per item (db.Database.SizeBytes).
const (
	residueRowBytes  = 12
	residueItemBytes = 4
)

// residueWriter builds the residue of one pass from its workers' buffers.
// The residue is dropped when it would outgrow the byte ceiling: the next
// pass then reads the source.
type residueWriter struct {
	limit    int64 // byte ceiling
	numItems int
	bytes    atomic.Int64 // bytes flushed by the workers
	bufs     []*residueBuf
}

// newResidueWriter prepares the residue of a pass for the next one.
func (m *miner) newResidueWriter() *residueWriter {
	return &residueWriter{
		limit: m.opts.residueMaxBytes, numItems: m.numItems,
		bufs: make([]*residueBuf, m.opts.Procs),
	}
}

// buf returns worker p's buffer, allocating it on first use. Only worker p
// calls it, and finish reads the buffers after the pool barrier. A nil
// writer returns a nil buffer, on which begin and end do nothing.
func (w *residueWriter) buf(p int) *residueBuf {
	if w == nil {
		return nil
	}
	if w.bufs[p] == nil {
		w.bufs[p] = &residueBuf{w: w}
	}
	return w.bufs[p]
}

// rowSpan is one counted range's kept rows in a worker's buffer: rows
// [first, end), taken from the source transactions starting at global
// index at.
type rowSpan struct {
	at, first, end int
}

// residueBuf holds the rows one worker kept, in the order it counted them,
// with one span per counted range so finish can restore source order.
type residueBuf struct {
	w       *residueWriter
	tids    []int64
	ends    []int32 // row r is items[ends[r-1]:ends[r]] (from 0 for r=0)
	items   []itemset.Item
	spans   []rowSpan
	pending int64 // bytes not yet added to w.bytes
	dropped bool  // the residue outgrew the ceiling: keep nothing more
}

// begin opens the span of a range whose first transaction has global index
// at.
func (b *residueBuf) begin(at int) {
	if b == nil || b.dropped {
		return
	}
	b.spans = append(b.spans, rowSpan{at: at, first: len(b.tids)})
}

// add keeps row, which the caller found long enough. row may be a reused
// buffer: its items are copied.
func (b *residueBuf) add(tid int64, row itemset.Itemset) {
	if b.dropped {
		return
	}
	b.tids = append(grow(b.tids, 1), tid)
	b.items = append(grow(b.items, len(row)), row...)
	b.ends = append(grow(b.ends, 1), int32(len(b.items))) //armlint:narrowok a kept buffer stays under the byte ceiling plus one flush, far below 2³¹ items
	b.pending += residueRowBytes + residueItemBytes*int64(len(row))
	if b.pending >= residueFlushBytes {
		b.flush()
	}
}

// grow makes room for n more elements in s, doubling its capacity when they
// do not fit: append grows a large slice by about 1.25×, which copies a
// buffer that keeps growing several times over.
func grow[T any](s []T, n int) []T {
	if cap(s)-len(s) < n {
		s = slices.Grow(s, max(n, cap(s)))
	}
	return s
}

// end closes the current span and reports its bytes to the shared total.
func (b *residueBuf) end() {
	if b == nil || b.dropped {
		return
	}
	b.spans[len(b.spans)-1].end = len(b.tids)
	b.flush()
}

// flush adds the pending bytes to the pass's total and drops this worker's
// rows once the total passes the ceiling. The total only grows, so the
// residue is dropped exactly when all its rows would not fit, whichever
// worker notices.
func (b *residueBuf) flush() {
	if b.w.bytes.Add(b.pending) > b.w.limit {
		*b = residueBuf{w: b.w, dropped: true}
		return
	}
	b.pending = 0
}

// finish assembles the kept rows in source order into the residue, or
// returns nil when the residue outgrew the ceiling (or w is nil). Call it
// after the pass's pool barrier.
func (w *residueWriter) finish() *db.Database {
	if w == nil || w.bytes.Load() > w.limit {
		return nil
	}
	type ref struct {
		b *residueBuf
		s rowSpan
	}
	var refs []ref
	var rows, items int
	for _, b := range w.bufs {
		if b == nil {
			continue
		}
		for _, s := range b.spans {
			if s.end > s.first {
				refs = append(refs, ref{b, s})
			}
		}
		rows += len(b.tids)
		items += len(b.items)
	}
	slices.SortFunc(refs, func(x, y ref) int { return x.s.at - y.s.at })
	tids := make([]int64, 0, rows)
	offs := make([]int32, 1, rows+1)
	arena := make([]itemset.Item, 0, items)
	for _, r := range refs {
		b, s := r.b, r.s
		var lo int32
		if s.first > 0 {
			lo = b.ends[s.first-1]
		}
		shift := int32(len(arena)) - lo //armlint:narrowok the residue is under the byte ceiling, far below 2³¹ items
		arena = append(arena, b.items[lo:b.ends[s.end-1]]...)
		tids = append(tids, b.tids[s.first:s.end]...)
		for _, e := range b.ends[s.first:s.end] {
			offs = append(offs, e+shift)
		}
	}
	d, err := db.FromDerivedColumns(tids, offs, arena, w.numItems)
	if err != nil {
		panic(fmt.Sprintf("ccpd: residue columns malformed: %v", err))
	}
	return d
}

// rebuildResidue recreates the residue a straight run hands iteration
// c.NextK, for a run resumed from checkpoint c: checkpoints store no
// residue. Iteration c.NextK−1 wrote one if it was an unbatched projected
// hash-tree pass; its candidate items come from regenerating its
// candidates from the checkpointed frequent sets. The rebuild is one scan
// of the source outside the work model, so the resumed passes count
// exactly what the straight run's did. A cancellation leaves no residue;
// the loop's first check then returns it.
func (m *miner) rebuildResidue(ctx context.Context, c *ckpt.Checkpoint) {
	j := c.NextK - 1
	if j < 2 || j > len(c.Iters) || c.Iters[j-1].BuildWork == 0 || !m.writesResidue(j, c.Iters[j-1].Batches) {
		return
	}
	prev := make([]itemset.Itemset, len(c.ByK[j-1]))
	for i, f := range c.ByK[j-1] {
		prev[i] = f.Items
	}
	cands, _, _ := apriori.GenerateCandidates(prev, m.opts.NaiveJoin)
	in := make([]bool, m.numItems)
	for _, cand := range cands {
		for _, it := range cand {
			in[it] = true
		}
	}
	w := m.newResidueWriter()
	b := w.buf(0)
	b.begin(0)
	row := make(itemset.Itemset, 0, len(in))
	for i := 0; i < m.d.Len(); i++ {
		if i%m.opts.ChunkSize == 0 && ctx.Err() != nil {
			return
		}
		row = row[:0]
		for _, it := range m.d.Items(i) {
			if uint(it) < uint(len(in)) && in[it] {
				row = append(row, it)
			}
		}
		if len(row) > j {
			b.add(m.d.TID(i), row)
		}
	}
	b.end()
	m.resid = w.finish()
}
