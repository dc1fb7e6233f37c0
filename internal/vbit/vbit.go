package vbit

import (
	"cmp"
	"context"
	"errors"
	"runtime"
	"slices"
	"time"

	"repro/internal/apriori"
	"repro/internal/db"
	"repro/internal/db/seg"
	"repro/internal/itemset"
	"repro/internal/obs"
	"repro/internal/robust"
	"repro/internal/sched"
)

// Options configures a vertical mining run.
type Options struct {
	// MinSupport is the minimum support fraction (used when AbsSupport is 0).
	MinSupport float64
	// AbsSupport is the absolute minimum count; overrides MinSupport.
	AbsSupport int64
	// MaxK limits itemset size (0 = unlimited).
	MaxK int
	// Procs is the worker count (default: GOMAXPROCS).
	Procs int
	// DensityCutoff is the item density below which a column is stored as a
	// tidlist instead of a bitmap (<= 0: DefaultDensityCutoff). Values > 1
	// force the all-tidlist layout; tiny positive values force all-bitmap.
	DensityCutoff float64
	// ChunkStride is how many transactions the F1 scan and the pair pass
	// count between cancellation polls, and the pair pass's chunk size
	// (default 256, as in CCPD's static modes).
	ChunkStride int
	// Obs receives phase spans, per-class chunk events and iteration stats;
	// nil disables observability.
	Obs *obs.Recorder

	// forcePairs overrides the pair pass's cost rule in tests: +1 runs the
	// pass, −1 skips it, 0 leaves the decision to pairPassPays.
	forcePairs int8
}

func (o Options) withDefaults() Options {
	if o.Procs <= 0 {
		o.Procs = runtime.GOMAXPROCS(0)
	}
	if o.ChunkStride <= 0 {
		o.ChunkStride = 256
	}
	if o.DensityCutoff <= 0 {
		o.DensityCutoff = DefaultDensityCutoff
	}
	return o
}

// Stats carries the deterministic work model of one vertical run, mirroring
// ccpd.Stats: per-processor totals are modelled (GreedySchedule over the
// per-class work) because runtime class assignment is racy, while the work
// units themselves are exact deterministic functions of the database and
// options — pinned by TestModelPinned.
type Stats struct {
	Procs       int
	Classes     int // first-level equivalence classes (frequent items)
	DenseItems  int // columns stored as bitmaps
	SparseItems int // columns stored as tidlists

	// F1Work is the per-processor item-scan work of the F1 row pass (block
	// partition, as CCPD's iteration 1 under PartitionBlock).
	F1Work []int64
	// BuildWork is the serial fill pass materializing the vertical columns.
	BuildWork int64
	// ClassWork[c] is the DFS work of the c-th first-level class in mining
	// order (classOrder): every kernel word/tid touched while diffing that
	// class's subtree. Written once by the class's claimant, deterministic
	// per class.
	ClassWork []int64
	// CountWork is the greedy list-schedule of ClassWork over Procs — the
	// deterministic stand-in for the racy dynamic class assignment.
	CountWork []int64
	// ReduceWork is the k-way merge work (total itemsets merged, k >= 2).
	// Each class sorts its own lists before the merge, uncharged, as the
	// DFS's emits are.
	ReduceWork int64
	// PairWork[p] is processor p's pair-pass work (item scans plus
	// triangle increments), the greedy list-schedule of the per-chunk work;
	// nil when the pass did not run.
	PairWork []int64

	Total time.Duration // wall clock, whole run
	Count time.Duration // wall clock, class-DFS phase
	Pairs time.Duration // wall clock, pair pass (count + reduce)

	// OutOfCore carries the segment pipeline's accounting (loads, stalls,
	// prefetch overlap) when the run was mined from a segmented store via
	// MineSegmented; nil for in-RAM runs.
	OutOfCore *seg.PipelineStats
}

// TotalWork sums every modelled work unit across processors.
func (s *Stats) TotalWork() int64 {
	var w int64 = s.BuildWork + s.ReduceWork
	for _, v := range s.F1Work {
		w += v
	}
	for _, v := range s.PairWork {
		w += v
	}
	for _, v := range s.ClassWork {
		w += v
	}
	return w
}

// ModelTime is the modelled parallel execution time: the critical paths of
// the F1 scan, the pair pass and the scheduled class work, plus the serial
// build and merge.
func (s *Stats) ModelTime() int64 {
	return maxOf(s.F1Work) + s.BuildWork + maxOf(s.PairWork) + maxOf(s.CountWork) + s.ReduceWork
}

// LargestClassShare is the largest class's share of the class work: the
// skew that bounds the class-granularity schedule (0 without class work).
func (s *Stats) LargestClassShare() float64 {
	var sum int64
	for _, w := range s.ClassWork {
		sum += w
	}
	if sum == 0 {
		return 0
	}
	return float64(maxOf(s.ClassWork)) / float64(sum)
}

func maxOf(v []int64) int64 {
	var m int64
	for _, x := range v {
		m = max(m, x)
	}
	return m
}

// Mine runs the word-parallel dEclat engine and returns the frequent
// itemsets in the same apriori.Result shape as every other engine, with
// deterministic ordering (ascending itemsets within each k).
func Mine(d *db.Database, opts Options) (*apriori.Result, *Stats, error) {
	return MineCtx(context.Background(), d, opts)
}

// annotate stamps phase/iteration context onto a contained worker panic.
func annotate(err error, phase string, k int) error {
	var wp *robust.WorkerPanicError
	if errors.As(err, &wp) {
		wp.Phase, wp.K = phase, k
	}
	return err
}

// MineCtx runs the engine under a context; a nil ctx never cancels.
// Cancellation is cooperative: the F1 scan and the pair pass poll every
// ChunkStride transactions, the DFS phase polls at every class claim, and a
// cancelled run returns the partial result (every class completed before
// the cancellation point, merged in class order) together with a
// *robust.CanceledError naming the interrupted phase.
//
// When its cost rule (pairPassPays) says it pays, the k=2 pair pass counts
// every pair of frequent items into private per-worker triangles
// (apriori.PairCount) before the class DFS, which then builds level-2
// diffsets only for frequent pairs. The output is the same either way.
//
//armlint:cancellable
func MineCtx(ctx context.Context, d *db.Database, opts Options) (*apriori.Result, *Stats, error) {
	return mine(ctx, inRAM(d), opts)
}

// source is what a mine's horizontal passes read: an in-RAM database, or a
// segmented store streamed through its pipeline (seg.EachSegment).
type source struct {
	d          *db.Database  // in-RAM database; nil for a store
	pipe       *seg.Pipeline // the store's pipeline; nil in RAM
	numTx      int
	numItems   int
	totalItems int64
}

// inRAM is the source over an in-RAM database.
func inRAM(d *db.Database) source {
	return source{d: d, numTx: d.Len(), numItems: d.NumItems(), totalItems: d.TotalItems()}
}

// mine is the whole run, shared by MineCtx and MineSegmentedCtx: the F1
// scan, then one stream that fills the columns and runs the pair pass,
// read the source, and every later phase reads the columns only. A store is
// therefore loaded twice, whatever the mine's depth.
func mine(ctx context.Context, src source, opts Options) (*apriori.Result, *Stats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	opts = opts.withDefaults()
	start := time.Now() //armlint:allow determinism wall-clock phase total feeds Stats only, never the work model
	minCount := apriori.Options{MinSupport: opts.MinSupport, AbsSupport: opts.AbsSupport}.MinCount(src.numTx)
	rec := opts.Obs
	res := &apriori.Result{MinCount: minCount, ByK: make([][]apriori.FrequentItemset, 2)}
	stats := &Stats{Procs: opts.Procs}

	if err := robust.Canceled(ctx, "f1", 1); err != nil {
		return nil, nil, err
	}
	pool := sched.NewPool(opts.Procs)
	if rec.Enabled() {
		pool.SetWrap(rec.PoolWrap)
	}
	defer func() {
		if rec.Enabled() {
			pool.SetWrap(nil)
		}
		pool.Close()
	}()

	// Phase 1: the F1 row pass (block partition, private item counts). The
	// counts are kept whole: the layout build reuses them.
	rec.SetPhase(obs.PhaseF1, 1)
	rec.BeginPhase(obs.PhaseF1, 1)
	ic := apriori.NewItemCount(opts.Procs, src.numItems, opts.ChunkStride)
	f1 := sched.NewPass(ctx, pool, sched.PassSpec{Phase: "f1", K: 1, Static: sched.Blocks(src.numTx, opts.Procs), Rec: rec}, ic.Kernel)
	err := seg.EachSegment(ctx, src.d, src.pipe, f1.Segment)
	rec.EndPhase(obs.PhaseF1, 1)
	if err != nil {
		return nil, nil, annotate(err, "f1", 1)
	}
	if err := robust.Canceled(ctx, "f1", 1); err != nil {
		// Interrupted mid-scan: the counts are partial, nothing is usable.
		return nil, nil, err
	}
	stats.F1Work = f1.Result().Work
	sups, pairBound := ic.Sums()
	res.ByK[1] = apriori.FrequentItems(sups, minCount)
	rec.IterStats(1, src.numItems, len(res.ByK[1]))
	if opts.MaxK == 1 || len(res.ByK[1]) < 2 {
		stats.Total = time.Since(start) //armlint:allow determinism wall-clock phase total feeds Stats only, never the work model
		return res, stats, nil
	}

	// Phase 2: size the columns and order the classes. Both need only F1,
	// and so does the pair pass's cost rule, which reads the columns'
	// classification: the pass can share the fill's segment stream.
	if err := robust.Canceled(ctx, "build", 2); err != nil {
		return res, stats, err
	}
	lay := newLayout(src.numTx, src.numItems, opts.DensityCutoff, minCount, sups)
	defer lay.release()
	heads := classOrder(res.ByK[1])
	stats.Classes = len(heads)
	var pp *pairPass
	if opts.forcePairs > 0 ||
		opts.forcePairs == 0 && pairPassPays(pairBound, levelTwoWork(heads, lay), opts.Procs, len(heads)) {
		pp = newPairPass(ctx, apriori.NewPairCount(res.ByK[1], src.numItems), pool, src.numTx, opts.ChunkStride, rec)
		defer pp.release()
	}

	// Phase 3: one stream over the source fills the columns (serial; the
	// counting half of the build already ran in parallel above) and, when
	// it pays, counts every pair of frequent items, segment by segment.
	// Tids are global, so a store's columns are the in-RAM ones. The
	// reduced triangle lets the class DFS skip every infrequent pair's
	// level-2 diffset.
	//
	// The fill polls nothing and runs on this goroutine, so a cancellation
	// or worker panic inside the stream is the pair pass's when it runs.
	phase := "build"
	if pp != nil {
		phase = "pairs"
	}
	err = seg.EachSegment(ctx, src.d, src.pipe, func(si, base int, sd *db.Database) error {
		rec.SetPhase(obs.PhaseTreeBuild, 2)
		rec.BeginPhase(obs.PhaseTreeBuild, 2)
		lay.fill(base, sd)
		rec.EndPhase(obs.PhaseTreeBuild, 2)
		if pp == nil {
			return nil
		}
		return pp.count(si, base, sd)
	})
	if err != nil {
		return nil, nil, annotate(err, phase, 2)
	}
	if err := robust.Canceled(ctx, phase, 2); err != nil {
		return res, stats, err
	}
	stats.BuildWork = src.totalItems * WorkItemScan
	stats.DenseItems = lay.denseItems
	stats.SparseItems = lay.sparseItems
	var pc *apriori.PairCount
	var tri []int32
	if pp != nil {
		pc = pp.pc
		tri, stats.PairWork, err = pp.reduce()
		stats.Pairs = pp.wall
		if err != nil {
			return nil, nil, annotate(err, "pairs", 2)
		}
	}

	// Phase 4: per-equivalence-class dEclat DFS on the shared pool. Classes
	// are claimed dynamically through an atomic cursor; each class's result
	// lists and work total are written once by its claimant.
	rec.SetPhase(obs.PhaseCount, 2)
	rec.BeginPhase(obs.PhaseCount, 2)
	tCount := time.Now() //armlint:allow determinism wall-clock phase total feeds Stats only, never the work model
	classWork := make([]int64, len(heads))
	classDone := make([]bool, len(heads))
	classOut := make([][][]apriori.FrequentItemset, len(heads))
	cur := sched.NewCursor(len(heads))
	err = pool.Run(func(p int) {
		t := newTask(lay, minCount, opts.MaxK, len(heads))
		t.pc, t.tri = pc, tri
		var ow *obs.Worker
		if rec.Enabled() {
			ow = rec.Worker(p)
		}
		for ctx.Err() == nil {
			c, ok := cur.Next()
			if !ok {
				return
			}
			pool.NoteChunk(p, c)
			ow.BeginChunk(2, c)
			t.work = 0
			classOut[c] = t.mineClass(heads, c)
			classWork[c] = t.work
			classDone[c] = true
			ow.EndChunk(2, c)
			ow.AddWork(t.work)
		}
	})
	rec.EndPhase(obs.PhaseCount, 2)
	stats.Count = time.Since(tCount) //armlint:allow determinism wall-clock phase total feeds Stats only, never the work model
	if err != nil {
		return nil, nil, annotate(err, "count", 2)
	}
	stats.ClassWork = classWork
	stats.CountWork = sched.GreedySchedule(classWork, opts.Procs)

	// Phase 5: merge the per-class per-k lists. Each class sorts its own
	// k-sets, and the classes' sets are disjoint, so the k-way merge yields
	// the deterministic global ordering every engine shares.
	rec.SetPhase(obs.PhaseReduce, 2)
	rec.BeginPhase(obs.PhaseReduce, 2)
	for k := 2; ; k++ {
		var ranges [][]apriori.FrequentItemset
		for c := range classOut {
			if classDone[c] && k < len(classOut[c]) && len(classOut[c][k]) > 0 {
				ranges = append(ranges, classOut[c][k])
			}
		}
		if len(ranges) == 0 {
			break
		}
		fk := apriori.MergeFrequent(ranges)
		res.ByK = append(res.ByK, fk)
		stats.ReduceWork += int64(len(fk))
		rec.IterStats(k, len(fk), len(fk))
	}
	rec.EndPhase(obs.PhaseReduce, 2)
	stats.Total = time.Since(start) //armlint:allow determinism wall-clock phase total feeds Stats only, never the work model

	if err := robust.Canceled(ctx, "count", 2); err != nil {
		return res, stats, err
	}
	return res, stats, nil
}

// pairPassPays is the cost rule for the pair pass over n frequent items:
// its increment bound (Σ_t C(|t|,2), at WorkPairInc each) must undercut the
// level-2 diffset work it lets the DFS skip, and procs triangles must fit
// apriori.PairPassMaxBytes.
func pairPassPays(bound, levelTwo int64, procs, n int) bool {
	return bound*apriori.WorkPairInc < levelTwo && apriori.PairTrianglesFit(procs, n, apriori.PairPassMaxBytes)
}

// levelTwoWork is the work diffInto charges for every level-2 diffset
// d(ab) = t(a) \ t(b), a before b in class order, computed in O(|F1|) from
// the layout's classification, before the fill: per pair, Words when a is a
// bitmap or sup(a) when it is a tidlist, plus sup(b) when b is a tidlist.
// A tidlist holds its item's support in tids once filled.
func levelTwoWork(heads []head, lay *Layout) int64 {
	var w, laterLists int64
	for c := len(heads) - 1; c >= 0; c-- {
		dense := lay.sets[heads[c].item].dense()
		own := int64(lay.Words) * WorkWordOp
		if !dense {
			own = heads[c].sup * WorkTidOp
		}
		w += int64(len(heads)-c-1)*own + laterLists
		if !dense {
			laterLists += heads[c].sup * WorkTidOp
		}
	}
	return w
}

// pairPass counts every pair of frequent items into one private triangle per
// worker, one segment at a time, and reduces them, by cell range, into the
// first. Workers claim chunks of a global stride-transaction grid from a
// cursor (sched.Pass; a long transaction costs quadratically more, so a
// static split would strand work), and the pass's work is the greedy
// list-schedule of the per-chunk work — the deterministic stand-in for the
// racy claims, as CountWork is for the classes. On cancellation the counts
// are partial and the caller discards them.
type pairPass struct {
	pc   *apriori.PairCount
	pool *sched.Pool
	pass *sched.Pass
	rec  *obs.Recorder
	tris [][]int32     // per-worker triangles; tris[0] takes the reduction
	wall time.Duration // the pass's own wall clock: its segments plus the reduction
}

func newPairPass(ctx context.Context, pc *apriori.PairCount, pool *sched.Pool, numTx, stride int, rec *obs.Recorder) *pairPass {
	pp := &pairPass{pc: pc, pool: pool, rec: rec, tris: make([][]int32, pool.Procs())}
	spec := sched.PassSpec{Phase: "pairs", K: 2, Rows: numTx, Chunk: stride, Rec: rec}
	pp.pass = sched.NewPass(ctx, pool, spec, func(p int) sched.Kernel {
		pp.tris[p] = getBuf[int32](&triPool, pc.Cells(), true)
		return pc.Kernel(pp.tris[p], stride)
	})
	return pp
}

// begin opens one of the pass's phase spans and returns its closer, which
// adds the span to the pass's wall clock.
func (pp *pairPass) begin() func() {
	pp.rec.SetPhase(obs.PhasePairs, 2)
	pp.rec.BeginPhase(obs.PhasePairs, 2)
	t0 := time.Now() //armlint:allow determinism wall-clock phase total feeds Stats only, never the work model
	return func() {
		pp.rec.EndPhase(obs.PhasePairs, 2)
		pp.wall += time.Since(t0) //armlint:allow determinism wall-clock phase total feeds Stats only, never the work model
	}
}

// count adds the pairs of segment sd (index si), whose first transaction
// has global tid base.
func (pp *pairPass) count(si, base int, sd *db.Database) error {
	defer pp.begin()()
	return pp.pass.Segment(si, base, sd)
}

// reduce sums the triangles into the first and returns it with the pass's
// per-processor work. Every segment must have been counted.
func (pp *pairPass) reduce() (tri []int32, work []int64, err error) {
	defer pp.begin()()
	procs, cells := pp.pool.Procs(), pp.pc.Cells()
	err = pp.pool.Run(func(p int) {
		apriori.ReduceRange(pp.tris, p*cells/procs, (p+1)*cells/procs)
	})
	return pp.tris[0], pp.pass.Result().Work, err
}

// release returns the triangles to their pool; the pass and its reduced
// triangle must be dead.
func (pp *pairPass) release() {
	for _, t := range pp.tris {
		putBuf(&triPool, t)
	}
}

// head is one first-level class anchor: a frequent item, its support, and
// its F1 rank, which is its row and column in the pair triangle.
type head struct {
	item itemset.Item
	sup  int64
	rank int
}

// classOrder returns F1's items as class anchors in mining order: ascending
// support, ties by item id. Class c extends its anchor with the anchors
// after it only, so the least frequent item anchors the most extensions
// but has the smallest tidset, and the most frequent, whose diffsets
// against the others are the largest, anchors none (DESIGN.md "Class
// order").
func classOrder(f1 []apriori.FrequentItemset) []head {
	heads := make([]head, len(f1))
	for r, f := range f1 {
		heads[r] = head{item: f.Items[0], sup: f.Count, rank: r}
	}
	slices.SortFunc(heads, func(a, b head) int {
		return cmp.Or(cmp.Compare(a.sup, b.sup), cmp.Compare(a.item, b.item))
	})
	return heads
}

// node is one class member during the DFS: the extension item, its
// support, and its stored set — a tidset at level 1, a diffset below.
type node struct {
	item itemset.Item
	sup  int64
	s    set
}

// task is one worker's DFS state, reused across the classes it claims.
// Scratch buffers are caller-provided to the kernels (never allocated in
// the hot path); diffsets are carved from the two DFS-scoped stacks and
// child lists reuse one slice per depth, so a class's DFS allocates only
// its output. The per-class output arena is fresh per class because the
// emitted itemsets alias it.
type task struct {
	lay      *Layout
	scr      *Scratch
	minCount int64
	maxK     int
	work     int64
	// pc and tri are the pair pass's kernel and reduced triangle; nil when
	// the pass did not run.
	pc  *apriori.PairCount
	tri []int32

	// width is the bitmap width of the current frame: Layout.Words, or
	// ⌈sup(a)/64⌉ while the subtree of a projected class a runs over tids
	// re-numbered by rank within t(a). The switch-over rule (keepBitmap)
	// applies inside the frame.
	width int
	// cum and moves are the projected anchor's ProjectTable (Words+1 and
	// Words entries), allocated at the task's first projected class.
	cum   []int32
	moves [][6]uint64

	pfx   []itemset.Item // prefix stack, pfx[:depth] is the current prefix
	kids  [][]node       // kids[d]: the reused node list grow(d) walks
	words stack[uint64]  // bitmap diffsets of the live DFS path
	tids  stack[int32]   // tidlist diffsets of the live DFS path
	arena []itemset.Item // per-class backing store for emitted itemsets
	out   [][]apriori.FrequentItemset
}

// stackBlockSets is how many full-width bitmaps one stack block holds. The
// blocks a DFS needs then depend on how many diffsets its deepest path
// keeps live, not on the transaction count.
const stackBlockSets = 32

func newTask(lay *Layout, minCount int64, maxK, maxDepth int) *task {
	blockLen := stackBlockSets * max(lay.Words, 1)
	return &task{
		lay:      lay,
		scr:      lay.NewScratch(),
		minCount: minCount,
		maxK:     maxK,
		width:    lay.Words,
		pfx:      make([]itemset.Item, maxDepth+1),
		kids:     make([][]node, maxDepth+1),
		words:    newStack[uint64](blockLen),
		tids:     newStack[int32](blockLen),
	}
}

// mineClass runs dEclat on the class anchored at heads[c] with tails
// heads[c+1:], returning per-k result lists (index k, entries 0 and 1 nil),
// each sorted. Every diffset of the class lives on the task's stacks and is
// released when the class returns.
//
// Every set in the class's subtree is a subset of t(a), the anchor's
// tidset. When the projection rule (frame) takes the class, each level-2
// diffset is re-indexed by the ranks of its tids within t(a), and the
// whole DFS runs on bitmaps ⌈sup(a)/64⌉ words wide instead of
// Layout.Words — MAFIA's projected bitmaps applied to diffsets.
func (t *task) mineClass(heads []head, c int) [][]apriori.FrequentItemset {
	t.out = make([][]apriori.FrequentItemset, 2)
	t.arena = nil
	anchor := heads[c]
	as := t.lay.sets[anchor.item]
	t.pfx[0] = anchor.item
	if t.maxK == 1 {
		return t.out
	}
	wm, tm := t.words.mark(), t.tids.mark()
	// Level 2: diffsets against the anchor's tidset, d(ab) = t(a) \ t(b),
	// sup(ab) = sup(a) − |d(ab)|. After the pair pass only frequent pairs
	// get one; the triangle is indexed by F1 rank.
	width, project := t.frame(anchor)
	children := t.kids[1][:0]
	for _, h := range heads[c+1:] {
		if t.tri != nil && int64(t.tri[t.pc.RowBase(min(anchor.rank, h.rank))+max(anchor.rank, h.rank)]) < t.minCount {
			continue
		}
		card, words, n := t.diffInto(as, t.lay.sets[h.item])
		sup := anchor.sup - card
		if sup < t.minCount {
			continue
		}
		var s set
		if project {
			s = t.project(card, as.words, width, len(children) == 0)
		} else {
			s = t.persist(card, words, n)
		}
		children = append(children, node{item: h.item, sup: sup, s: s})
	}
	t.kids[1] = children
	if project {
		t.width = width
	}
	if len(children) > 0 {
		t.grow(1, children)
	}
	t.width = t.lay.Words
	t.words.reset(wm)
	t.tids.reset(tm)
	// The DFS emits in class order, not item order.
	for _, fk := range t.out[2:] {
		slices.SortFunc(fk, func(a, b apriori.FrequentItemset) int { return a.Items.Compare(b.Items) })
	}
	return t.out
}

// frame returns the projected width ⌈sup(a)/64⌉ of anchor a's class and
// whether the projection rule projects it: a's column is a bitmap, the
// frame is narrower than the layout (one as wide saves no word and costs a
// table), the DFS diffs past level 2 (at MaxK 2 a table would be pure
// cost), and the pair pass did not run. The pass runs on sparse inputs,
// whose classes are small; projecting them there measured slower
// (DESIGN.md "Projected classes").
func (t *task) frame(anchor head) (int, bool) {
	width := int((anchor.sup + 63) / 64)
	deep := t.maxK == 0 || t.maxK > 2
	return width, t.lay.sets[anchor.item].dense() && width < t.lay.Words && deep && t.tri == nil
}

// project carves the full-width diffset in scr.Words, a subset of the
// anchor's tidset mask, onto the stacks re-indexed by rank within mask: as
// a bitmap of width words when the switch-over rule keeps one, as a rank
// list otherwise. The class's first member builds mask's ProjectTable, so
// a class without one pays nothing for it; the task's first builds its
// buffers, so a mine without a projected class pays nothing either. The
// work is the table's words, the words scanned, and the tids mapped one by
// one into a list.
func (t *task) project(card int64, mask []uint64, width int, first bool) set {
	if first {
		if t.moves == nil {
			t.cum, t.moves = make([]int32, t.lay.Words+1), make([][6]uint64, t.lay.Words)
		}
		ProjectTable(t.cum, t.moves, mask)
		t.work += int64(t.lay.Words) * WorkWordOp
	}
	t.work += int64(t.lay.Words) * WorkWordOp
	if keepBitmap(card, width) {
		out := t.words.alloc(width)
		ProjectInto(out, t.scr.Words, t.moves, t.cum)
		return set{words: out, card: card}
	}
	t.work += card * WorkTidOp
	out := t.tids.alloc(int(card))
	ProjectListInto(out, t.scr.Words, mask, t.cum)
	return set{list: out, card: card}
}

// grow emits every member of the class prefix pfx[:depth] × nodes and
// recurses: extending member a by member b (a < b) has diffset d(P·a·b) =
// d(P·b) \ d(P·a) and support sup(P·a) − |d(P·a·b)| — Zaki's dEclat
// recurrence, which keeps shrinking the sets the deeper the DFS goes. The
// diffsets of a's subtree are carved above the stack marks taken before it
// and released when it returns; nodes' own diffsets sit below the marks.
func (t *task) grow(depth int, nodes []node) {
	k := depth + 1
	for a := range nodes {
		t.emit(depth, nodes[a].item, nodes[a].sup)
		if t.maxK > 0 && k+1 > t.maxK {
			continue
		}
		if a == len(nodes)-1 {
			continue
		}
		wm, tm := t.words.mark(), t.tids.mark()
		next := t.kids[k][:0]
		for b := a + 1; b < len(nodes); b++ {
			card, words, n := t.diffInto(nodes[b].s, nodes[a].s)
			sup := nodes[a].sup - card
			if sup >= t.minCount {
				next = append(next, node{item: nodes[b].item, sup: sup, s: t.persist(card, words, n)})
			}
		}
		t.kids[k] = next
		if len(next) > 0 {
			t.pfx[depth] = nodes[a].item
			t.grow(depth+1, next)
		}
		t.words.reset(wm)
		t.tids.reset(tm)
	}
}

// emit records pfx[:depth] + item as a frequent (depth+1)-set. The items
// are appended to the class arena and sorted there, since the prefix is in
// class order; re-slicing with a capped capacity keeps later appends from
// aliasing earlier itemsets.
func (t *task) emit(depth int, item itemset.Item, sup int64) {
	k := depth + 1
	n := len(t.arena)
	t.arena = append(t.arena, t.pfx[:depth]...)
	t.arena = append(t.arena, item)
	items := itemset.Itemset(t.arena[n : n+k : n+k])
	slices.Sort(items)
	for len(t.out) <= k {
		t.out = append(t.out, nil)
	}
	t.out[k] = append(t.out[k], apriori.FrequentItemset{Items: items, Count: sup})
}

// diffInto computes x \ y into the scratch buffers, dispatching on the four
// representation pairs, and returns the cardinality plus where the result
// lives (words: scr.Words[:width]; otherwise scr.A[:n]). Work units are the
// slice lengths each kernel touches.
func (t *task) diffInto(x, y set) (card int64, words bool, n int) {
	switch {
	case x.dense() && y.dense():
		t.work += int64(t.width) * WorkWordOp
		return AndNotInto(t.scr.Words, x.words, y.words), true, 0
	case x.dense():
		copy(t.scr.Words, x.words)
		cleared := ClearList(t.scr.Words, y.list)
		t.work += int64(t.width)*WorkWordOp + int64(len(y.list))*WorkTidOp
		return x.card - cleared, true, 0
	case y.dense():
		n = FilterInto(t.scr.A, x.list, y.words)
		t.work += int64(len(x.list)) * WorkTidOp
		return int64(n), false, n
	default:
		n = DiffInto(t.scr.A, x.list, y.list)
		t.work += int64(len(x.list)+len(y.list)) * WorkTidOp
		return int64(n), false, n
	}
}

// listWords is the diffset switch-over factor: a DFS diffset stays a
// bitmap until it holds fewer than one tid per listWords words of its
// frame. One tid per word is the memory break-even, but a tidlist kernel
// pays several word ops per element (DiffInto is a branchy merge,
// FilterInto probes bits at random, and the demotion itself pays
// ExtractInto). In a sweep on the dense benchmark population factors 1
// and 2 were slower, 4 to 16 measured alike, and the work model is lowest
// at 8 (DESIGN.md "Diffset (dEclat) switch-over").
const listWords = 8

// keepBitmap is the switch-over rule: a diffset of card tids stays a bitmap
// of width words iff it holds at least one tid per listWords words.
func keepBitmap(card int64, width int) bool { return card*listWords >= int64(width) }

// persist copies a scratch-resident diffset onto the task's stacks. A
// word-form result the switch-over rule does not keep is demoted to a
// sorted tidlist: from there on this subtree's kernels run in tidlist mode.
func (t *task) persist(card int64, words bool, n int) set {
	if words {
		if keepBitmap(card, t.width) {
			out := t.words.alloc(t.width)
			copy(out, t.scr.Words)
			return set{words: out, card: card}
		}
		// Past the frame, scr.Words holds a stale wider result.
		n = ExtractInto(t.scr.A, t.scr.Words[:t.width])
		t.work += int64(t.width)*WorkWordOp + int64(n)*WorkTidOp
	}
	out := t.tids.alloc(n)
	copy(out, t.scr.A[:n])
	return set{list: out, card: card}
}

// stack is a mark/reset allocator for one task's diffsets: a list of
// blocks carved front to back. A DFS subtree carves above the mark taken
// when it starts and releases everything at once by resetting to that mark
// when it returns, so the blocks are reused by every later subtree and
// class instead of becoming garbage. Blocks are allocated only when the
// DFS path holds more live diffsets than ever before.
type stack[T uint64 | int32] struct {
	blocks   [][]T
	cur, off int // carving position: blocks[cur][off:] is free
	blockLen int // minimum block length
}

// stackMark is a carving position to reset a stack to.
type stackMark struct{ cur, off int }

func newStack[T uint64 | int32](blockLen int) stack[T] {
	return stack[T]{blocks: make([][]T, 1), blockLen: blockLen}
}

func (s *stack[T]) mark() stackMark { return stackMark{s.cur, s.off} }

// reset releases everything carved since m was taken.
func (s *stack[T]) reset(m stackMark) { s.cur, s.off = m.cur, m.off }

// alloc carves n elements, capacity-capped so an append to the result can
// never run into its neighbour. The elements hold stale data.
func (s *stack[T]) alloc(n int) []T {
	if s.off+n > len(s.blocks[s.cur]) {
		if s.off > 0 {
			s.cur, s.off = s.cur+1, 0
			if s.cur == len(s.blocks) {
				s.blocks = append(s.blocks, nil)
			}
		}
		// Everything from blocks[cur] on is free, so a block too short
		// for n can be replaced.
		if len(s.blocks[s.cur]) < n {
			s.blocks[s.cur] = make([]T, max(n, s.blockLen))
		}
	}
	out := s.blocks[s.cur][s.off : s.off+n : s.off+n]
	s.off += n
	return out
}
