// Package ccpd implements the paper's shared-memory parallel association
// mining algorithms: CCPD (Common Candidate Partitioned Database — a shared
// hash tree built in parallel with per-node locks, the database logically
// split across processors) and PCCD (Partitioned Candidate Common Database —
// per-processor local trees, every processor scanning the whole database).
// Computation balancing for candidate generation (Section 3.1.2), adaptive
// parallelism (Section 3.1.3), database partitioning (Section 3.2.2) and the
// counter update modes of Section 5.2 are all selectable.
//
// The package also carries the robustness layer of the production story:
// cooperative cancellation (MineCtx), worker panic containment (a panic in
// any phase surfaces as a *robust.WorkerPanicError instead of killing the
// process), per-iteration checkpointing with bit-identical resume (Resume),
// and memory-budget candidate batching (Options.MaxCandidatesInMemory) for
// candidate sets larger than memory — the classic limited-memory Apriori
// regime of multiple database passes per iteration.
package ccpd

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"time"

	"repro/internal/apriori"
	"repro/internal/db"
	"repro/internal/db/seg"
	"repro/internal/hashtree"
	"repro/internal/itemset"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/robust"
	"repro/internal/robust/faultinj"
	"repro/internal/sched"
)

// BalanceScheme selects the candidate-generation partitioning of
// Section 3.1.2.
type BalanceScheme int

const (
	// BalanceBlock is the naive contiguous split (the unoptimized base).
	BalanceBlock BalanceScheme = iota
	// BalanceInterleaved assigns unit i to processor i mod P.
	BalanceInterleaved
	// BalanceBitonic is the greedy bitonic scheme over all equivalence
	// classes (the COMP optimization).
	BalanceBitonic
)

func (b BalanceScheme) String() string {
	switch b {
	case BalanceInterleaved:
		return "interleaved"
	case BalanceBitonic:
		return "bitonic"
	}
	return "block"
}

// DBPartition selects how the database is split for counting.
type DBPartition int

const (
	// PartitionBlock splits by equal transaction counts.
	PartitionBlock DBPartition = iota
	// PartitionWorkload splits by the estimated Σ C(|t|,k)/T counting cost
	// (the static heuristic of Section 3.2.2).
	PartitionWorkload
	// PartitionStealing cuts the database into cache-sized transaction
	// chunks that processors claim from one shared cursor (sched.Pass), so
	// load imbalance is bounded by one chunk's work regardless of
	// transaction-size skew. Its work model is the greedy list-schedule of
	// the per-chunk work. The name and value outlive the per-worker
	// work-stealing deques it once claimed from: Resume's option fingerprint
	// records the value, and checkpoints written in this mode stay valid.
	PartitionStealing DBPartition = 3
)

func (p DBPartition) String() string {
	switch p {
	case PartitionWorkload:
		return "workload"
	case PartitionStealing:
		return "stealing"
	}
	return "block"
}

// Options configures a parallel run.
type Options struct {
	apriori.Options

	// Procs is the number of worker goroutines ("processors").
	Procs int
	// Counter selects the shared-counter update mode.
	Counter hashtree.CounterMode
	// Balance selects candidate-generation computation balancing.
	Balance BalanceScheme
	// DBPart selects the counting-phase database split.
	DBPart DBPartition
	// AdaptiveMinUnits is the Section 3.1.3 adaptive-parallelism cutoff:
	// when F_{k-1} has fewer join units than this, candidate generation
	// runs sequentially (parallelization overhead would dominate).
	// 0 uses 4×Procs.
	AdaptiveMinUnits int
	// ChunkSize is the transactions-per-chunk granularity of
	// PartitionStealing: small enough that a few hundred transactions fit
	// in cache and bound the end-of-phase imbalance, large enough that one
	// claim is noise against counting the chunk. A pass over a
	// residue (Project) cuts sched.ChunkFor's chunks, at most this large.
	// It is also the stride at which static-partition workers poll for
	// cancellation. 0 uses 256.
	ChunkSize int
	// Obs, when non-nil, records phase spans and chunk claims for
	// trace/metrics export, and labels the pool workers for pprof. Nil
	// disables recording: every obs call site nil-checks and returns, so the
	// counting kernel keeps its zero-allocation guarantee.
	Obs *obs.Recorder
	// Checkpoint, when non-empty, writes a versioned binary snapshot of the
	// run (frequent sets + deterministic work model) to this path after
	// every completed iteration, atomically (temp file + rename). A killed
	// run continues bit-identically via Resume. "" disables checkpointing.
	Checkpoint string
	// FaultInj, when non-nil, enables the fault-injection harness at
	// phase/chunk granularity — tests and CI smoke only; a nil injector
	// compiles to a nil check at every site.
	FaultInj *faultinj.Injector
	// Project switches MineCtx, Resume and MineSegmented to the production
	// counting path. Iteration 2 runs as one pass over private per-worker
	// pair triangles (apriori.PairCount) instead of candidate generation,
	// tree build, hash-tree count and reduce; the pass steps aside for the
	// hash tree when Procs triangles would exceed apriori.PairPassMaxBytes,
	// C(|F1|,2) exceeds a set MaxCandidatesInMemory, or the source holds
	// more than 2³¹−1 transactions (an int32 cell could overflow). Every
	// hash-tree walk (k ≥ 3, that k=2 fallback, each candidate batch)
	// counts each transaction projected onto the tree's candidate items
	// (hashtree.CountOpts.Project). Each unbatched hash-tree pass k keeps
	// the rows that can still hold a (k+1)-candidate, projected, as the
	// residual database pass k+1 counts over instead of the source; a
	// residue over apriori.PairPassMaxBytes is dropped. The output is
	// bit-identical; the work model differs, so the default (off) keeps the
	// paper's counting. PCCD ignores it.
	Project bool

	// pairMaxBytes and residueMaxBytes override apriori.PairPassMaxBytes
	// as the pair triangles' and the residue's ceilings in tests (0: the
	// package ceiling).
	pairMaxBytes    int64
	residueMaxBytes int64
}

func (o Options) withDefaults() Options {
	if o.Threshold <= 0 {
		o.Threshold = 8
	}
	if o.Procs < 1 {
		o.Procs = 1
	}
	if o.AdaptiveMinUnits == 0 {
		o.AdaptiveMinUnits = 4 * o.Procs
	}
	if o.ChunkSize <= 0 {
		o.ChunkSize = 256
	}
	if o.pairMaxBytes <= 0 {
		o.pairMaxBytes = apriori.PairPassMaxBytes
	}
	if o.residueMaxBytes <= 0 {
		o.residueMaxBytes = apriori.PairPassMaxBytes
	}
	return o
}

// fingerprint hashes the options that determine the run's output and work
// model, so Resume can refuse a checkpoint recorded under different
// settings. MaxK is deliberately excluded (resuming with a larger bound
// extends a run), as are Checkpoint, Obs and FaultInj (observation and
// harness knobs, not model inputs).
func (o Options) fingerprint() uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	put(math.Float64bits(o.MinSupport))
	put(uint64(o.AbsSupport))
	put(uint64(o.Threshold))
	put(uint64(o.Fanout))
	put(uint64(o.Hash))
	putBool := func(v bool) {
		if v {
			put(1)
		} else {
			put(0)
		}
	}
	putBool(o.ShortCircuit)
	putBool(o.NaiveJoin)
	put(uint64(o.MaxCandidatesInMemory))
	put(uint64(o.Procs))
	put(uint64(o.Counter))
	put(uint64(o.Balance))
	put(uint64(o.DBPart))
	put(uint64(o.AdaptiveMinUnits))
	put(uint64(o.ChunkSize))
	// Project hashes as 4 and off as 0. Checkpoints from before projected
	// counting hashed their pair-pass-only option as 1 (their k ≥ 3 work is
	// unprojected), those from before the residual database as 2 (their
	// k ≥ 4 work is a full scan), and those from before residue passes cut
	// their own stealing chunks as 3 (their stealing work model differs):
	// none resumes under Project.
	if o.Project {
		put(4)
	} else {
		put(0)
	}
	return h.Sum64()
}

// PhaseTiming records wall-clock and modelled work per phase of one
// iteration. The Work fields count deterministic work units (see the
// hashtree cost model); on hosts without enough real cores the harness uses
// max-over-processors work as the parallel time model.
type PhaseTiming struct {
	K          int
	CandGen    time.Duration // join + prune
	TreeBuild  time.Duration // parallel insert
	Count      time.Duration // support counting
	Reduce     time.Duration // counter reduction + frequent extraction
	Candidates int
	Frequent   int
	// GenSequential reports whether adaptive parallelism chose a
	// sequential candidate generation this iteration.
	GenSequential bool
	// Batches is how many candidate batches the iteration was split into
	// under Options.MaxCandidatesInMemory (1 = everything fit in one tree;
	// each batch pays a full database pass).
	Batches int
	// Rows is how many transactions each of the iteration's counting
	// passes read: the whole source, or the residual database the previous
	// pass left (Options.Project). A batched iteration reads them once per
	// batch. Zero for a checkpointed iteration, which the resumed process
	// did not run.
	Rows int

	// GenWork[p] is processor p's candidate-generation work; for a
	// sequential generation all work lands on processor 0.
	GenWork []int64
	// CountWork[p] is processor p's support-counting work (summed over
	// candidate batches when the iteration was batched).
	CountWork []int64
	// BuildWork is the total tree-insertion work (parallelized evenly).
	BuildWork int64
	// ReduceWork is the master's serial reduction/extraction work.
	ReduceWork int64

	// ChunksClaimed[p] is how many counting chunks processor p claimed
	// under PartitionStealing (nil for static modes). The values sum to
	// the chunk count of the iteration (times the batch count when
	// batched), plus one per segment edge a chunk straddles. It is an
	// observed count, not model state.
	ChunksClaimed []int64
	// CountIdle is the summed wall-clock idle time of the counting phase:
	// Σ_p (slowest processor's counting time − processor p's). On a host
	// with fewer real cores than Procs this is scheduling noise; the
	// modelled IdleWork is the meaningful figure there.
	CountIdle time.Duration
}

// Paired reports whether the iteration ran as the k=2 pair pass: it counted
// C(|F1|,2) candidates without building a hash tree.
func (pt *PhaseTiming) Paired() bool { return pt.K == 2 && pt.Candidates > 0 && pt.BuildWork == 0 }

// IdleWork returns the modelled counting idle: the work units processors
// spend waiting for the slowest one, Σ_p (max CountWork − CountWork[p]).
// A perfectly balanced phase has zero idle work.
func (pt *PhaseTiming) IdleWork() int64 {
	m := maxOf(pt.CountWork)
	var idle int64
	for _, w := range pt.CountWork {
		idle += m - w
	}
	return idle
}

// ModelTime returns the modelled parallel time of the iteration: serial
// reduce plus the per-processor maxima of the parallel phases.
func (pt *PhaseTiming) ModelTime(procs int) int64 {
	var t int64
	t += maxOf(pt.GenWork)
	if procs > 0 {
		t += pt.BuildWork / int64(procs)
	}
	t += maxOf(pt.CountWork)
	t += pt.ReduceWork
	return t
}

func maxOf(v []int64) int64 {
	var m int64
	for _, x := range v {
		if x > m {
			m = x
		}
	}
	return m
}

// Stats aggregates a run.
type Stats struct {
	Procs   int
	PerIter []PhaseTiming
	Total   time.Duration
	// OutOfCore carries the segment pipeline's accounting (loads, stalls,
	// prefetch overlap) when the run was mined from a segmented store via
	// MineSegmented; nil for in-RAM runs.
	OutOfCore *seg.PipelineStats
}

// ModelTime sums the per-iteration modelled parallel times.
func (s *Stats) ModelTime() int64 {
	var t int64
	for i := range s.PerIter {
		t += s.PerIter[i].ModelTime(s.Procs)
	}
	return t
}

// TotalCount returns the summed counting time (the phase the paper reports
// dominates at ~85%).
func (s *Stats) TotalCount() time.Duration {
	var t time.Duration
	for _, it := range s.PerIter {
		t += it.Count
	}
	return t
}

// CountIdleWork sums the modelled counting idle work over all iterations —
// the figure the static-vs-dynamic scheduling experiments gate on.
func (s *Stats) CountIdleWork() int64 {
	var t int64
	for i := range s.PerIter {
		t += s.PerIter[i].IdleWork()
	}
	return t
}

// miner is the per-run state shared by MineCtx, MineSegmented, Resume and
// PCCD's iteration 1: the data source (in-RAM database or segmented store),
// resolved options, persistent pool, recorder, and the result/stats being
// accumulated.
type miner struct {
	d        *db.Database  // in-RAM source; nil for out-of-core runs
	pipe     *seg.Pipeline // the segmented store's pipeline, serving every pass of the run; nil in RAM
	resid    *db.Database  // the residual database the next pass reads instead of the source; nil: the source
	numTx    int
	numItems int
	opts     Options
	pool     *sched.Pool
	rec      *obs.Recorder
	fi       *faultinj.Injector
	minCount int64
	labels   []int32
	res      *apriori.Result
	stats    *Stats
	ckpts    int // checkpoints written (exported as a gauge)
}

// newMiner builds the in-RAM run state; the returned cleanup must run when
// the mine completes (it unhooks the recorder and closes the pool).
func newMiner(d *db.Database, opts Options) (*miner, func()) {
	m := &miner{
		d: d, numTx: d.Len(), numItems: d.NumItems(),
		opts: opts, fi: opts.FaultInj,
		minCount: opts.MinCount(d.Len()),
		rec:      opts.Obs,
	}
	return m, m.setupPool()
}

// setupPool attaches the persistent worker pool — the P "processors" of the
// paper's model, serving every phase of every iteration without per-phase
// goroutine spawn and teardown — and returns its cleanup.
func (m *miner) setupPool() func() {
	m.pool = sched.NewPool(m.opts.Procs)
	if m.rec.Enabled() {
		m.pool.SetWrap(m.rec.PoolWrap)
	}
	return func() {
		if m.rec.Enabled() {
			m.pool.SetWrap(nil)
		}
		m.pool.Close()
	}
}

// annotate stamps phase/iteration context onto a contained worker panic, so
// the error from Mine names where the worker died.
func annotate(err error, phase string, k int) error {
	var wp *robust.WorkerPanicError
	if errors.As(err, &wp) {
		wp.Phase, wp.K = phase, k
	}
	return err
}

// Mine runs CCPD on the database and returns the frequent itemsets plus
// per-phase timings. It is MineCtx without cancellation.
func Mine(d *db.Database, opts Options) (*apriori.Result, *Stats, error) {
	return MineCtx(context.Background(), d, opts)
}

// MineCtx runs CCPD under a context. Cancellation is cooperative: workers
// observe it at chunk boundaries (PartitionStealing) or every ChunkSize
// transactions (static modes), the current phase drains promptly, and the
// call returns the partial result — every iteration completed before the
// cancellation point — together with a *robust.CanceledError naming the
// interrupted phase. A worker panic in any phase is contained by the pool
// and returned as a *robust.WorkerPanicError; the process stays alive.
//
//armlint:cancellable
func MineCtx(ctx context.Context, d *db.Database, opts Options) (*apriori.Result, *Stats, error) {
	opts = opts.withDefaults()
	start := time.Now()
	m, cleanup := newMiner(d, opts)
	defer cleanup()
	return m.mine(ctx, start)
}

// mine is the full run, shared by the in-RAM and out-of-core entry points:
// iteration 1, then the k-loop until fixpoint.
func (m *miner) mine(ctx context.Context, start time.Time) (*apriori.Result, *Stats, error) {
	opts := m.opts
	m.res = &apriori.Result{MinCount: m.minCount, ByK: make([][]apriori.FrequentItemset, 2)}
	m.stats = &Stats{Procs: opts.Procs}

	if err := robust.Canceled(ctx, "f1", 1); err != nil {
		return nil, nil, err
	}

	// Iteration 1: parallel item counting with private arrays + reduction.
	t0 := time.Now()
	m.rec.SetPhase(obs.PhaseF1, 1)
	m.rec.BeginPhase(obs.PhaseF1, 1)
	f1, cr, err := m.frequentOne(ctx)
	m.rec.EndPhase(obs.PhaseF1, 1)
	if err != nil {
		return nil, nil, annotate(err, "f1", 1)
	}
	if err := robust.Canceled(ctx, "f1", 1); err != nil {
		// The pass was interrupted: its counts are partial, so there is no
		// usable partial result yet.
		return nil, nil, err
	}
	m.res.ByK[1] = f1
	numItems := m.numItems
	it1 := PhaseTiming{
		K: 1, Count: time.Since(t0), Candidates: numItems, Frequent: len(f1),
		CountWork: cr.Work, ChunksClaimed: cr.Claimed, CountIdle: cr.Idle, Batches: 1, Rows: m.numTx,
	}
	it1.ReduceWork = int64(numItems)
	m.stats.PerIter = append(m.stats.PerIter, it1)
	m.rec.IterStats(1, numItems, len(f1))
	m.labels = apriori.LabelsFromF1(f1, numItems)
	if err := m.checkpoint(2, false); err != nil {
		return nil, nil, err
	}

	prev := make([]itemset.Itemset, len(f1))
	for i, f := range f1 {
		prev[i] = f.Items
	}

	err = m.loop(ctx, 2, prev)
	m.stats.Total = time.Since(start)
	if m.pipe != nil {
		ps := m.pipe.Stats()
		m.stats.OutOfCore = &ps
		m.rec.SetGauge("armine_ooc_segments_streamed", float64(ps.Segments))
		m.rec.SetGauge("armine_ooc_stall_fraction", ps.StallFraction())
	}
	return m.finish(err)
}

// finish maps the loop's error to the Mine return contract: cancellation
// returns the partial result alongside the error; a worker panic or
// infrastructure failure returns the error alone.
func (m *miner) finish(err error) (*apriori.Result, *Stats, error) {
	if err == nil {
		return m.res, m.stats, nil
	}
	var ce *robust.CanceledError
	if errors.As(err, &ce) {
		return m.res, m.stats, err
	}
	return nil, nil, err
}

// loop runs iterations startK, startK+1, … until fixpoint, MaxK or error.
// prev holds F_{startK-1}.
func (m *miner) loop(ctx context.Context, startK int, prev []itemset.Itemset) error {
	opts := m.opts
	for k := startK; len(prev) > 0 && (opts.MaxK == 0 || k <= opts.MaxK); k++ {
		fk, stop, err := m.iterate(ctx, k, prev)
		if err != nil {
			return err
		}
		if stop {
			// No candidates: the natural fixpoint. Record it in the
			// checkpoint so a resume returns immediately.
			return m.checkpoint(k, true)
		}
		m.res.ByK = append(m.res.ByK, fk)
		if err := m.checkpoint(k+1, false); err != nil {
			return err
		}
		prev = prev[:0]
		for _, f := range fk {
			prev = append(prev, f.Items)
		}
	}
	if len(prev) == 0 {
		// The last iteration produced no frequent sets — also a fixpoint.
		// (A MaxK exit is deliberately not marked done: resuming with a
		// larger bound continues the run.)
		return m.checkpoint(len(m.res.ByK), true)
	}
	return nil
}

// iterate runs one k-iteration: candidate generation, then per-batch tree
// build / count / extract. stop reports the no-candidates fixpoint. It
// leaves in m.resid the residue the iteration wrote for the next one, or nil.
func (m *miner) iterate(ctx context.Context, k int, prev []itemset.Itemset) (fk []apriori.FrequentItemset, stop bool, err error) {
	var next *residueWriter
	defer func() {
		if err != nil {
			next = nil
		}
		m.resid = next.finish()
	}()
	if k == 2 && m.pairPassFits(len(prev)) {
		fk, err := m.pairPass(ctx)
		return fk, false, err
	}
	opts := m.opts
	var pt PhaseTiming
	pt.K = k

	if err := robust.Canceled(ctx, "gen", k); err != nil {
		return nil, false, err
	}
	t0 := time.Now()
	m.rec.SetPhase(obs.PhaseCandGen, k)
	m.rec.BeginPhase(obs.PhaseCandGen, k)
	cands, seq, genWork, err := generateParallel(prev, opts, m.pool)
	m.rec.EndPhase(obs.PhaseCandGen, k)
	if err != nil {
		return nil, false, annotate(err, "gen", k)
	}
	pt.CandGen = time.Since(t0)
	pt.GenSequential = seq
	pt.GenWork = genWork
	pt.Candidates = len(cands)
	pt.BuildWork = int64(len(cands)) * hashtree.WorkInsert
	if len(cands) == 0 {
		m.rec.IterStats(k, 0, 0)
		m.stats.PerIter = append(m.stats.PerIter, pt)
		return nil, true, nil
	}

	// Memory-budget batching: when the candidate set exceeds the in-memory
	// budget, build/count/extract contiguous lexicographic sub-ranges, one
	// database pass each. Each batch's frequent list covers a disjoint,
	// ascending lexicographic range, so plain concatenation reproduces the
	// unbatched output bit-identically.
	batchSize := len(cands)
	if lim := opts.MaxCandidatesInMemory; lim > 0 && lim < batchSize {
		batchSize = lim
	}
	numBatches := (len(cands) + batchSize - 1) / batchSize
	pt.Batches = numBatches
	pt.Rows = m.passRows()
	if m.writesResidue(k, numBatches) {
		next = m.newResidueWriter()
	}
	for b := 0; b < numBatches; b++ {
		lo := b * batchSize
		hi := lo + batchSize
		if hi > len(cands) {
			hi = len(cands)
		}
		bfk, err := m.buildCountExtract(ctx, k, cands[lo:hi], &pt, next)
		if err != nil {
			m.stats.PerIter = append(m.stats.PerIter, pt)
			return nil, false, err
		}
		fk = append(fk, bfk...)
	}
	if numBatches > 1 {
		m.rec.SetGauge(fmt.Sprintf("armine_candidate_batches{k=%q}", fmt.Sprint(k)), float64(numBatches))
	}
	pt.Frequent = len(fk)
	m.rec.IterStats(k, len(cands), len(fk))
	m.stats.PerIter = append(m.stats.PerIter, pt)
	return fk, false, nil
}

// writesResidue reports whether hash-tree pass k, counted in the given
// number of candidate batches, keeps a residue: the counting is projected,
// the pass is unbatched (a batch's tree holds only some of C_k's items, so
// no one walk sees a row's projection onto all of them), and a pass k+1 may
// follow.
func (m *miner) writesResidue(k, batches int) bool {
	return m.opts.Project && batches == 1 && (m.opts.MaxK == 0 || k < m.opts.MaxK)
}

// source returns the in-RAM database the next counting pass reads: the
// residue when there is one, otherwise the in-RAM source, and nil for a
// segmented store, which streams through its pipeline.
func (m *miner) source() *db.Database {
	if m.resid != nil {
		return m.resid
	}
	return m.d
}

// passRows returns how many transactions the next counting pass reads.
func (m *miner) passRows() int {
	if d := m.source(); d != nil {
		return d.Len()
	}
	return m.numTx
}

// pairPassFits reports whether iteration 2 over n frequent items runs as the
// pair pass: the option is on, Procs triangles fit the byte ceiling, the
// C(n,2) cells fit a set candidate budget, as the hash tree's candidates
// would have to, and no int32 cell can overflow (a cell counts each
// transaction at most once, and a segmented store may hold more than 2³¹−1).
// The ceiling is what bounds the pass: its triangles cost 4·Procs bytes a
// pair, against some 20–30 for the hash tree's candidate, leaf slot and
// counter, so from about six workers on they outgrow the tree they replace.
func (m *miner) pairPassFits(n int) bool {
	lim := m.opts.MaxCandidatesInMemory
	return m.opts.Project && n >= 2 && m.numTx <= math.MaxInt32 &&
		apriori.PairTrianglesFit(m.opts.Procs, n, m.opts.pairMaxBytes) &&
		(lim <= 0 || apriori.PairCells(n) <= int64(lim))
}

// pairPass runs iteration 2 as one pass over private pair triangles: each
// worker counts its share of the database — split by DBPart, exactly as the
// hash-tree count is — into its own triangle, then the triangles are reduced
// and F2 extracted by cell range in parallel. Ranges ascend, so their
// concatenation is F2 in lexicographic order, bit-identical to the hash-tree
// iteration. The PhaseTiming keeps Candidates = C(n,2); Count and Reduce are
// the pass's two walls, CountWork is in item scans and triangle increments
// (apriori.WorkPairInc), and ReduceWork charges the serial model one unit
// per cell, as the hash-tree path charges one per candidate.
func (m *miner) pairPass(ctx context.Context) ([]apriori.FrequentItemset, error) {
	const k = 2
	opts := m.opts
	if err := robust.Canceled(ctx, "pairs", k); err != nil {
		return nil, err
	}
	pc := apriori.NewPairCount(m.res.ByK[1], m.numItems)
	cells := pc.Cells()
	pt := PhaseTiming{K: k, Candidates: cells, Batches: 1, Rows: m.passRows()}
	tris := make([][]int32, opts.Procs)

	t0 := time.Now()
	m.rec.SetPhase(obs.PhasePairs, k)
	m.rec.BeginPhase(obs.PhasePairs, k)
	cr, err := m.countPhase(ctx, "pairs", k, func(p int) sched.Kernel {
		tris[p] = make([]int32, cells)
		return pc.Kernel(tris[p], opts.ChunkSize)
	})
	m.rec.EndPhase(obs.PhasePairs, k)
	if err != nil {
		return nil, annotate(err, "pairs", k)
	}
	pt.Count = time.Since(t0)
	pt.CountIdle, pt.CountWork, pt.ChunksClaimed = cr.Idle, cr.Work, cr.Claimed
	if err := robust.Canceled(ctx, "pairs", k); err != nil {
		return nil, err
	}

	t0 = time.Now()
	ranges, parts := make([][]apriori.FrequentItemset, opts.Procs), sched.Blocks(cells, opts.Procs)
	m.rec.SetPhase(obs.PhaseReduce, k)
	m.rec.BeginPhase(obs.PhaseReduce, k)
	err = m.pool.Run(func(p int) {
		m.fi.Fire("reduce", k, p, -1)
		lo, hi := parts[p].Lo, parts[p].Hi
		apriori.ReduceRange(tris, lo, hi)
		ranges[p] = pc.FrequentRange(tris[0], m.minCount, lo, hi)
	})
	m.rec.EndPhase(obs.PhaseReduce, k)
	if err != nil {
		return nil, annotate(err, "reduce", k)
	}
	var fk []apriori.FrequentItemset
	for _, r := range ranges {
		fk = append(fk, r...)
	}
	pt.Reduce = time.Since(t0)
	pt.ReduceWork = int64(cells)
	pt.Frequent = len(fk)
	m.rec.IterStats(k, cells, len(fk))
	m.stats.PerIter = append(m.stats.PerIter, pt)
	return fk, nil
}

// buildCountExtract builds the hash tree over one candidate batch, counts
// the pass's rows against it, and extracts its frequent itemsets,
// accumulating work-model figures into pt. A non-nil w keeps the walked rows
// of at least k+1 items as the next pass's residue; keeping them charges no
// work, since the projection already read and charged every item copied.
func (m *miner) buildCountExtract(ctx context.Context, k int, cands []itemset.Itemset, pt *PhaseTiming, w *residueWriter) ([]apriori.FrequentItemset, error) {
	opts := m.opts
	if err := robust.Canceled(ctx, "build", k); err != nil {
		return nil, err
	}
	// The build phase's injection sites live inside ParallelBuildOn's
	// closures, which the harness cannot reach; when injection is active an
	// extra (test-only) barrier exposes a per-worker build site.
	if m.fi != nil {
		if err := m.pool.Run(func(p int) { m.fi.Fire("build", k, p, -1) }); err != nil {
			return nil, annotate(err, "build", k)
		}
	}
	t0 := time.Now()
	cfg := hashtree.Config{
		K: k, Fanout: opts.Fanout, Threshold: opts.Threshold,
		Hash: opts.Hash, NumItems: m.numItems, Labels: m.labels,
	}
	m.rec.SetPhase(obs.PhaseTreeBuild, k)
	m.rec.BeginPhase(obs.PhaseTreeBuild, k)
	tree, err := hashtree.ParallelBuildOn(m.pool, cfg, cands)
	m.rec.EndPhase(obs.PhaseTreeBuild, k)
	if err != nil {
		return nil, annotate(fmt.Errorf("ccpd: iteration %d: %w", k, err), "build", k)
	}
	pt.TreeBuild += time.Since(t0)

	t0 = time.Now()
	counters := hashtree.NewCounters(opts.Counter, tree.NumCandidates(), opts.Procs)
	m.rec.SetPhase(obs.PhaseCount, k)
	m.rec.BeginPhase(obs.PhaseCount, k)
	cr, err := m.countPhase(ctx, "count", k, func(p int) sched.Kernel {
		c := tree.NewCountCtx(counters, hashtree.CountOpts{ShortCircuit: opts.ShortCircuit, Project: opts.Project, Proc: p})
		keep := w.buf(p)
		return func(ctx context.Context, d *db.Database, base, lo, hi int) int64 {
			before := c.Work
			keep.begin(base + lo)
			for i := lo; i < hi; i++ {
				if (i-lo)%opts.ChunkSize == 0 && ctx.Err() != nil {
					break
				}
				if row := c.CountTransaction(d.Items(i)); keep != nil && len(row) > k {
					keep.add(d.TID(i), row)
				}
			}
			keep.end()
			return c.Work - before
		}
	})
	m.rec.EndPhase(obs.PhaseCount, k)
	if err != nil {
		return nil, annotate(err, "count", k)
	}
	pt.Count += time.Since(t0)
	pt.CountIdle += cr.Idle
	pt.CountWork = addVec(pt.CountWork, cr.Work)
	pt.ChunksClaimed = addVec(pt.ChunksClaimed, cr.Claimed)
	if err := robust.Canceled(ctx, "count", k); err != nil {
		return nil, err
	}

	// Reduction and frequent selection, range-partitioned across the
	// pool. Candidate ids are extracted in disjoint ascending ranges,
	// each sorted locally, then k-way merged — the output order is
	// identical to the serial extract. ReduceWork stays the serial
	// model figure: the paper's master-phase cost is what the time
	// model pins, independent of how the wall clock is spent.
	t0 = time.Now()
	ranges, parts := make([][]apriori.FrequentItemset, opts.Procs), sched.Blocks(tree.NumCandidates(), opts.Procs)
	m.rec.SetPhase(obs.PhaseReduce, k)
	m.rec.BeginPhase(obs.PhaseReduce, k)
	err = m.pool.Run(func(p int) {
		m.fi.Fire("reduce", k, p, -1)
		lo, hi := parts[p].Lo, parts[p].Hi
		counters.ReduceRange(lo, hi)
		ranges[p] = apriori.ExtractFrequentRange(tree, counters, m.minCount, lo, hi)
	})
	m.rec.EndPhase(obs.PhaseReduce, k)
	if err != nil {
		return nil, annotate(err, "reduce", k)
	}
	fk := apriori.MergeFrequent(ranges)
	pt.Reduce += time.Since(t0)
	pt.ReduceWork += int64(len(cands))
	return fk, nil
}

// addVec element-wise adds b into a (allocating a when nil). A nil b leaves
// a unchanged, so static modes keep nil ChunksClaimed.
func addVec(a, b []int64) []int64 {
	if b == nil {
		return a
	}
	if a == nil {
		a = make([]int64, len(b))
	}
	for i := range b {
		a[i] += b[i]
	}
	return a
}

// staticRanges returns each processor's global range of the pass's rows
// under the static partition of iteration k: the workload split's
// Σ C(|t|,k) balance (in RAM only), otherwise equal transaction counts.
func (m *miner) staticRanges(k int) []db.Slice {
	if m.opts.DBPart == PartitionWorkload {
		return m.source().WorkloadPartition(m.opts.Procs, k)
	}
	return sched.Blocks(m.passRows(), m.opts.Procs)
}

// frequentOne is iteration 1: a counting pass of the shared F1 kernel
// (apriori.ItemCount), split by DBPart like every later pass, and F1 is the
// workers' summed counts. Its work is Σ|t| item scans. On cancellation the
// caller must discard the partial counts — it checks the context before
// using the result.
func (m *miner) frequentOne(ctx context.Context) ([]apriori.FrequentItemset, sched.PassResult, error) {
	ic := apriori.NewItemCount(m.opts.Procs, m.numItems, m.opts.ChunkSize)
	cr, err := m.countPhase(ctx, "f1", 1, ic.Kernel)
	if err != nil {
		return nil, cr, err
	}
	sums, _ := ic.Sums()
	return apriori.FrequentItems(sums, m.minCount), cr, nil
}

// countPhase runs one counting pass (sched.Pass) over the pass's rows — the
// residue or the source, see seg.EachSegment — on the pool, fault sites
// named by phase. Static modes split the rows by staticRanges. Under
// PartitionStealing workers claim chunks of ChunkSize rows over the source
// and of sched.ChunkFor's smaller size over a residue, whose few hundred
// rows would otherwise fill one or two chunks and leave one processor
// counting most of the pass.
func (m *miner) countPhase(ctx context.Context, phase string, k int, newKernel func(p int) sched.Kernel) (sched.PassResult, error) {
	spec := sched.PassSpec{
		Phase: phase, K: k, Rows: m.passRows(), Chunk: m.opts.ChunkSize,
		Rec: m.rec, Faults: m.fi,
	}
	switch {
	case m.opts.DBPart != PartitionStealing:
		spec.Static = m.staticRanges(k)
	case m.resid != nil:
		spec.Chunk = sched.ChunkFor(spec.Rows, m.opts.Procs, spec.Chunk)
	}
	ps := sched.NewPass(ctx, m.pool, spec, newKernel)
	if err := seg.EachSegment(ctx, m.source(), m.pipe, ps.Segment); err != nil {
		return sched.PassResult{}, err
	}
	cr := ps.Result()
	m.rec.AddIdle(cr.Idle)
	return cr, nil
}

// generateParallel partitions the join units of F_{k-1}'s equivalence
// classes across processors per the balance scheme, generates and prunes in
// parallel, and merges the per-processor candidate lists in lexicographic
// order. Adaptive parallelism (Section 3.1.3) falls back to the sequential
// join when there is too little work — still dispatched through the pool so
// a panic in the join is contained like any other phase.
func generateParallel(prev []itemset.Itemset, opts Options, pool *sched.Pool) ([]itemset.Itemset, bool, []int64, error) {
	classes := itemset.Classes(prev)
	sizes := make([]int, len(classes))
	for i := range classes {
		sizes[i] = classes[i].Size()
	}
	costs, units := partition.MultiClassCosts(sizes)
	k := prev[0].K() + 1
	fi := opts.FaultInj
	perPair := int64(hashtree.WorkJoinPair + (k-2)*hashtree.WorkPruneCheck)
	if opts.Procs == 1 || len(units) < opts.AdaptiveMinUnits {
		// Sequential generation, run on worker 0 (all work attributed
		// there; the other workers return immediately at the barrier).
		var cands []itemset.Itemset
		var joinPairs int64
		err := pool.Run(func(p int) {
			fi.Fire("gen", k, p, -1)
			if p != 0 {
				return
			}
			cands, joinPairs, _ = apriori.GenerateCandidates(prev, opts.NaiveJoin)
		})
		if err != nil {
			return nil, true, nil, err
		}
		work := make([]int64, opts.Procs)
		work[0] = joinPairs * perPair
		return cands, true, work, nil
	}

	var assign *partition.Assignment
	switch opts.Balance {
	case BalanceInterleaved:
		assign = partition.Interleaved(len(units), opts.Procs)
	case BalanceBitonic:
		assign = partition.GreedyBitonic(costs, opts.Procs)
	default:
		assign = partition.Block(len(units), opts.Procs)
	}

	// Invert the assignment once: each worker receives only its own unit
	// list instead of all P workers scanning every entry of assign.Bucket.
	// Unit ids stay ascending within each list, which keeps every worker's
	// output lexicographically sorted (classes are in prefix order and a
	// unit's candidates are ordered by tail pair).
	perProc := make([][]int32, opts.Procs)
	for u, b := range assign.Bucket {
		perProc[b] = append(perProc[b], int32(u))
	}

	inPrev := apriori.PruneSet(prev)

	locals := make([][]itemset.Itemset, opts.Procs)
	genWork := make([]int64, opts.Procs)
	err := pool.Run(func(p int) {
		fi.Fire("gen", k, p, -1)
		var out []itemset.Itemset
		// Accumulate work in a register-resident local and store once:
		// incrementing genWork[p] per unit would bounce the slice's cache
		// line between all P processors (false sharing) for the whole
		// generation phase.
		var work int64
		scratch := make(itemset.Itemset, k)
		// Per-worker arena: surviving candidates are copied into one
		// growing block instead of one heap object per candidate.
		arena := make([]itemset.Item, 0, 64*k)
		for _, u := range perProc[p] {
			cu := units[u]
			cl := &classes[cu.Class]
			work += int64(len(cl.Tails)-cu.Pos-1) * perPair
			for j := cu.Pos + 1; j < len(cl.Tails); j++ {
				if apriori.JoinPrune(inPrev, scratch, cl.Prefix, cl.Tails[cu.Pos], cl.Tails[j]) {
					n := len(arena)
					arena = append(arena, scratch...)
					out = append(out, itemset.Itemset(arena[n:n+k:n+k]))
				}
			}
		}
		genWork[p] = work
		locals[p] = out
	})
	if err != nil {
		return nil, false, nil, err
	}
	return mergeSortedCandidates(locals), false, genWork, nil
}

// mergeSortedCandidates k-way merges the per-processor (already
// lexicographically sorted) candidate lists through the shared heap-based
// merge: O(C·log P) comparisons, replacing the former O(C·P) linear head
// scan (which itself replaced a serial O(C log C) global sort).
func mergeSortedCandidates(locals [][]itemset.Itemset) []itemset.Itemset {
	return itemset.MergeSortedBy(locals, itemset.Itemset.Less)
}
