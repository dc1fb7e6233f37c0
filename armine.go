// Package armine is a Go reproduction of "Parallel Data Mining for
// Association Rules on Shared-Memory Multi-Processors" (Zaki, Ogihara,
// Parthasarathy, Li — SC'96; extended in KAIS 2001). It provides:
//
//   - sequential Apriori association mining with the paper's optimizations
//     (equivalence-class join, bitonic hash-tree balancing, short-circuited
//     subset checking);
//   - the CCPD and PCCD shared-memory parallel algorithms with computation
//     balancing and selectable counter-update modes;
//   - association rule generation;
//   - an IBM Quest-style synthetic basket data generator;
//   - the Section 5 memory placement policies (CCPD/SPP/LPP/GPP/L-*/LCA-GPP)
//     evaluated through a per-processor MESI cache simulator.
//
// The types here are thin re-exports of the internal packages so downstream
// users need a single import:
//
//	import "repro"
//
//	db, _ := armine.Generate(armine.GenParams{T: 10, I: 4, D: 100000, Seed: 1})
//	res, _ := armine.MineSequential(db, 0.005)
//	rules := armine.GenerateRules(res, armine.RuleOptions{MinConfidence: 0.9})
package armine

import (
	"context"

	"repro/internal/apriori"
	"repro/internal/cachesim"
	"repro/internal/ccpd"
	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/db/seg"
	"repro/internal/eclat"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/hashtree"
	"repro/internal/itemset"
	"repro/internal/mem"
	"repro/internal/quant"
	"repro/internal/robust"
	"repro/internal/rules"
	"repro/internal/sampling"
	"repro/internal/seqpat"
	"repro/internal/taxonomy"
	"repro/internal/vbit"
)

// Item is a single attribute (re-export of itemset.Item).
type Item = itemset.Item

// Itemset is a sorted set of items.
type Itemset = itemset.Itemset

// NewItemset builds a sorted, deduplicated itemset.
func NewItemset(items ...Item) Itemset { return itemset.New(items...) }

// Database is an in-memory transaction database.
type Database = db.Database

// NewDatabase returns an empty database over [0, numItems) items.
func NewDatabase(numItems int) *Database { return db.New(numItems) }

// ReadDatabase loads a database from the binary file format.
func ReadDatabase(path string) (*Database, error) { return db.ReadFile(path) }

// GenParams configures the synthetic data generator (Quest model).
type GenParams = gen.Params

// Generate produces a synthetic basket database.
func Generate(p GenParams) (*Database, error) { return gen.Generate(p) }

// MiningOptions configures a sequential mining run.
type MiningOptions = apriori.Options

// FrequentItemset pairs an itemset with its support.
type FrequentItemset = apriori.FrequentItemset

// Result holds the frequent itemsets by size plus per-iteration stats.
type Result = apriori.Result

// Mine runs sequential Apriori with explicit options.
func Mine(d *Database, opts MiningOptions) (*Result, error) { return apriori.Mine(d, opts) }

// MineSequential mines with the paper's optimizations enabled.
func MineSequential(d *Database, minSupport float64) (*Result, error) {
	return core.MineSequential(d, minSupport)
}

// ParallelOptions configures a CCPD/PCCD run.
type ParallelOptions = ccpd.Options

// ParallelStats carries per-phase wall-clock timings.
type ParallelStats = ccpd.Stats

// MineCCPD runs the Common Candidate Partitioned Database algorithm.
func MineCCPD(d *Database, opts ParallelOptions) (*Result, *ParallelStats, error) {
	return ccpd.Mine(d, opts)
}

// MinePCCD runs the Partitioned Candidate Common Database algorithm.
func MinePCCD(d *Database, opts ParallelOptions) (*Result, *ParallelStats, error) {
	return ccpd.MinePCCD(d, opts)
}

// MineParallel runs CCPD with every optimization enabled.
func MineParallel(d *Database, minSupport float64, procs int) (*Result, *ParallelStats, error) {
	return core.MineParallel(d, minSupport, procs)
}

// MineCCPDCtx is MineCCPD with cooperative cancellation: on ctx
// cancellation the completed iterations are returned together with a
// *robust.CanceledError naming the interrupted phase.
func MineCCPDCtx(ctx context.Context, d *Database, opts ParallelOptions) (*Result, *ParallelStats, error) {
	return ccpd.MineCtx(ctx, d, opts)
}

// MinePCCDCtx is MinePCCD with cooperative cancellation.
func MinePCCDCtx(ctx context.Context, d *Database, opts ParallelOptions) (*Result, *ParallelStats, error) {
	return ccpd.MinePCCDCtx(ctx, d, opts)
}

// ResumeCCPD continues a checkpointed CCPD run (ParallelOptions.Checkpoint)
// bit-identically from its last completed iteration. The options must match
// the checkpointed run except MaxK, which may grow.
func ResumeCCPD(ctx context.Context, checkpointPath string, d *Database, opts ParallelOptions) (*Result, *ParallelStats, error) {
	return ccpd.Resume(ctx, checkpointPath, d, opts)
}

// WorkerPanicError reports a panic contained in a pool worker: the mining
// call returns it instead of crashing the process.
type WorkerPanicError = robust.WorkerPanicError

// CanceledError reports cooperative cancellation, naming the mining phase
// and iteration that observed it.
type CanceledError = robust.CanceledError

// Rule is an association rule.
type Rule = rules.Rule

// RuleOptions filters generated rules.
type RuleOptions = rules.Options

// GenerateRules derives rules from the frequent itemsets with the
// allocation-free ap-genrules generator, in descending confidence order.
func GenerateRules(res *Result, opts RuleOptions) []Rule { return rules.GenerateFast(res, opts) }

// Placement policies (Section 5).
type Policy = mem.Policy

// Policy re-exports.
const (
	PolicyCCPD   = mem.PolicyCCPD
	PolicySPP    = mem.PolicySPP
	PolicyLPP    = mem.PolicyLPP
	PolicyGPP    = mem.PolicyGPP
	PolicyLSPP   = mem.PolicyLSPP
	PolicyLLPP   = mem.PolicyLLPP
	PolicyLGPP   = mem.PolicyLGPP
	PolicyLCAGPP = mem.PolicyLCAGPP
)

// AllPolicies lists every placement policy in paper order.
var AllPolicies = mem.AllPolicies

// StudyOptions configures a placement study.
type StudyOptions = core.StudyOptions

// StudyResult is the outcome of a placement study.
type StudyResult = core.StudyResult

// PolicyResult is one policy's simulated behaviour.
type PolicyResult = core.PolicyResult

// CacheConfig sizes the simulated memory system.
type CacheConfig = cachesim.Config

// DefaultCacheConfig approximates the paper's evaluation platform.
func DefaultCacheConfig(procs int) CacheConfig { return cachesim.DefaultConfig(procs) }

// RunPlacementStudy evaluates placement policies through the cache
// simulator (Figs. 12–13).
func RunPlacementStudy(d *Database, opts StudyOptions) (*StudyResult, error) {
	return core.RunPlacementStudy(d, opts)
}

// Hash tree knobs for MiningOptions.
const (
	HashInterleaved = hashtree.HashInterleaved
	HashBitonic     = hashtree.HashBitonic
)

// Counter modes for ParallelOptions.
const (
	CounterLocked  = hashtree.CounterLocked
	CounterAtomic  = hashtree.CounterAtomic
	CounterPrivate = hashtree.CounterPrivate
)

// Balance schemes for ParallelOptions.
const (
	BalanceBlock       = ccpd.BalanceBlock
	BalanceInterleaved = ccpd.BalanceInterleaved
	BalanceBitonic     = ccpd.BalanceBitonic
)

// Counting-phase database partition modes for ParallelOptions: the static
// splits of Section 3.2.2 plus the work-stealing chunk scheduler.
const (
	PartitionBlock    = ccpd.PartitionBlock
	PartitionWorkload = ccpd.PartitionWorkload
	PartitionStealing = ccpd.PartitionStealing
)

// --- Section 8 extension tasks: sequential patterns, multi-level
// (taxonomy) associations and quantitative associations, built on the same
// hash-tree / balancing / parallelization machinery. ---

// Sequence is an ordered event list for sequential-pattern mining.
type Sequence = seqpat.Sequence

// SequenceDataset is a set of customer event sequences.
type SequenceDataset = seqpat.Dataset

// SequenceOptions configures sequential-pattern mining.
type SequenceOptions = seqpat.Options

// SequenceResult holds frequent sequential patterns by length.
type SequenceResult = seqpat.Result

// MineSequences finds frequent sequential patterns (subsequences with gaps
// allowed; support counts customers).
func MineSequences(d *SequenceDataset, opts SequenceOptions) (*SequenceResult, error) {
	return seqpat.Mine(d, opts)
}

// SequenceGenParams configures the synthetic sequence generator.
type SequenceGenParams = seqpat.GenParams

// GenerateSequences synthesizes customer sequences with planted patterns.
func GenerateSequences(p SequenceGenParams) (*SequenceDataset, []Sequence, error) {
	return seqpat.Generate(p)
}

// Sequence trie hash choices.
const (
	SeqHashInterleaved = seqpat.HashInterleaved
	SeqHashBitonic     = seqpat.HashBitonic
)

// Taxonomy is an is-a forest over items for multi-level association mining.
type Taxonomy = taxonomy.Taxonomy

// NewTaxonomy builds a taxonomy from a parent vector (-1 = root).
func NewTaxonomy(parent []Item) (*Taxonomy, error) { return taxonomy.New(parent) }

// TaxonomyGenParams configures the random taxonomy generator.
type TaxonomyGenParams = taxonomy.GenParams

// GenerateTaxonomy builds a random is-a forest.
func GenerateTaxonomy(p TaxonomyGenParams) (*Taxonomy, error) { return taxonomy.Generate(p) }

// TaxonomyOptions configures generalized mining.
type TaxonomyOptions = taxonomy.Options

// TaxonomyResult holds generalized frequent itemsets.
type TaxonomyResult = taxonomy.Result

// MineGeneralized mines multi-level association itemsets over a taxonomy.
func MineGeneralized(d *Database, t *Taxonomy, opts TaxonomyOptions) (*TaxonomyResult, error) {
	return taxonomy.Mine(d, t, opts)
}

// QuantTable is a relational table for quantitative association mining.
type QuantTable = quant.Table

// QuantColumn is one attribute of a QuantTable.
type QuantColumn = quant.Column

// QuantOptions configures discretization and mining.
type QuantOptions = quant.Options

// QuantResult holds decoded quantitative itemsets.
type QuantResult = quant.Result

// Attribute kinds for QuantColumn.
const (
	Numeric     = quant.Numeric
	Categorical = quant.Categorical
)

// MineQuantitative discretizes and mines a relational table.
func MineQuantitative(t *QuantTable, opts QuantOptions) (*QuantResult, error) {
	return quant.Mine(t, opts)
}

// --- Related algorithms from the paper's Section 7 discussion. ---

// EclatOptions configures vertical (tid-list intersection) mining.
type EclatOptions = eclat.Options

// MineEclat mines with the authors' follow-up vertical algorithm; results
// are identical to Apriori with a different cost structure (pure
// intersections, no hash tree, no rescans).
func MineEclat(d *Database, opts EclatOptions) (*Result, error) { return eclat.Mine(d, opts) }

// MineEclatCtx is MineEclat with cooperative cancellation, observed at
// equivalence-class granularity; completed classes are returned as a
// partial result together with a *CanceledError.
func MineEclatCtx(ctx context.Context, d *Database, opts EclatOptions) (*Result, error) {
	return eclat.MineCtx(ctx, d, opts)
}

// VBitOptions configures the word-parallel vertical bitmap engine.
type VBitOptions = vbit.Options

// VBitStats carries the vertical engine's deterministic work model and
// wall-clock timings.
type VBitStats = vbit.Stats

// MineVBit runs the word-parallel dEclat engine: per-item TID bitmaps with
// tidlist fallback for sparse items, popcount support kernels, diffsets
// below the first level, and per-equivalence-class tasks on the shared
// worker pool. Results are identical to Apriori in ordering and supports.
func MineVBit(d *Database, opts VBitOptions) (*Result, *VBitStats, error) {
	return vbit.Mine(d, opts)
}

// MineVBitCtx is MineVBit with cooperative cancellation (per class claim);
// completed classes are merged into the partial result returned alongside
// the *CanceledError.
func MineVBitCtx(ctx context.Context, d *Database, opts VBitOptions) (*Result, *VBitStats, error) {
	return vbit.MineCtx(ctx, d, opts)
}

// --- Unified engine interface and the cost-based planner. ---

// Miner is the unified engine interface: every mining engine — sequential
// Apriori, CCPD, PCCD, eclat and the vertical bitmap engine — dispatches
// through it with one engine-independent Spec.
type Miner = engine.Miner

// SegmentedMiner is a Miner with an out-of-core path over segmented stores.
type SegmentedMiner = engine.SegmentedMiner

// Resumer is a Miner that can continue a checkpointed run.
type Resumer = engine.Resumer

// EngineCaps are a Miner's capability flags (parallel). Checkpoint resume
// and the out-of-core path show as the Resumer and SegmentedMiner
// interfaces instead.
type EngineCaps = engine.Caps

// EngineSpec is the engine-independent mining request a Miner lowers onto
// its own options.
type EngineSpec = engine.Spec

// EngineStats are the normalized statistics every Miner returns, with the
// raw per-engine detail attached.
type EngineStats = engine.Stats

// LookupEngine returns the registered Miner with the given name.
func LookupEngine(name string) (Miner, bool) { return engine.Lookup(name) }

// EngineNames lists the registered engines in sorted order.
func EngineNames() []string { return engine.Names() }

// DispatchEngine routes one mining request to a registered engine by name,
// choosing the in-RAM or the segmented path from the data source.
func DispatchEngine(ctx context.Context, name string, d *Database, r *SegReader, s EngineSpec) (*Result, *EngineStats, error) {
	return engine.Dispatch(ctx, name, d, r, s)
}

// Planner is the cost-based planner behind -algo auto: it picks engine,
// counting partition and chunk size from database statistics and the memory
// budget, recording every estimate it decided on.
type Planner = engine.Planner

// PlannerPlan is a planner decision with its recorded estimates.
type PlannerPlan = engine.Plan

// PlannerEstimate is one engine's modelled cost within a plan.
type PlannerEstimate = engine.Estimate

// PlannerDBInfo are the database statistics the planner decides on.
type PlannerDBInfo = engine.DBInfo

// DBStats are the O(1) header statistics (D, N, mean length, density)
// embedded in PlannerDBInfo.
type DBStats = engine.DBStats

// CharacterizePlanner computes planner statistics for an in-memory database.
func CharacterizePlanner(d *Database) PlannerDBInfo { return engine.Characterize(d) }

// CharacterizePlannerReader computes planner statistics for a segmented
// store from its header aggregates (exact); it loads no segment.
func CharacterizePlannerReader(r *SegReader) PlannerDBInfo { return engine.CharacterizeReader(r) }

// --- Out-of-core mining: segmented columnar stores larger than RAM. ---

// SegReader reads a segmented on-disk store (.arseg): int64 global
// addressing over per-segment arenas, each segment materializing as a
// regular Database.
type SegReader = seg.Reader

// SegWriter streams transactions into a segmented store with bounded memory.
type SegWriter = seg.Writer

// SegWriterOptions sizes the segments of a store being written.
type SegWriterOptions = seg.WriterOptions

// PipelineStats is the prefetch pipeline's accounting (loads, stalls,
// overlap) for an out-of-core run.
type PipelineStats = seg.PipelineStats

// OpenSegmented opens a segmented store with read-at segment loading.
func OpenSegmented(path string) (*SegReader, error) { return seg.Open(path) }

// OpenSegmentedMapped opens a segmented store through a memory mapping
// (zero-copy segment materialization) where the platform supports it.
func OpenSegmentedMapped(path string) (*SegReader, error) { return seg.OpenMapped(path) }

// CreateSegmented starts writing a segmented store; Append transactions in
// tid order and Close to publish atomically.
func CreateSegmented(path string, opts SegWriterOptions) (*SegWriter, error) {
	return seg.Create(path, opts)
}

// WriteSegmented writes an in-memory database into a segmented store.
func WriteSegmented(path string, d *Database, opts SegWriterOptions) error {
	return seg.WriteDatabase(path, d, opts)
}

// IsSegmented sniffs whether path holds a segmented store (versus the
// whole-database .ardb format).
func IsSegmented(path string) (bool, error) { return seg.IsSegmented(path) }

// SegmentedOptions configures an out-of-core CCPD run: mining options plus
// the resident-segment byte budget (0 = double-buffered prefetch).
type SegmentedOptions = ccpd.SegmentedOptions

// MineCCPDSegmented mines a segmented store without materializing the whole
// database: segments stream through a double-buffered prefetch pipeline
// while the hash-tree kernels count them. Frequent sets and the
// deterministic work model are bit-identical to the in-RAM run.
func MineCCPDSegmented(r *SegReader, opts SegmentedOptions) (*Result, *ParallelStats, error) {
	return ccpd.MineSegmented(r, opts)
}

// MineCCPDSegmentedCtx is MineCCPDSegmented with cooperative cancellation.
func MineCCPDSegmentedCtx(ctx context.Context, r *SegReader, opts SegmentedOptions) (*Result, *ParallelStats, error) {
	return ccpd.MineSegmentedCtx(ctx, r, opts)
}

// VBitSegmentedOptions configures an out-of-core vertical run.
type VBitSegmentedOptions = vbit.SegmentedOptions

// MineVBitSegmented mines a segmented store with the vertical engine's
// in-RAM pipeline: the F1 scan, the column fill and the pair pass stream
// the segments, the fill writes global tids, and the class DFS runs over
// resident columns. Frequent sets and the work model equal MineVBit's over
// the same transactions; VBitStats.OutOfCore carries the pipeline
// accounting. A store of more than 2³¹−1 transactions is refused.
func MineVBitSegmented(r *SegReader, opts VBitSegmentedOptions) (*Result, *VBitStats, error) {
	return vbit.MineSegmented(r, opts)
}

// MineVBitSegmentedCtx is MineVBitSegmented with cooperative cancellation.
func MineVBitSegmentedCtx(ctx context.Context, r *SegReader, opts VBitSegmentedOptions) (*Result, *VBitStats, error) {
	return vbit.MineSegmentedCtx(ctx, r, opts)
}

// SamplingOptions configures a sample-vs-full mining evaluation.
type SamplingOptions = sampling.Options

// SamplingAccuracy reports precision/recall of sample mining.
type SamplingAccuracy = sampling.Accuracy

// EvaluateSampling mines a random sample and measures agreement with the
// full database (the companion sampling study).
func EvaluateSampling(d *Database, opts SamplingOptions) (SamplingAccuracy, *Result, error) {
	return sampling.Evaluate(d, opts)
}

// GenerateRulesFast is GenerateRules: both run the one rule generator.
//
// Deprecated: use GenerateRules.
func GenerateRulesFast(res *Result, opts RuleOptions) []Rule {
	return rules.GenerateFast(res, opts)
}
