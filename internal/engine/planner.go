// The cost-based planner: pick the engine from the database's header
// totals (size, universe, density) and the available memory budget. It
// replaces the two hand-rolled "-algo auto" selection sites that used to
// live in cmd/apriori — one of which characterized only segment 0 of a
// segmented store and ignored -mem-budget entirely, happily selecting the
// vertical engine when its bitmap arena could never fit the budget.
package engine

import (
	"fmt"
	"math"

	"repro/internal/ccpd"
	"repro/internal/db"
	"repro/internal/db/seg"
	"repro/internal/sched"
	"repro/internal/vbit"
)

// DBStats are the O(1) aggregate statistics the planner decides on — the
// same shape internal/gen parameterizes its synthetic workloads with:
// transaction count D, item universe N, mean transaction length T, and the
// density T/N (the probability a random item appears in a random row).
type DBStats struct {
	Transactions int
	NumItems     int
	AvgLen       float64
	Density      float64
}

// dbStats derives the statistics from the stored totals (no scan).
func dbStats(numTx, numItems int, totalItems int64) DBStats {
	s := DBStats{Transactions: numTx, NumItems: numItems}
	if numTx > 0 {
		s.AvgLen = float64(totalItems) / float64(numTx)
	}
	if numItems > 0 {
		s.Density = s.AvgLen / float64(numItems)
	}
	return s
}

// DefaultCrossoverDensity is the density at which the vertical engine
// starts beating the horizontal hash-tree engine, and the -algo auto
// default. It comes from the two cost models: a vertical pair probe costs
// about D/64 word ops when columns are bitmaps, or ~2·density·D tid ops as
// tidlists, while the hash tree pays per transaction-row regardless of the
// probed pair's density — its per-pair share only amortizes when rows are
// long. Below about one occurrence per 128 universe items the vertical
// columns are so sparse that even the tidlist path degenerates to pointer
// chasing over near-empty lists while the hash tree still streams the
// whole database once per iteration, and the hash tree wins; above it the
// vertical engine's popcount kernels win. The density-sweep experiment
// (cmd/experiments -sweep density) reproduces this crossover from the
// deterministic work models; adjust the constant if the sweep moves.
const DefaultCrossoverDensity = 1.0 / 128

// DBInfo is everything the planner knows about a database: the O(1)
// aggregate statistics and, for segmented stores, the store geometry the
// out-of-core cost terms need. Every field is a stored total; none is
// measured by reading rows.
type DBInfo struct {
	DBStats
	// TotalItems is the total item-occurrence count (= Transactions·AvgLen);
	// it is the unit of horizontal counting work.
	TotalItems int64
	// Segmented geometry (zero for in-RAM databases).
	Segmented       bool
	NumSegments     int
	MaxSegmentBytes int64
}

// Characterize describes an in-memory database from its stored totals; it
// reads no row.
func Characterize(d *db.Database) DBInfo {
	return DBInfo{DBStats: dbStats(d.Len(), d.NumItems(), d.TotalItems()), TotalItems: d.TotalItems()}
}

// CharacterizeReader describes a segmented store from its header and
// directory: the statistics are exact for the whole store, and no segment
// is loaded.
func CharacterizeReader(r *seg.Reader) DBInfo {
	return DBInfo{
		DBStats:         dbStats(int(r.NumTx()), r.NumItems(), r.TotalItems()), //armlint:narrowok int is 64-bit on every supported target, so the int64 transaction count converts losslessly
		TotalItems:      r.TotalItems(),
		Segmented:       true,
		NumSegments:     r.NumSegments(),
		MaxSegmentBytes: r.MaxSegmentBytes(),
	}
}

// Estimate is one candidate engine's projected cost and memory footprint —
// recorded in the Plan so a selection is auditable (and pinnable in tests)
// rather than an opaque verdict.
type Estimate struct {
	Engine string
	// Cost is the modelled counting work in item-touch units, normalized so
	// the two engines' models are comparable (see costs below).
	Cost int64
	// ArenaBytes is the projected peak resident footprint of the engine's
	// counting structures (the vertical engine's bitmap/tidlist arena; the
	// horizontal engine's streaming residency).
	ArenaBytes int64
	// Feasible is false when ArenaBytes exceeds the memory budget, or, for
	// vbit, when the database has no item occurrences to lay out or more
	// transactions than int32 tids address.
	Feasible bool
	Note     string
}

// Plan is the planner's decision: which engine, how to partition the
// database for counting, and at what chunk granularity, with the estimates
// that justified the engine.
type Plan struct {
	Engine    string
	Segmented bool
	DBPart    ccpd.DBPartition
	ChunkSize int
	// MemBudget echoes the budget the decision was made under, so downstream
	// dispatch (and the golden tests) see it.
	MemBudget int64
	Estimates []Estimate
	Reason    string
}

// String renders the one-line decision summary the CLI prints.
func (p Plan) String() string {
	return fmt.Sprintf("engine=%s dbpart=%s chunk=%d (%s)", p.Engine, p.DBPart, p.ChunkSize, p.Reason)
}

// Planner holds the selection policy knobs. The zero value uses the
// calibrated defaults; construct with struct literals. The vertical engine
// is chosen at and above DefaultCrossoverDensity, calibrated by the
// density-sweep experiment.
type Planner struct {
	// Procs is the worker count the stealing chunks are sized for (default 4).
	Procs int
	// MemBudget caps resident bytes; 0 means unbudgeted (in-RAM runs) or
	// double-buffered (segmented runs), and disables the feasibility check
	// for in-RAM databases.
	MemBudget int64
}

func (pl Planner) withDefaults() Planner {
	if pl.Procs <= 0 {
		pl.Procs = 4
	}
	return pl
}

// VBitArenaBytes projects the vertical engine's resident footprint from
// aggregate statistics: its columns, plus one decoded segment for a store,
// whose columns are resident too. The columns follow the uniform-density
// assumption the layout's own per-item rule refines at runtime: when the
// density clears the bitmap cutoff every column materializes as a
// ⌈D/64⌉-word bitmap, otherwise every column is a 4-byte-per-tid tidlist.
// It reads no segment, so the vbit engine's out-of-core path checks a
// store against its budget with it before mining, as the planner does.
func VBitArenaBytes(info DBInfo) int64 {
	if info.Transactions <= 0 {
		return 0
	}
	if info.Density >= vbit.DefaultDensityCutoff {
		words := int64(info.Transactions+63) / 64
		return int64(info.NumItems)*words*8 + info.MaxSegmentBytes
	}
	return info.TotalItems*4 + info.MaxSegmentBytes
}

// Plan picks the engine for a database; every plan counts with the
// stealing partition, whose workers claim chunks from a shared cursor.
//
// The engine choice compares two counting-cost models in item-touch units.
// The horizontal hash-tree engine streams every item occurrence once per
// iteration: cost = TotalItems. The vertical engine's per-pair probes touch
// bitmap words (D/64 per probe) or near-empty tidlists; normalizing its
// model against the horizontal one at the calibrated crossover density gives
// cost = TotalItems · (crossover/density) — equal at the crossover, cheaper
// for vbit above it, and degenerating (pointer chasing over near-empty
// columns) below it. The decision is the density rule those costs encode —
// vbit at or above the crossover, where its cost is no higher, ccpd below
// it — recorded as comparable numbers, and the memory budget can veto a
// winner: when the vertical arena projection exceeds the budget the plan
// falls back to the (segmented) streaming CCPD engine, which counts through
// a bounded hash tree regardless of store size. So does a database of more
// than 2³¹−1 transactions, past the columns' int32 tids. A database with no
// item occurrences plans ccpd, whose scan trivially no-ops.
//
// The partition is PartitionStealing in sched.ChunkFor chunks for every
// plan: claiming bounds a transaction-length skew's imbalance at one chunk
// a processor wherever the long rows sit, so the planner need not find
// them.
// Only the hash-tree engine family consumes DBPart; the vertical engines
// reuse ChunkSize as their poll stride.
func (pl Planner) Plan(info DBInfo) Plan {
	pl = pl.withDefaults()
	p := Plan{
		Segmented: info.Segmented, MemBudget: pl.MemBudget,
		DBPart: ccpd.PartitionStealing, ChunkSize: sched.ChunkFor(info.Transactions, pl.Procs, 256),
	}

	// Engine choice: ccpd vs vbit cost models plus the budget veto.
	hcost := info.TotalItems
	ccpdEst := Estimate{
		Engine: "ccpd", Cost: hcost, Feasible: true,
		ArenaBytes: 2 * info.MaxSegmentBytes,
		Note:       "streams the store once per iteration through a bounded hash tree",
	}
	vcost := int64(0)
	feasibleV := info.Transactions > 0 && info.NumItems > 0 && info.Density > 0
	if feasibleV {
		vcost = int64(float64(hcost) * (DefaultCrossoverDensity / info.Density))
	}
	vbitEst := Estimate{
		Engine: "vbit", Cost: vcost, ArenaBytes: VBitArenaBytes(info),
		Feasible: feasibleV, Note: "materializes every column in RAM",
	}
	switch {
	case !feasibleV:
		vbitEst.Note = "database has no item occurrences"
	case info.Transactions > math.MaxInt32:
		vbitEst.Feasible = false
		vbitEst.Note = fmt.Sprintf("%d transactions overflow the columns' int32 tids", info.Transactions)
	case pl.MemBudget > 0 && vbitEst.ArenaBytes > pl.MemBudget:
		vbitEst.Feasible = false
		vbitEst.Note = fmt.Sprintf("arena projection %d B exceeds budget %d B", vbitEst.ArenaBytes, pl.MemBudget)
	}
	p.Estimates = []Estimate{ccpdEst, vbitEst}

	switch {
	case !vbitEst.Feasible:
		p.Engine = "ccpd"
		p.Reason = "vbit infeasible: " + vbitEst.Note
	case info.Density >= DefaultCrossoverDensity:
		p.Engine = "vbit"
		p.Reason = fmt.Sprintf("density %.4f at or above crossover %.4f", info.Density, DefaultCrossoverDensity)
	default:
		p.Engine = "ccpd"
		p.Reason = fmt.Sprintf("density %.4f below crossover %.4f", info.Density, DefaultCrossoverDensity)
	}
	return p
}
