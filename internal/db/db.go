// Package db provides the transaction database substrate: an in-memory
// transaction store with a compact binary on-disk format, block partitioning
// across processors, and the workload-estimating partitioner sketched in
// Section 3.2.2 of the paper.
package db

import (
	"errors"
	"fmt"

	"repro/internal/itemset"
)

// Database is an in-memory transaction database. Transactions are stored in
// a single flat item arena with offsets, which keeps the scan phase cache
// friendly and makes logical partitioning an O(1) slice operation.
type Database struct {
	tids    []int64
	offsets []int32 // len = #transactions + 1; items of t are arena[offsets[t]:offsets[t+1]]
	arena   []itemset.Item
	numItem int // distinct-item upper bound (items are < numItem)
}

// New returns an empty database whose items are drawn from [0, numItems).
func New(numItems int) *Database {
	return &Database{offsets: []int32{0}, numItem: numItems}
}

// FromColumns wraps pre-built columnar storage as a Database without
// copying: tids and arena are aliased, and offsets must be the cumulative
// item layout (offsets[0] == 0, items of t are arena[offsets[t]:offsets[t+1]]).
// This is the constructor the segment loaders use — a decoded (or
// memory-mapped) segment becomes a Database in O(1), so the counting kernels
// run on it unchanged. Only the column shape is checked here; callers
// ingesting untrusted bytes must run Validate.
func FromColumns(tids []int64, offsets []int32, arena []itemset.Item, numItems int) (*Database, error) {
	if int64(len(arena)) > maxArenaItems {
		return nil, ErrArenaFull
	}
	return FromDerivedColumns(tids, offsets, arena, numItems)
}

// FromDerivedColumns is FromColumns without the arena cap: for columns a
// miner derives from rows it already holds and bounds by its own byte
// ceiling (ccpd's residual database), which a test-lowered cap on loaded
// segments must not refuse. The int32 offsets still bound the arena at
// 2³¹−1 items.
func FromDerivedColumns(tids []int64, offsets []int32, arena []itemset.Item, numItems int) (*Database, error) {
	if len(offsets) != len(tids)+1 {
		return nil, fmt.Errorf("db: offsets len %d != tids len %d + 1", len(offsets), len(tids))
	}
	if len(offsets) > 0 && offsets[0] != 0 {
		return nil, fmt.Errorf("db: offsets[0] = %d, want 0", offsets[0])
	}
	if last := offsets[len(offsets)-1]; int(last) != len(arena) {
		return nil, fmt.Errorf("db: final offset %d != arena len %d", last, len(arena))
	}
	return &Database{tids: tids, offsets: offsets, arena: arena, numItem: numItems}, nil
}

// ArenaLimit returns the current item-arena cap: the number of item
// occurrences one database (and therefore one store segment) may hold under
// the int32 offset encoding. Tests lower it via SetArenaLimitForTesting.
func ArenaLimit() int64 { return maxArenaItems }

// SetArenaLimitForTesting lowers the arena cap so overflow and segmentation
// paths can be exercised without materializing a 2³¹-item arena, returning a
// func that restores the previous cap. Tests only.
func SetArenaLimitForTesting(limit int64) (restore func()) {
	prev := maxArenaItems
	maxArenaItems = limit
	return func() { maxArenaItems = prev }
}

// maxArenaItems caps the item arena at what the int32 offset encoding can
// address. A package variable rather than a constant so the overflow tests
// can lower it without materializing a 2³¹-item arena.
var maxArenaItems = int64(1<<31 - 1)

// ErrArenaFull reports that appending a transaction would push the item
// arena past the 2³¹−1 occurrences the int32 offset encoding addresses.
// Before this guard, int32(len(d.arena)) silently wrapped negative and the
// next Items call sliced with inverted bounds — the database corrupted
// without any error at the Append that overflowed it.
var ErrArenaFull = fmt.Errorf("db: item arena full (int32 offsets address at most %d item occurrences)", maxArenaItems)

// ErrNegativeItem reports a transaction holding an item below 0. Items
// index every engine's per-item arrays, and the universe bound only ever
// rises, so a negative item would pass every other check.
var ErrNegativeItem = errors.New("db: negative item")

// TryAppend adds a transaction, returning ErrNegativeItem for an item below
// 0 and ErrArenaFull when the arena would outgrow the int32 offset encoding.
// items must be sorted (itemset invariant); TryAppend panics if not, since
// an unsorted transaction silently corrupts subset counting.
func (d *Database) TryAppend(tid int64, items itemset.Itemset) error {
	if !items.IsSorted() {
		panic(fmt.Sprintf("db: transaction %d not sorted: %v", tid, items))
	}
	if len(items) > 0 && items[0] < 0 {
		return fmt.Errorf("%w %d in transaction %d", ErrNegativeItem, items[0], tid)
	}
	if int64(len(d.arena))+int64(len(items)) > maxArenaItems {
		return ErrArenaFull
	}
	d.tids = append(d.tids, tid)
	d.arena = append(d.arena, items...)
	d.offsets = append(d.offsets, int32(len(d.arena)))
	for _, it := range items {
		if int(it) >= d.numItem {
			d.numItem = int(it) + 1
		}
	}
	return nil
}

// Append adds a transaction, panicking on a negative item or a full arena
// (TryAppend is the checked variant). In-memory builders stay below the
// int32 limit by construction; readers of external data must use TryAppend
// and surface its errors.
func (d *Database) Append(tid int64, items itemset.Itemset) {
	if err := d.TryAppend(tid, items); err != nil {
		panic(err)
	}
}

// SnapshotView returns an O(1) immutable view of the database's current
// prefix: the returned Database aliases the receiver's columns, sliced and
// capacity-capped at today's lengths. Appends to the receiver never mutate
// the view — existing elements are write-once (TryAppend only extends), and
// a growth reallocation leaves the view on the old backing array — so a
// miner can run over the view while ingestion keeps appending to the
// receiver. This is the armined ingest→re-mine split: take the view under
// the ingest lock, mine it outside. The capped capacities also make an
// accidental append to the view reallocate instead of stomping the parent.
func (d *Database) SnapshotView() *Database {
	n := len(d.tids)
	m := len(d.arena)
	return &Database{
		tids:    d.tids[:n:n],
		offsets: d.offsets[: n+1 : n+1],
		arena:   d.arena[:m:m],
		numItem: d.numItem,
	}
}

// Len returns the number of transactions D.
func (d *Database) Len() int { return len(d.tids) }

// NumItems returns the size of the item universe N (items are in [0, N)).
func (d *Database) NumItems() int { return d.numItem }

// TID returns the identifier of transaction i.
func (d *Database) TID(i int) int64 { return d.tids[i] }

// Items returns the itemset of transaction i. The returned slice aliases
// the database arena and must not be modified.
//
//armlint:itersrc
//armlint:noalloc
func (d *Database) Items(i int) itemset.Itemset {
	return itemset.Itemset(d.arena[d.offsets[i]:d.offsets[i+1]])
}

// TotalItems returns the total number of item occurrences Σ|t|.
func (d *Database) TotalItems() int64 { return int64(len(d.arena)) }

// AvgLen returns the mean transaction length T.
func (d *Database) AvgLen() float64 {
	if d.Len() == 0 {
		return 0
	}
	return float64(len(d.arena)) / float64(d.Len())
}

// SizeBytes returns the nominal on-disk size: 4 bytes per item plus 8 bytes
// of TID and 4 bytes of length per transaction (the binary format below).
// This is the "Total size" column of Table 2.
func (d *Database) SizeBytes() int64 {
	return int64(len(d.arena))*4 + int64(d.Len())*12
}

// Slice is a logical, zero-copy view of a contiguous transaction range
// [Lo, Hi) used for partitioned-database counting.
type Slice struct {
	DB     *Database
	Lo, Hi int
}

// Len returns the number of transactions in the slice.
func (s Slice) Len() int { return s.Hi - s.Lo }

// ForEach invokes fn for every transaction in the slice.
func (s Slice) ForEach(fn func(tid int64, items itemset.Itemset)) {
	for i := s.Lo; i < s.Hi; i++ {
		fn(s.DB.TID(i), s.DB.Items(i))
	}
}

// BlockPartition splits the database into p contiguous slices of nearly
// equal transaction count — the paper's baseline database partitioning.
func (d *Database) BlockPartition(p int) []Slice {
	if p <= 0 {
		return nil
	}
	out := make([]Slice, p)
	n := d.Len()
	for i := 0; i < p; i++ {
		lo := i * n / p
		hi := (i + 1) * n / p
		out[i] = Slice{DB: d, Lo: lo, Hi: hi}
	}
	return out
}

// WorkloadPartition implements the static heuristic of Section 3.2.2: it
// estimates the counting cost of transaction t as the mean of C(|t|, k) over
// k = 1..maxK and cuts the (still contiguous, locality-respecting) partition
// boundaries so that estimated work — not row count — is balanced.
func (d *Database) WorkloadPartition(p, maxK int) []Slice {
	if p <= 0 {
		return nil
	}
	if maxK < 1 {
		maxK = 1
	}
	n := d.Len()
	cost := make([]float64, n)
	var total float64
	for i := 0; i < n; i++ {
		l := int(d.offsets[i+1] - d.offsets[i])
		var sum float64
		for k := 1; k <= maxK; k++ {
			sum += float64(itemset.Binomial(l, k))
		}
		cost[i] = sum / float64(maxK)
		total += cost[i]
	}
	out := make([]Slice, 0, p)
	lo, acc, remaining := 0, 0.0, total
	for i := 0; i < n && len(out) < p-1; i++ {
		// Re-derive the target from the work still unassigned, so an early
		// slice that overshot (or a giant transaction that consumed a whole
		// slice) does not leave the final slice with everything left over.
		target := remaining / float64(p-len(out))
		c := cost[i]
		// Cut before transaction i when including it would overshoot the
		// target by more than stopping short undershoots it — a giant
		// transaction then opens its own slice instead of overloading the
		// current one.
		if acc > 0 && acc+c > target && acc+c-target > target-acc {
			out = append(out, Slice{DB: d, Lo: lo, Hi: i})
			remaining -= acc
			lo, acc = i, 0
			if len(out) == p-1 {
				break
			}
			target = remaining / float64(p-len(out))
		}
		acc += c
		if acc >= target {
			out = append(out, Slice{DB: d, Lo: lo, Hi: i + 1})
			remaining -= acc
			lo, acc = i+1, 0
		}
	}
	out = append(out, Slice{DB: d, Lo: lo, Hi: n})
	for len(out) < p {
		out = append(out, Slice{DB: d, Lo: n, Hi: n})
	}
	return out
}

// EstimatedWork returns the Σ C(|t|,k) counting workload of a slice for a
// specific iteration k — useful for testing partition balance.
func (s Slice) EstimatedWork(k int) int64 {
	var w int64
	//armlint:allow ctxpoll bounded partition-balance estimation pass; callers poll at phase boundaries
	for i := s.Lo; i < s.Hi; i++ {
		w += itemset.Binomial(s.DB.Items(i).K(), k)
	}
	return w
}

// Validate checks internal consistency (sorted transactions, offsets
// monotone and inside the arena). Intended for tests and for readers of
// external files.
func (d *Database) Validate() error {
	if len(d.offsets) != len(d.tids)+1 {
		return fmt.Errorf("db: offsets len %d != tids len %d + 1", len(d.offsets), len(d.tids))
	}
	//armlint:allow ctxpoll validation is a bounded diagnostic pass, not a mining loop
	for i := 0; i < d.Len(); i++ {
		if d.offsets[i] > d.offsets[i+1] {
			return fmt.Errorf("db: offsets not monotone at %d", i)
		}
		// An offset past the arena that a later one undercuts again is
		// not caught by monotonicity before Items would slice with it.
		if int(d.offsets[i+1]) > len(d.arena) {
			return fmt.Errorf("db: offset %d at %d past the arena's %d items", d.offsets[i+1], i+1, len(d.arena))
		}
		items := d.Items(i)
		if !items.IsSorted() {
			return fmt.Errorf("db: transaction %d (tid %d) unsorted", i, d.tids[i])
		}
		for _, it := range items {
			if int(it) >= d.numItem || it < 0 {
				return fmt.Errorf("db: transaction %d item %d outside universe [0,%d)", i, it, d.numItem)
			}
		}
	}
	return nil
}
