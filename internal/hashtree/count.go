package hashtree

import (
	"sync"
	"sync/atomic"

	"repro/internal/itemset"
)

// CounterMode selects how support counters are updated during parallel
// counting — the design axis evaluated in Section 5.2.
type CounterMode int

const (
	// CounterLocked guards shared counters with striped locks, the paper's
	// base scheme (lock, increment, unlock).
	CounterLocked CounterMode = iota
	// CounterAtomic updates shared counters with atomic adds — the modern
	// SMP equivalent of fine-grained locking.
	CounterAtomic
	// CounterPrivate keeps one counter array per processor and sums them in
	// a final reduction — the privatize-and-reduce LCA scheme, free of both
	// synchronization and false sharing.
	CounterPrivate
)

func (m CounterMode) String() string {
	switch m {
	case CounterLocked:
		return "locked"
	case CounterAtomic:
		return "atomic"
	case CounterPrivate:
		return "private"
	}
	return "unknown"
}

const lockStripes = 256

// Counters holds the support counts for one tree's candidates.
//
// shared's access discipline is Mode-dependent — the Section 5.2 design
// axis. Under CounterLocked every element access holds its stripe of
// locks (machine-checked by armlint's guardedby pass); under CounterAtomic
// elements are only touched through sync/atomic (the atomic-mix pass);
// under CounterPrivate the counting phase writes only priv, and shared is
// touched by the single-owner reduction. The Mode never changes after
// NewCounters, which is the isolation argument each //armlint:allow below
// states.
type Counters struct {
	Mode CounterMode
	//armlint:guardedby locks
	shared []int64
	locks  []sync.Mutex
	priv   [][]int64
}

// NewCounters allocates counters for n candidates and procs processors.
func NewCounters(mode CounterMode, n, procs int) *Counters {
	c := &Counters{Mode: mode}
	switch mode {
	case CounterPrivate:
		c.priv = make([][]int64, procs)
		for p := range c.priv {
			c.priv[p] = make([]int64, n)
		}
		// The reduction target.
		c.shared = make([]int64, n)
	case CounterLocked:
		c.shared = make([]int64, n)
		c.locks = make([]sync.Mutex, lockStripes)
	default:
		c.shared = make([]int64, n)
	}
	return c
}

// add increments candidate id's counter on behalf of processor proc.
//
//armlint:noalloc
func (c *Counters) add(id int32, proc int) {
	switch c.Mode {
	case CounterPrivate:
		c.priv[proc][id]++
	case CounterLocked:
		l := &c.locks[uint32(id)%lockStripes]
		l.Lock()
		//armlint:allow atomic-mix locked and atomic modes are mutually exclusive per run (Mode is fixed at construction)
		c.shared[id]++
		l.Unlock()
	default:
		atomic.AddInt64(&c.shared[id], 1)
	}
}

// Reduce folds private arrays into the shared totals (no-op for shared
// modes). Call once after all counting completes.
func (c *Counters) Reduce() {
	c.ReduceRange(0, len(c.shared))
}

// ReduceRange folds the private arrays into the shared totals for candidate
// ids in [lo, hi) only, zeroing the folded private entries. Disjoint ranges
// touch disjoint indices, so a worker pool can range-partition the reduction
// and run the pieces concurrently — the parallel replacement for the serial
// O(P·C) master tail. No-op for the shared modes.
func (c *Counters) ReduceRange(lo, hi int) {
	if c.Mode != CounterPrivate {
		return
	}
	if lo < 0 {
		lo = 0
	}
	if hi > len(c.shared) {
		hi = len(c.shared)
	}
	for _, arr := range c.priv {
		for i := lo; i < hi; i++ {
			//armlint:allow atomic-mix,guardedby private mode only: no lock/atomic traffic exists, and callers reduce disjoint ranges after the counting barrier
			c.shared[i] += arr[i]
			arr[i] = 0
		}
	}
}

// Count returns candidate id's total (after Reduce for private mode).
//
//armlint:allow atomic-mix,guardedby read-only extraction runs after the counting barrier; no writer is live
func (c *Counters) Count(id int32) int64 { return c.shared[id] }

// Counts exposes the full totals slice (read-only).
func (c *Counters) Counts() []int64 { return c.shared }

// CountOpts configures a counting pass.
type CountOpts struct {
	// ShortCircuit enables the Section 4.2 visited-marking optimization
	// that preempts duplicate traversals at internal nodes. When disabled,
	// only leaves deduplicate (required for correct counts — the paper's
	// unoptimized base case).
	ShortCircuit bool
	// Project walks each transaction projected onto the items that occur in
	// some candidate of the tree, and skips a transaction left with fewer
	// than k items: DHP's transaction trimming (Park, Chen and Yu, SIGMOD
	// 1995). Counts are unchanged; the walk hashes only items that can lead
	// to a candidate, and the projection charges WorkItemScan per item it
	// reads. It applies to CountCtx only, and only while Flat's item-stamp
	// fast path is on (no negative candidate item); otherwise the walk is
	// unprojected.
	Project bool
	// Proc is the processor identity (private counters, trace attribution).
	Proc int
}

// Deterministic work-unit costs for the counting cost model. On a host
// without enough real cores to observe parallel wall-clock behaviour, the
// experiment harness models per-processor time as accumulated work units;
// the weights approximate relative instruction costs of the operations.
const (
	WorkNodeVisit  = 1 // enter a node, read its header
	WorkCellProbe  = 1 // hash an item and read one table cell
	WorkLeafCand   = 4 // walk one list node + subset containment test
	WorkCtrUpdate  = 3 // lock, increment, unlock
	WorkJoinPair   = 3 // form one join candidate
	WorkPruneCheck = 2 // one (k-1)-subset membership probe
	WorkInsert     = 6 // one hash-tree insertion
	WorkItemScan   = 1 // read one transaction item (iteration 1)
)

// walkFrame is one level of the explicit traversal stack: the node's hash
// table offset, the next transaction item index to probe, and the node's
// short-circuit epoch. The frame index in the stack equals the node depth.
type walkFrame struct {
	base int32  // childBase of the internal node
	i    int32  // next items[] position to hash at this level
	ep   uint64 // this expansion's epoch (short-circuit mode)
}

// CountCtx is one processor's reusable counting state over the frozen flat
// tree: the k·H visited epochs of the reduced-memory short-circuit scheme,
// per-leaf visit stamps for the base case, and the explicit descent stack.
// All state is allocated once at construction; CountTransaction performs
// zero heap allocations.
type CountCtx struct {
	t    *Tree
	f    *Flat
	opts CountOpts

	// Work accumulates deterministic work units (see the work* constants);
	// the harness uses max-over-processors work as the modelled parallel
	// time. It is bumped on every node visit by the owning worker — hot in
	// the falseshare sense, which is safe only because contexts are
	// separately heap-allocated, never packed into a []CountCtx (armlint's
	// falseshare pass would flag such a slice).
	//
	//armlint:hot
	Work int64

	// visit[d·H+c] holds the epoch in which cell c at depth d was last
	// taken; one H-sized row per level — the k·H·P scheme. Epochs avoid
	// clearing rows between expansions.
	visit []uint64
	epoch []uint64 // per-depth expansion serial

	// leafStamp[node] holds the transaction serial of the last visit, for
	// leaf-only deduplication when short-circuiting is off. Indexed by flat
	// (DFS-order) node id.
	leafStamp []uint64
	txSerial  uint64

	// itemStamp[it] == txSerial ⇔ item it occurs in the current transaction,
	// turning the per-candidate containment merge into k O(1) probes. Sized
	// like Flat.candItem.
	itemStamp []uint64

	// proj receives the projected transaction (CountOpts.Project): sized by
	// Flat.candItems, which bounds the candidate items of a strictly sorted
	// transaction. nil walks unprojected.
	proj itemset.Itemset

	stack []walkFrame

	counters *Counters
}

// NewCountCtx prepares a context, sealing the tree into its flat form on
// first use. The tree must be fully built.
func (t *Tree) NewCountCtx(counters *Counters, opts CountOpts) *CountCtx {
	f := t.Freeze()
	ctx := &CountCtx{
		t:        t,
		f:        f,
		opts:     opts,
		counters: counters,
	}
	k := f.k
	ctx.visit = make([]uint64, (k+1)*f.fanout)
	ctx.epoch = make([]uint64, k+1)
	ctx.leafStamp = make([]uint64, f.NumNodes())
	ctx.itemStamp = make([]uint64, len(f.candItem))
	if opts.Project {
		ctx.proj = make(itemset.Itemset, f.candItems)
	}
	ctx.stack = make([]walkFrame, k+1)
	return ctx
}

// CountTransaction updates support counts for every candidate contained in
// the transaction, walking the tree as in Section 2.1.2: at depth d hash on
// the transaction items that can still start a valid k-subset suffix. The
// traversal is iterative over the frozen SoA layout — no recursion, no heap
// allocation — but visits nodes in exactly the order of the recursive walk,
// so counts, traces and modelled work units are bit-identical to it. Under
// CountOpts.Project the walk runs over the transaction's candidate items
// only, with the same counts.
//
// It returns the row the walk ran over: the projected transaction under
// Project, held in a buffer the next call overwrites, otherwise items
// itself. A transaction left with fewer than k items is not walked and
// returns nil.
//
//armlint:noalloc
func (ctx *CountCtx) CountTransaction(items itemset.Itemset) itemset.Itemset {
	f := ctx.f
	k := f.k
	if len(items) < k {
		return nil
	}
	ctx.txSerial++
	if proj := ctx.proj; proj != nil {
		// Project and stamp in one scan. Every stamped item is a candidate
		// item, which is all the containment test probes.
		ctx.Work += int64(len(items)) * WorkItemScan
		in, stamp, serial := f.candItem, ctx.itemStamp, ctx.txSerial
		n := 0
		for _, it := range items {
			if uint(it) < uint(len(in)) && in[it] {
				proj[n] = it
				stamp[it] = serial
				n++
			}
		}
		if n < k {
			return nil
		}
		items = proj[:n]
	} else {
		stamp := ctx.itemStamp
		for _, it := range items {
			if uint(it) < uint(len(stamp)) {
				stamp[it] = ctx.txSerial
			}
		}
	}
	ctx.walk(items)
	return items
}

// walk is CountTransaction's tree walk over the stamped (and, under Project,
// projected) items. It is a function of its own because inlined into
// CountTransaction, with the returned row live across its loop, the walk ran
// about 4% slower (a projected k=3 pass over Quest T10.I4.D200K).
//
//armlint:noalloc
func (ctx *CountCtx) walk(items itemset.Itemset) {
	f := ctx.f
	k := f.k
	sc := ctx.opts.ShortCircuit
	H := int32(f.fanout)

	ctx.Work += WorkNodeVisit
	rootBase := f.childBase[0]
	if rootBase < 0 {
		ctx.scanLeaf(0)
		return
	}
	var ep uint64
	if sc {
		ctx.epoch[0]++
		ep = ctx.epoch[0]
	}
	stack := ctx.stack
	stack[0] = walkFrame{base: rootBase, i: 0, ep: ep}
	depth := 0
	for depth >= 0 {
		fr := &stack[depth]
		// Items start..(n-k+d) at this level (paper: "hash on the remaining
		// items i through (n-k+1)+d").
		limit := int32(len(items) - k + depth)
		descended := false
		for fr.i <= limit {
			c := f.cell(items[fr.i])
			fr.i++
			ctx.Work += WorkCellProbe
			if sc {
				cell := int32(depth)*H + c
				if ctx.visit[cell] == fr.ep {
					continue // short-circuit: subtree already processed
				}
				ctx.visit[cell] = fr.ep
			}
			child := f.children[fr.base+c]
			if child < 0 {
				continue
			}
			ctx.Work += WorkNodeVisit
			childBase := f.childBase[child]
			if childBase < 0 {
				ctx.scanLeaf(child)
				continue
			}
			depth++
			var cep uint64
			if sc {
				ctx.epoch[depth]++
				cep = ctx.epoch[depth]
			}
			stack[depth] = walkFrame{base: childBase, i: fr.i, ep: cep}
			descended = true
			break
		}
		if !descended {
			depth--
		}
	}
}

// scanLeaf tests each candidate of one leaf's list against the current
// transaction's item stamps.
//
//armlint:noalloc
func (ctx *CountCtx) scanLeaf(node int32) {
	if !ctx.opts.ShortCircuit {
		// Base case: leaf-level VISITED stamp prevents double counting
		// when multiple root paths reach the same leaf.
		if ctx.leafStamp[node] == ctx.txSerial {
			return
		}
		ctx.leafStamp[node] = ctx.txSerial
	}
	f := ctx.f
	k := f.k
	lo, hi := f.leafStart[node], f.leafStart[node+1]
	// A leaf scan walks one list node and runs a containment merge over a
	// k-itemset, so its cost grows with k.
	ctx.Work += int64(hi-lo) * int64(WorkLeafCand+k)
	stamp, serial, cands := ctx.itemStamp, ctx.txSerial, f.cands
	for _, cand := range f.leafItems[lo:hi] {
		base := int(cand) * k
		contained := true
		for _, it := range cands[base : base+k] {
			if stamp[it] != serial {
				contained = false
				break
			}
		}
		if contained {
			ctx.counters.add(cand, ctx.opts.Proc)
			ctx.Work += WorkCtrUpdate
		}
	}
}

// VisitedMemoryBytes reports the short-circuit bookkeeping footprint of this
// context: k·H epoch words — the reduced scheme. The full scheme of the
// paper's first cut would need H^k flags.
func (ctx *CountCtx) VisitedMemoryBytes() int64 {
	return int64(len(ctx.visit)) * 8
}

// CountDatabase is a sequential convenience: counts every transaction
// through a fresh context and returns the reduced counters. The scan is
// single-threaded, so it uses private (unsynchronized) counters — the
// sequential baseline must not pay atomic-RMW or locking cost.
func (t *Tree) CountDatabase(transactions []itemset.Itemset, opts CountOpts) *Counters {
	counters := NewCounters(CounterPrivate, t.NumCandidates(), 1)
	opts.Proc = 0
	ctx := t.NewCountCtx(counters, opts)
	for _, tx := range transactions {
		ctx.CountTransaction(tx)
	}
	counters.Reduce()
	return counters
}
