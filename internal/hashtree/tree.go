// Package hashtree implements the candidate hash tree of Section 2.1.1: an
// internal node at depth d holds a hash table of fan-out H whose cells point
// to depth d+1; leaves hold sorted lists of candidate k-itemsets. The
// package provides parallel construction with per-node locks
// (Section 3.1.4), the interleaved (mod) and bitonic (Theorem 1) hash
// functions with the Table 1 indirection vector, adaptive fan-out selection,
// support counting with short-circuited subset checking (Section 4.2, the
// reduced k·H·P memory scheme), and virtual memory placement for the
// locality study of Section 5.
//
// The package's work-unit model backs TestModelTimePinned, so it must stay
// free of wall-clock and randomness:
//
//armlint:pinned
package hashtree

import (
	"fmt"
	"math"
	"runtime/debug"
	"sync"

	"repro/internal/itemset"
	"repro/internal/partition"
	"repro/internal/robust"
)

// HashKind selects the cell hash function.
type HashKind int

const (
	// HashInterleaved is the simple g(i) = i mod H function.
	HashInterleaved HashKind = iota
	// HashBitonic is the balanced bitonic hash of Theorem 1, implemented
	// with an indirection vector over item labels.
	HashBitonic
)

func (h HashKind) String() string {
	if h == HashBitonic {
		return "bitonic"
	}
	return "interleaved"
}

// Config parameterizes a tree for one iteration.
type Config struct {
	K         int      // candidate itemset length (tree depth bound)
	Fanout    int      // hash table size H; ≤0 selects adaptively at Build
	Threshold int      // leaf split threshold T (max itemsets per leaf)
	Hash      HashKind // cell hash function
	NumItems  int      // item universe size (for the indirection vector)
	// Labels maps each item to its lexicographic rank among the frequent
	// 1-items (Section 4.1: "label the n frequent 1-itemsets from 0 to
	// n-1"); -1 marks unranked items. When present and Hash is HashBitonic,
	// the indirection vector hashes ranks rather than raw ids, which is
	// what makes the bitonic tree balanced regardless of how the frequent
	// items are spread over the id space. Ignored for HashInterleaved (the
	// paper's unoptimized baseline hashes raw ids mod H).
	Labels []int32
}

func (c Config) withDefaults() Config {
	if c.Threshold <= 0 {
		c.Threshold = 8
	}
	if c.Fanout <= 0 {
		c.Fanout = 8
	}
	if c.K <= 0 {
		c.K = 1
	}
	return c
}

// AdaptiveFanout solves T·H^k > totalCandidates for H (Section 3.1.1):
// H = ceil((totalCandidates/T)^(1/k)), clamped to [2, 512].
func AdaptiveFanout(totalCandidates int64, threshold, k int) int {
	if threshold < 1 {
		threshold = 1
	}
	if k < 1 {
		k = 1
	}
	if totalCandidates < 1 {
		return 2
	}
	h := int(math.Ceil(math.Pow(float64(totalCandidates)/float64(threshold), 1/float64(k))))
	if h < 2 {
		h = 2
	}
	if h > 512 {
		h = 512
	}
	return h
}

// node is one hash tree node. children == nil ⇔ leaf. A leaf at depth K can
// no longer split and its item list grows past the threshold.
type node struct {
	id       int32
	depth    int32
	children []int32 // len H; -1 = empty cell
	items    []int32 // candidate ids (leaf), sorted lexicographically
	mu       sync.Mutex
}

func (n *node) isLeaf() bool { return n.children == nil }

// event records a component creation for placement replay (Section 5:
// "placement is implicit in the order of hash tree creation").
type event struct {
	kind eventKind
	id   int32 // node id or candidate id
}

type eventKind uint8

const (
	evNode  eventKind = iota // a new leaf node: HTN + ILH
	evSplit                  // a leaf became internal: HTNP
	evCand                   // a candidate inserted: LN + Itemset (+ counter/lock)
)

// Tree is the candidate hash tree for iteration K.
type Tree struct {
	cfg     Config
	hashVec []int32 // item label → cell (indirection vector)

	// mu guards the growth of nodes, cands, and events during parallel
	// build; per-node mutation is guarded by each node's own lock. After
	// the build phase the structure is immutable and counting snapshots
	// the slice headers once.
	mu     sync.RWMutex
	nodes  []*node
	events []event
	cands  []itemset.Item // flat storage, K items per candidate
	nCand  int32

	// freezeOnce/flat cache the sealed SoA view (see flat.go). Computed
	// lazily on the first counting context; Insert after Freeze is invalid.
	freezeOnce sync.Once
	flat       *Flat
}

// New creates an empty tree. If cfg.Fanout ≤ 0 the caller should size it
// with AdaptiveFanout first; New falls back to 8.
func New(cfg Config) *Tree {
	cfg = cfg.withDefaults()
	t := &Tree{cfg: cfg}
	t.buildHashVec()
	root := &node{id: 0, depth: 0}
	t.nodes = append(t.nodes, root)
	t.events = append(t.events, event{kind: evNode, id: 0})
	return t
}

func (t *Tree) buildHashVec() {
	n := t.cfg.NumItems
	if n <= 0 {
		n = 1
	}
	t.hashVec = make([]int32, n)
	for i := range t.hashVec {
		switch t.cfg.Hash {
		case HashBitonic:
			key := i
			if t.cfg.Labels != nil && i < len(t.cfg.Labels) && t.cfg.Labels[i] >= 0 {
				key = int(t.cfg.Labels[i])
			}
			t.hashVec[i] = int32(partition.BitonicHash(key, t.cfg.Fanout))
		default:
			t.hashVec[i] = int32(i % t.cfg.Fanout)
		}
	}
}

// Config returns the tree's effective configuration.
func (t *Tree) Config() Config { return t.cfg }

// K returns the candidate length.
func (t *Tree) K() int { return t.cfg.K }

// NumCandidates returns the number of inserted candidates.
func (t *Tree) NumCandidates() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return int(t.nCand)
}

// Candidate returns candidate id's itemset; the slice aliases internal
// storage and must not be modified.
func (t *Tree) Candidate(id int32) itemset.Itemset {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.candidateLocked(id)
}

func (t *Tree) candidateLocked(id int32) itemset.Itemset {
	k := t.cfg.K
	return itemset.Itemset(t.cands[int(id)*k : int(id)*k+k])
}

// cell hashes an item to a hash table cell.
func (t *Tree) cell(it itemset.Item) int32 {
	if int(it) < len(t.hashVec) && it >= 0 {
		return t.hashVec[it]
	}
	// Items outside the declared universe still hash consistently.
	if t.cfg.Hash == HashBitonic {
		return int32(partition.BitonicHash(int(it), t.cfg.Fanout))
	}
	return int32(int(it) % t.cfg.Fanout)
}

// getNode reads a node pointer safely during concurrent growth.
func (t *Tree) getNode(id int32) *node {
	t.mu.RLock()
	n := t.nodes[id]
	t.mu.RUnlock()
	return n
}

// newNode allocates a node and logs the creation event.
func (t *Tree) newNode(depth int32) int32 {
	t.mu.Lock()
	id := int32(len(t.nodes))
	t.nodes = append(t.nodes, &node{id: id, depth: depth})
	t.events = append(t.events, event{kind: evNode, id: id})
	t.mu.Unlock()
	return id
}

// addCandidate stores the itemset and logs the creation event.
func (t *Tree) addCandidate(s itemset.Itemset) int32 {
	t.mu.Lock()
	id := t.nCand
	t.nCand++
	t.cands = append(t.cands, s...)
	t.events = append(t.events, event{kind: evCand, id: id})
	t.mu.Unlock()
	return id
}

// logSplit records a leaf→internal conversion event.
func (t *Tree) logSplit(id int32) {
	t.mu.Lock()
	t.events = append(t.events, event{kind: evSplit, id: id})
	t.mu.Unlock()
}

// Insert adds a candidate k-itemset and returns its candidate id. It is
// safe for concurrent use: descent uses per-node locking and leaf splits
// happen with the leaf's lock held, implementing the Section 3.1.4 scheme.
// Items are non-negative, as db.Database.TryAppend requires of every row,
// so each one indexes the counting contexts' item stamps.
func (t *Tree) Insert(s itemset.Itemset) (int32, error) {
	if len(s) != t.cfg.K {
		return -1, fmt.Errorf("hashtree: inserting %d-itemset into K=%d tree", len(s), t.cfg.K)
	}
	if !s.IsSorted() {
		return -1, fmt.Errorf("hashtree: itemset %v not sorted", s)
	}
	if s[0] < 0 {
		return -1, fmt.Errorf("hashtree: itemset %v holds a negative item", s)
	}
	cand := t.addCandidate(s.Clone())
	t.insertCand(cand, s)
	return cand, nil
}

func (t *Tree) insertCand(cand int32, s itemset.Itemset) {
	cur := int32(0)
	for {
		n := t.getNode(cur)
		n.mu.Lock()
		if n.isLeaf() {
			n.items = t.insertSorted(n.items, cand)
			if len(n.items) > t.cfg.Threshold && int(n.depth) < t.cfg.K {
				t.split(n)
			}
			n.mu.Unlock()
			return
		}
		c := t.cell(s[n.depth])
		child := n.children[c]
		if child < 0 {
			child = t.newNode(n.depth + 1)
			n.children[c] = child
		}
		n.mu.Unlock()
		cur = child
	}
}

// insertSorted keeps the leaf list in lexicographic candidate order, as the
// paper's leaves are sorted linked lists.
func (t *Tree) insertSorted(items []int32, cand int32) []int32 {
	t.mu.RLock()
	s := t.candidateLocked(cand)
	lo, hi := 0, len(items)
	for lo < hi {
		mid := (lo + hi) / 2
		if t.candidateLocked(items[mid]).Less(s) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	t.mu.RUnlock()
	items = append(items, 0)
	copy(items[lo+1:], items[lo:])
	items[lo] = cand
	return items
}

// split converts a locked leaf into an internal node, redistributing its
// candidates one level down by hashing the item at the leaf's depth. The
// conversion happens with the node lock held ("with the lock still set").
func (t *Tree) split(n *node) {
	n.children = make([]int32, t.cfg.Fanout)
	for i := range n.children {
		n.children[i] = -1
	}
	t.logSplit(n.id)
	old := n.items
	n.items = nil
	for _, cand := range old {
		t.mu.RLock()
		s := t.candidateLocked(cand)
		t.mu.RUnlock()
		c := t.cell(s[n.depth])
		child := n.children[c]
		if child < 0 {
			child = t.newNode(n.depth + 1)
			n.children[c] = child
		}
		cn := t.getNode(child)
		cn.mu.Lock()
		cn.items = t.insertSorted(cn.items, cand)
		// A redistribution can itself overflow a child (all candidates in
		// one cell); recurse while depth allows.
		if len(cn.items) > t.cfg.Threshold && int(cn.depth) < t.cfg.K {
			t.split(cn)
		}
		cn.mu.Unlock()
	}
}

// Build constructs a tree from a candidate list, selecting the fan-out
// adaptively from the candidate count when cfg.Fanout ≤ 0. It is the
// sequential convenience constructor; see ParallelBuild for the
// multi-processor version.
func Build(cfg Config, cands []itemset.Itemset) (*Tree, error) {
	return ParallelBuild(cfg, cands, 1)
}

// Runner abstracts a persistent worker pool (internal/sched.Pool satisfies
// it): Run executes fn once per processor id in [0, Procs), blocks until
// every worker finishes, and reports a contained worker panic (typically a
// *robust.WorkerPanicError) instead of crashing the process.
type Runner interface {
	Procs() int
	Run(fn func(p int)) error
}

// spawnRunner is the transient fallback Runner: it spawns fresh goroutines
// per Run, preserving the historical ParallelBuild behaviour for callers
// without a pool. Panics are contained with the same error contract as the
// pool.
type spawnRunner int

func (r spawnRunner) Procs() int { return int(r) }

func (r spawnRunner) Run(fn func(p int)) error {
	var wg sync.WaitGroup
	errs := make([]error, int(r))
	for p := 0; p < int(r); p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			defer func() {
				if rec := recover(); rec != nil {
					errs[p] = &robust.WorkerPanicError{
						Worker: p, Chunk: -1, Value: rec, Stack: debug.Stack(),
					}
				}
			}()
			fn(p)
		}(p)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// ParallelBuild constructs the tree with procs goroutines inserting
// partitioned slices of the candidate list concurrently (Section 3.1.4).
func ParallelBuild(cfg Config, cands []itemset.Itemset, procs int) (*Tree, error) {
	if procs < 1 {
		procs = 1
	}
	return ParallelBuildOn(spawnRunner(procs), cfg, cands)
}

// ParallelBuildOn is ParallelBuild driven by an existing worker pool, so the
// per-iteration tree build reuses the mining run's persistent workers
// instead of spawning P goroutines each iteration.
func ParallelBuildOn(r Runner, cfg Config, cands []itemset.Itemset) (*Tree, error) {
	procs := r.Procs()
	if procs < 1 {
		procs = 1
	}
	if cfg.Fanout <= 0 {
		cfg.Threshold = Config{Threshold: cfg.Threshold}.withDefaults().Threshold
		cfg.Fanout = AdaptiveFanout(int64(len(cands)), cfg.Threshold, cfg.K)
	}
	t := New(cfg)
	errs := make([]error, procs)
	if err := r.Run(func(p int) {
		lo := p * len(cands) / procs
		hi := (p + 1) * len(cands) / procs
		for _, s := range cands[lo:hi] {
			if _, err := t.Insert(s); err != nil {
				errs[p] = err
				return
			}
		}
	}); err != nil {
		return nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return t, nil
}

// Stats summarizes tree shape for the balance experiments (Theorem 1) and
// the Fig. 6 footprint series.
type Stats struct {
	Nodes, Internal, Leaves int
	MaxDepth                int
	Candidates              int
	// LeafSizes is the distribution of itemsets per leaf.
	LeafSizes []int
	// Bytes is the modelled memory footprint: HTN 16B, HTNP 8H, ILH 8B,
	// LN 16B, Itemset 4K+8B (inline counter+lock), matching the placement
	// component sizes.
	Bytes int64
}

// ComputeStats walks the tree. Not safe during a concurrent build.
func (t *Tree) ComputeStats() Stats {
	st := Stats{Candidates: int(t.nCand)}
	for _, n := range t.nodes {
		st.Nodes++
		if int(n.depth) > st.MaxDepth {
			st.MaxDepth = int(n.depth)
		}
		st.Bytes += sizeHTN + sizeILH
		if n.isLeaf() {
			st.Leaves++
			st.LeafSizes = append(st.LeafSizes, len(n.items))
		} else {
			st.Internal++
			st.Bytes += int64(8 * t.cfg.Fanout)
		}
	}
	st.Bytes += int64(t.nCand) * (sizeLN + int64(4*t.cfg.K) + 8)
	return st
}

// MaxLeafRatio returns max-itemsets-per-leaf divided by the mean — the
// balance metric Theorem 1 bounds.
func (s Stats) MaxLeafRatio() float64 {
	if len(s.LeafSizes) == 0 || s.Candidates == 0 {
		return 0
	}
	max := 0
	for _, v := range s.LeafSizes {
		if v > max {
			max = v
		}
	}
	mean := float64(s.Candidates) / float64(len(s.LeafSizes))
	if mean == 0 {
		return 0
	}
	return float64(max) / mean
}

// ForEachCandidate visits every candidate id in depth-first tree order —
// the traversal used to extract frequent itemsets ("traverse the hash tree
// in depth first order"). Not safe during a concurrent build.
func (t *Tree) ForEachCandidate(fn func(id int32)) {
	t.dfs(0, func(n *node) {
		for _, c := range n.items {
			fn(c)
		}
	})
}

func (t *Tree) dfs(id int32, fn func(*node)) {
	n := t.nodes[id]
	fn(n)
	if n.isLeaf() {
		return
	}
	for _, c := range n.children {
		if c >= 0 {
			t.dfs(c, fn)
		}
	}
}
