package hashtree

import (
	"repro/internal/itemset"
	"repro/internal/partition"
)

// Flat is the frozen struct-of-arrays form of a built Tree — the real-memory
// analogue of the paper's GPP depth-first remap (Section 5.1). Where the
// pointer tree scatters every node header, hash table and leaf list across
// separate heap allocations, Flat packs the whole tree-region into four
// contiguous arenas laid out in depth-first traversal order, which is exactly
// the order the counting walk touches them:
//
//   - childBase[n]: offset of node n's hash table inside children, or -1 for
//     a leaf. Internal nodes occupy H consecutive cells (child node id or -1).
//   - leafStart[n] / leafItems: a CSR arena of per-leaf candidate-id lists
//     (internal nodes have empty ranges).
//   - cands: the K-items-per-candidate payload arena, shared with the Tree.
//
// Node ids are renumbered in DFS preorder, so a counting descent moves
// monotonically forward through the arenas — sequential prefetch instead of
// pointer chasing. A Flat is immutable; it is safe for any number of
// concurrent readers.
type Flat struct {
	k      int
	fanout int
	hash   HashKind

	hashVec []int32 // item → cell indirection (shared with the Tree)

	childBase []int32        // per node: children offset, -1 ⇔ leaf
	children  []int32        // H cells per internal node, DFS order
	leafStart []int32        // len numNodes+1, CSR into leafItems
	leafItems []int32        // candidate ids, per-leaf runs, leaf-sorted order
	cands     []itemset.Item // flat candidate storage, K items each
	nCand     int32

	// candItem[it] reports whether item it occurs in some candidate; its
	// length is one past the largest candidate item, which also sizes the
	// per-context item-stamp array. A transaction item outside it can never
	// match a candidate item, so stamping only the in-range transaction
	// items keeps the O(1) membership test exact. candItems counts its true
	// entries. Projected counting (CountOpts.Project) keeps only those
	// transaction items, so a projected transaction never holds more than
	// candItems items.
	candItem  []bool
	candItems int
}

// NumNodes returns the node count of the frozen tree.
func (f *Flat) NumNodes() int { return len(f.childBase) }

// NumCandidates returns the candidate count.
func (f *Flat) NumCandidates() int { return int(f.nCand) }

// cell hashes an item to a hash-table cell — the same rules as Tree.cell.
//
//armlint:noalloc
func (f *Flat) cell(it itemset.Item) int32 {
	if int(it) < len(f.hashVec) && it >= 0 {
		return f.hashVec[it]
	}
	if f.hash == HashBitonic {
		return int32(partition.BitonicHash(int(it), f.fanout))
	}
	return int32(int(it) % f.fanout)
}

// Freeze seals the built tree into its flat SoA form, computing it once and
// caching it on the Tree. The tree must be fully built: Insert after Freeze
// is a programming error (the frozen view would go stale). All counting
// contexts share the same frozen layout.
func (t *Tree) Freeze() *Flat {
	t.freezeOnce.Do(func() { t.flat = t.buildFlat() })
	return t.flat
}

// buildFlat renumbers nodes in DFS preorder and packs the SoA arenas.
func (t *Tree) buildFlat() *Flat {
	numNodes := len(t.nodes)
	f := &Flat{
		k:         t.cfg.K,
		fanout:    t.cfg.Fanout,
		hash:      t.cfg.Hash,
		hashVec:   t.hashVec,
		childBase: make([]int32, 0, numNodes),
		leafStart: make([]int32, 1, numNodes+1),
		cands:     t.cands,
		nCand:     t.nCand,
	}
	maxItem := itemset.Item(-1)
	for _, it := range t.cands {
		maxItem = max(maxItem, it)
	}
	f.candItem = make([]bool, int(maxItem)+1)
	for _, it := range t.cands {
		if !f.candItem[it] {
			f.candItem[it] = true
			f.candItems++
		}
	}
	var internal, leafCands int
	for _, n := range t.nodes {
		if n.isLeaf() {
			leafCands += len(n.items)
		} else {
			internal++
		}
	}
	f.children = make([]int32, 0, internal*t.cfg.Fanout)
	f.leafItems = make([]int32, 0, leafCands)

	var visit func(id int32)
	visit = func(id int32) {
		n := t.nodes[id]
		if n.isLeaf() {
			f.childBase = append(f.childBase, -1)
			f.leafItems = append(f.leafItems, n.items...)
			f.leafStart = append(f.leafStart, int32(len(f.leafItems)))
			return
		}
		base := int32(len(f.children))
		f.childBase = append(f.childBase, base)
		f.leafStart = append(f.leafStart, int32(len(f.leafItems)))
		f.children = append(f.children, n.children...)
		for c, ch := range n.children {
			if ch < 0 {
				f.children[base+int32(c)] = -1
				continue
			}
			f.children[base+int32(c)] = int32(len(f.childBase))
			visit(ch)
		}
	}
	visit(0)
	return f
}
