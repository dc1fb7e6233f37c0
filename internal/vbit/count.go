package vbit

import "repro/internal/itemset"

// Scratch is the caller-provided working memory for the counting kernels:
// one bitmap of Layout.Words words and two tidlist buffers big enough for
// any stored column. One Scratch per worker; kernels never allocate.
type Scratch struct {
	Words []uint64 //armlint:hot
	A, B  []int32  //armlint:hot
}

// NewScratch sizes a scratch set for this layout. The tidlist buffers are
// bounded by the longest stored list or by one tid per bitmap word (the
// switch-over rule, keepBitmap, only demotes bitmaps of fewer than
// Words/listWords tids).
func (l *Layout) NewScratch() *Scratch {
	n := l.listMax
	if l.Words > n {
		n = l.Words
	}
	if l.NumTx < n {
		n = l.NumTx
	}
	return &Scratch{
		Words: make([]uint64, l.Words),
		A:     make([]int32, n),
		B:     make([]int32, n),
	}
}

// CountCandidates writes the support of each candidate into out (len(out)
// >= len(cands)) using scr for intermediates. This is the vertical
// engine's counterpart of the hash-tree counting kernel: where the hash
// tree walks every transaction through a candidate trie, the vertical path
// intersects the candidates' columns directly — a handful of word-parallel
// popcount passes per candidate, independent of the transaction count of
// non-participating rows.
func (l *Layout) CountCandidates(scr *Scratch, cands []itemset.Itemset, out []int64) {
	for i, c := range cands {
		out[i] = l.CountOne(scr, c)
	}
}

// CountOne returns the support of one candidate itemset.
//
//armlint:noalloc
func (l *Layout) CountOne(scr *Scratch, cand itemset.Itemset) int64 {
	if len(cand) == 0 {
		return int64(l.NumTx)
	}
	allDense := true
	for _, it := range cand {
		s := &l.sets[it]
		if s.words == nil {
			if s.list == nil {
				return 0 // unmaterialized column: below minCount or absent
			}
			allDense = false
		}
	}
	if allDense {
		return l.countDense(scr, cand)
	}
	return l.countMixed(scr, cand)
}

// countDense intersects bitmap columns only: the fused 2- and 3-way
// popcount kernels for the common candidate sizes, a folding AndInto chain
// above that.
//
//armlint:noalloc
func (l *Layout) countDense(scr *Scratch, cand itemset.Itemset) int64 {
	switch len(cand) {
	case 1:
		return l.sets[cand[0]].card
	case 2:
		return AndCount(l.sets[cand[0]].words, l.sets[cand[1]].words)
	case 3:
		return AndCount3(l.sets[cand[0]].words, l.sets[cand[1]].words, l.sets[cand[2]].words)
	}
	n := AndInto(scr.Words, l.sets[cand[0]].words, l.sets[cand[1]].words)
	for _, it := range cand[2:] {
		n = AndInto(scr.Words, scr.Words, l.sets[it].words)
		if n == 0 {
			return 0
		}
	}
	return n
}

// countMixed handles candidates with at least one tidlist column: start
// from the smallest tidlist and filter it through the remaining columns
// (bit probes against bitmaps, sorted merges against other tidlists),
// ping-ponging between the two scratch buffers.
//
//armlint:noalloc
func (l *Layout) countMixed(scr *Scratch, cand itemset.Itemset) int64 {
	start := -1
	for i, it := range cand {
		s := &l.sets[it]
		if s.words != nil {
			continue
		}
		if start < 0 || s.card < l.sets[cand[start]].card {
			start = i
		}
	}
	cur := l.sets[cand[start]].list
	buf, other := scr.A, scr.B
	for i, it := range cand {
		if i == start {
			continue
		}
		s := &l.sets[it]
		if s.words != nil {
			// cur may live in buf; FilterInto writes in place safely.
			n := FilterInto(buf, cur, s.words, true)
			cur = buf[:n]
		} else {
			// IntersectInto forbids aliasing: write into the other buffer.
			n := IntersectInto(other, cur, s.list)
			cur = other[:n]
			buf, other = other, buf
		}
		if len(cur) == 0 {
			return 0
		}
	}
	return int64(len(cur))
}
