package vbit

import (
	"sync"

	"repro/internal/db"
)

// DefaultDensityCutoff is the item density below which the vertical layout
// stores a sorted tidlist instead of a bitmap. At density 1/64 an item has
// on average one set bit per 64-bit word, which is exactly where a packed
// bitmap stops being smaller than the equivalent []int32 tidlist (D/64
// words of 8 bytes vs D/64 tids of 4 bytes — but the tidlist's merge loops
// touch 2 elements per output tid, so the word-parallel AND still wins down
// to about one bit per word). One tid per word is therefore the break-even
// of the representation itself, independent of which engine was selected.
const DefaultDensityCutoff = 1.0 / 64

// set is one vertical column: exactly one of words (dense bitmap over all
// transactions) or list (sorted tidlist) is non-nil, except for items that
// never reach minCount, which carry neither. card is the number of tids in
// the stored set — for a level-1 column that is the item's support; for a
// diffset deeper in the DFS it is the support drop.
type set struct {
	words []uint64
	list  []int32
	card  int64
}

func (s *set) dense() bool { return s.words != nil }

// Layout is the vertical image of a db.Database: one column per item,
// bitmaps for dense items and tidlists for sparse ones, all backed by two
// arena allocations. It is materialized in one counting pass plus one fill
// pass over the horizontal database.
type Layout struct {
	NumTx  int     // transactions D (bit positions 0..NumTx-1)
	Words  int     // ⌈NumTx/64⌉ words per bitmap
	Cutoff float64 // density threshold that classified the columns

	sets []set
	// listMax is the longest stored tidlist — the scratch size tidlist
	// kernels need on top of the Words-sized bitmap scratch.
	listMax     int
	denseItems  int
	sparseItems int
	// wordArena and listArena back every column; release hands them back
	// to the reuse pools.
	wordArena []uint64
	listArena []int32
}

// The column arenas and pair triangles of one mine come from these pools
// and go back when MineCtx returns, so a daemon re-mining every few hundred
// milliseconds reuses them instead of dropping megabytes of garbage per
// mine. Nothing in a Result aliases them: emitted itemsets live in the
// per-class task arenas.
var (
	wordPool sync.Pool // *[]uint64: bitmap column arenas
	listPool sync.Pool // *[]int32: tidlist column arenas
	triPool  sync.Pool // *[]int32: pair triangles
)

// getBuf returns a length-n slice from pool, or a fresh one when the pooled
// slice is too short. zero clears a reused slice; callers that overwrite
// every element skip it. A fresh slice gets a quarter more capacity than
// asked for: armined's database grows between re-mines, and without the
// slack every mine would need a slightly longer arena and miss the pool.
func getBuf[T uint64 | int32](pool *sync.Pool, n int, zero bool) []T {
	if p, ok := pool.Get().(*[]T); ok && cap(*p) >= n {
		s := (*p)[:n]
		if zero {
			clear(s)
		}
		return s
	}
	return make([]T, n, n+n/4)
}

// putBuf hands s back to pool; s must be dead.
func putBuf[T uint64 | int32](pool *sync.Pool, s []T) {
	if cap(s) > 0 {
		pool.Put(&s)
	}
}

// release returns the column arenas to the reuse pools. The layout and
// every column taken from it must be dead.
func (l *Layout) release() {
	putBuf(&wordPool, l.wordArena)
	putBuf(&listPool, l.listArena)
	l.wordArena, l.listArena, l.sets = nil, nil, nil
}

// newLayout sizes the columns of a layout over nTx transactions, storing
// columns only for items with support >= minCount (the engine never probes
// an infrequent column, so materializing it would be wasted arena). The
// columns hold no tid until fill has written every transaction.
func newLayout(nTx, numItems int, cutoff float64, minCount int64, sups []int64) *Layout {
	if cutoff <= 0 {
		cutoff = DefaultDensityCutoff
	}
	if minCount < 1 {
		minCount = 1
	}
	l := &Layout{
		NumTx:  nTx,
		Words:  (nTx + 63) / 64,
		Cutoff: cutoff,
		sets:   make([]set, numItems),
	}
	// Classify columns and size the two arenas. An item is dense when its
	// density (support / D) reaches the cutoff.
	denseFloor := cutoff * float64(nTx)
	var sparseTids int64
	for it, sup := range sups {
		switch {
		case sup < minCount:
			// no column
		case float64(sup) >= denseFloor:
			l.sets[it].card = -1 // marks dense; words attached below
			l.denseItems++
		default:
			l.sets[it].card = sup
			sparseTids += sup
			l.sparseItems++
			if int(sup) > l.listMax {
				l.listMax = int(sup)
			}
		}
	}
	// The fill ORs bits into the word arena, so it starts zeroed; it
	// writes every tidlist slot, so the list arena need not. A tidlist
	// starts empty with its support as capacity, and the fill appends in
	// place.
	wordArena := getBuf[uint64](&wordPool, l.denseItems*l.Words, true)
	listArena := getBuf[int32](&listPool, int(sparseTids), false)
	l.wordArena, l.listArena = wordArena, listArena
	var w, off int
	for it := range l.sets {
		s := &l.sets[it]
		switch {
		case s.card == -1:
			s.card = sups[it]
			s.words = wordArena[w*l.Words : (w+1)*l.Words]
			w++
		case s.card > 0:
			s.list = listArena[off : off : off+int(s.card)]
			off += int(s.card)
		}
	}
	return l
}

// fill writes the tids of segment sd, whose first transaction has global
// tid base, into the columns. Segments must come in ascending order, so
// tidlists come out sorted for free.
func (l *Layout) fill(base int, sd *db.Database) {
	//armlint:allow ctxpoll single bounded fill over one segment; cancellation is observed between segments and at the next phase boundary
	for t := 0; t < sd.Len(); t++ {
		tid := int32(base + t) //armlint:narrowok a layout covers at most 2³¹−1 transactions: MineSegmentedCtx refuses larger stores
		for _, it := range sd.Items(t) {
			s := &l.sets[it]
			switch {
			case s.words != nil:
				SetBit(s.words, tid)
			case s.list != nil:
				s.list = append(s.list, tid)
			}
		}
	}
}

// Scratch is a DFS task's working memory for the kernels: one bitmap of
// Layout.Words words and one tidlist buffer big enough for any stored
// column. One Scratch per worker; kernels never allocate.
type Scratch struct {
	Words []uint64 //armlint:hot
	A     []int32  //armlint:hot
}

// NewScratch sizes a scratch set for this layout. The tidlist buffer is
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
	}
}
