package sched

import (
	"sync"
	"sync/atomic"
)

// NumChunks returns how many size-sized chunks cover n items (the last chunk
// may be short). Zero when n or size is not positive.
func NumChunks(n, size int) int {
	if n <= 0 || size <= 0 {
		return 0
	}
	return (n + size - 1) / size
}

// ChunkSpan returns the ids [cLo, cHi) of the chunks of a size-row grid
// over a pass's rows that overlap rows [base, end), one segment's share.
func ChunkSpan(base, end, size int) (cLo, cHi int) {
	if end <= base {
		return 0, 0
	}
	return base / size, (end + size - 1) / size
}

// ChunkRange returns chunk c's rows that fall in the segment of rows
// [base, end), as the half-open range [lo, hi) of indexes into the segment.
// A chunk straddling a segment edge is counted in two pieces, one per
// segment.
func ChunkRange(c, size, base, end int) (lo, hi int) {
	return max(c*size, base) - base, min((c+1)*size, end) - base
}

// ChunkFor is the chunk size for a pass of rows transactions over procs
// workers: about 16 chunks a worker, at least 16 rows and at most limit
// rows each, so a short pass still reaches every worker's deque.
func ChunkFor(rows, procs, limit int) int {
	return min(limit, max(16, rows/(16*procs)))
}

// Cursor hands out chunk indices [0, n) to concurrent claimants, each
// exactly once — the shared-counter dynamic loop of the counting phase.
type Cursor struct {
	next atomic.Int64
	n    int64
}

// NewCursor prepares a cursor over n chunks.
func NewCursor(n int) *Cursor {
	return &Cursor{n: int64(n)}
}

// Next claims the next chunk; ok is false once all chunks are taken.
//
//armlint:itersrc
func (c *Cursor) Next() (chunk int, ok bool) {
	v := c.next.Add(1) - 1
	if v >= c.n {
		return 0, false
	}
	return int(v), true
}

// Deque is a small mutex-guarded double-ended queue of chunk indices. The
// owner pushes and pops at the tail (LIFO, cache-warm), thieves pop at the
// head (FIFO, the oldest — and for seeded deques the largest-remaining —
// work). Chunk counts are small (thousands), so a lock per operation is
// far below the cost of counting one chunk; the classic lock-free Chase–Lev
// structure would buy nothing here.
//
// Deques live one-per-worker in a Stealing slice and the owner hammers its
// own mutex on every chunk claim, so the struct is padded to a full cache
// line: unpadded it is 40 bytes and two workers' deques would invalidate
// each other's line on every Push/Pop (armlint falseshare caught exactly
// that).
//
// Live entries are items[head:len(items)]: PopHead advances the head index
// instead of re-slicing items[1:], which would strand the consumed prefix
// of the backing array and force every post-steal Push or Seed to grow a
// fresh one — a capacity leak across reused deques. Whenever the deque
// drains, both ends reset (head=0, items[:0]) so the full backing array is
// reusable by the next Seed cycle.
type Deque struct {
	//armlint:hot
	mu sync.Mutex
	//armlint:hot
	//armlint:guardedby mu
	items []int32
	//armlint:hot
	//armlint:guardedby mu
	head int
	_    [64 - 8 - 24 - 8]byte // pad to one cache line (mutex 8B + slice header 24B + head 8B)
}

// Push appends v at the tail.
func (d *Deque) Push(v int32) {
	d.mu.Lock()
	d.items = append(d.items, v)
	d.mu.Unlock()
}

// PopTail removes the newest entry (owner side).
func (d *Deque) PopTail() (int32, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := len(d.items)
	if n == d.head {
		return 0, false
	}
	v := d.items[n-1]
	d.items = d.items[:n-1]
	if len(d.items) == d.head {
		d.head = 0
		d.items = d.items[:0]
	}
	return v, true
}

// PopHead removes the oldest entry (thief side).
func (d *Deque) PopHead() (int32, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.items) == d.head {
		return 0, false
	}
	v := d.items[d.head]
	d.head++
	if d.head == len(d.items) {
		d.head = 0
		d.items = d.items[:0]
	}
	return v, true
}

// Len returns the current entry count.
func (d *Deque) Len() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.items) - d.head
}

// Stealing coordinates per-worker chunk deques: each worker drains its own
// deque LIFO and, when empty, scans the other workers round-robin stealing
// FIFO. Chunks are claimed exactly once; when every deque is empty Next
// reports done (in-flight chunks need no tracking — a claimed chunk is
// owned by its claimant).
type Stealing struct {
	deques []Deque
}

// NewStealing creates a scheduler for procs workers with empty deques; seed
// the deques with Seed before starting the workers.
func NewStealing(procs int) *Stealing {
	if procs < 1 {
		procs = 1
	}
	return &Stealing{deques: make([]Deque, procs)}
}

// Seed assigns chunk indices [lo, hi) to worker p's deque in ascending
// order, so the owner's LIFO pop walks its block back-to-front and thieves
// take the front — the end a block-partitioned straggler has not reached.
func (s *Stealing) Seed(p, lo, hi int) {
	d := &s.deques[p]
	d.mu.Lock()
	for c := lo; c < hi; c++ {
		d.items = append(d.items, int32(c))
	}
	d.mu.Unlock()
}

// SeedBlocks block-partitions n chunks across the deques (worker p receives
// the contiguous range p·n/P … (p+1)·n/P, mirroring db.BlockPartition).
func (s *Stealing) SeedBlocks(n int) {
	procs := len(s.deques)
	for p := 0; p < procs; p++ {
		s.Seed(p, p*n/procs, (p+1)*n/procs)
	}
}

// Next claims a chunk for worker p: own deque first (LIFO), then victims
// (p+1, p+2, … mod P) FIFO. victim is the deque the chunk came from — equal
// to p for a self-pop, another worker for a steal (the trace export draws
// the victim→thief flow arrow from it); ok is false when no work remains
// anywhere.
//
//armlint:itersrc
func (s *Stealing) Next(p int) (chunk int32, victim int, ok bool) {
	if v, ok := s.deques[p].PopTail(); ok {
		return v, p, true
	}
	procs := len(s.deques)
	for off := 1; off < procs; off++ {
		victim := (p + off) % procs
		if v, ok := s.deques[victim].PopHead(); ok {
			return v, victim, true
		}
	}
	return 0, p, false
}

// PerWorker is one worker's counting-phase accumulator set, padded to a full
// cache line so that adjacent workers' counters never share a line. The
// counting loop increments these on every chunk claim; before padding, the
// equivalent bare int64 slices (ChunksClaimed/Steals/CountWork in the phase
// timing arrays) packed eight workers per line and every increment
// invalidated its neighbours — the textbook false-sharing pattern the paper's
// Section 5.2 measures and armlint's falseshare analyzer flags.
type PerWorker struct {
	//armlint:hot
	Claimed int64 // chunks claimed by this worker
	//armlint:hot
	Stolen int64 // chunks stolen from other workers' deques
	//armlint:hot
	Work int64 // deterministic work units counted
	//armlint:hot
	ElapsedNS int64          // wall-clock nanoseconds spent in the phase
	_         [64 - 4*8]byte // pad to one cache line
}

// GreedySchedule is the deterministic stand-in for the racy runtime chunk
// assignment: chunks are assigned in index order, each to the processor with
// the least accumulated work (ties to the lowest id) — the list-scheduling
// bound dynamic claiming approximates. Per-chunk work units are themselves
// deterministic, so the returned per-processor totals are reproducible
// across runs and hosts, and their sum equals the total counting work of
// any static partition bit-for-bit.
func GreedySchedule(chunkWork []int64, procs int) []int64 {
	if procs < 1 {
		procs = 1
	}
	load := make([]int64, procs)
	for _, w := range chunkWork {
		min := 0
		for p := 1; p < procs; p++ {
			if load[p] < load[min] {
				min = p
			}
		}
		load[min] += w
	}
	return load
}
