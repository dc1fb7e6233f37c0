package sched

import "sync/atomic"

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
// rows each, so a short pass still reaches every worker.
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

// perWorker is one worker's Pass accumulator set, padded to a full
// cache line so that adjacent workers' counters never share a line. The
// counting loop increments these on every chunk claim; before padding, the
// equivalent bare int64 slices (ChunksClaimed/CountWork in the phase
// timing arrays) packed eight workers per line and every increment
// invalidated its neighbours — the textbook false-sharing pattern the paper's
// Section 5.2 measures and armlint's falseshare analyzer flags.
type perWorker struct {
	//armlint:hot
	Claimed int64 // chunks claimed by this worker
	//armlint:hot
	Work int64 // deterministic work units counted
	//armlint:hot
	ElapsedNS int64          // wall-clock nanoseconds spent in the pass
	_         [64 - 3*8]byte // pad to one cache line
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
