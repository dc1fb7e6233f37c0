package sched

import (
	"sync"
	"sync/atomic"
	"testing"
)

func TestPoolRunsEveryWorker(t *testing.T) {
	for _, procs := range []int{1, 2, 4, 7} {
		pool := NewPool(procs)
		if pool.Procs() != procs {
			t.Fatalf("Procs = %d, want %d", pool.Procs(), procs)
		}
		seen := make([]int32, procs)
		// Reuse across many phases — the whole point of persistence.
		for round := 0; round < 25; round++ {
			pool.Run(func(p int) {
				atomic.AddInt32(&seen[p], 1)
			})
		}
		pool.Close()
		for p, c := range seen {
			if c != 25 {
				t.Errorf("procs=%d: worker %d ran %d times, want 25", procs, p, c)
			}
		}
	}
}

func TestPoolRunIsABarrier(t *testing.T) {
	pool := NewPool(4)
	defer pool.Close()
	var done int32
	pool.Run(func(p int) {
		atomic.AddInt32(&done, 1)
	})
	if done != 4 {
		t.Fatalf("Run returned before all workers finished: %d/4", done)
	}
}

func TestPoolMinimumOneWorker(t *testing.T) {
	pool := NewPool(0)
	defer pool.Close()
	ran := false
	pool.Run(func(p int) { ran = p == 0 })
	if !ran {
		t.Error("zero-proc pool should clamp to one worker")
	}
}

func TestChunkMath(t *testing.T) {
	if NumChunks(0, 10) != 0 || NumChunks(10, 0) != 0 {
		t.Error("degenerate chunk counts should be 0")
	}
	if got := NumChunks(1000, 256); got != 4 {
		t.Errorf("NumChunks(1000,256) = %d", got)
	}
	// Chunks tile [0, n) exactly.
	n, size := 1000, 256
	pos := 0
	for c := 0; c < NumChunks(n, size); c++ {
		lo, hi := ChunkRange(c, size, 0, n)
		if lo != pos || hi <= lo || hi > n {
			t.Fatalf("chunk %d = [%d,%d), expected lo=%d", c, lo, hi, pos)
		}
		pos = hi
	}
	if pos != n {
		t.Errorf("chunks cover %d of %d", pos, n)
	}
	// A segment [300, 700) overlaps chunks 1 and 2, clipped to its rows.
	if cLo, cHi := ChunkSpan(300, 700, size); cLo != 1 || cHi != 3 {
		t.Errorf("ChunkSpan(300,700,256) = [%d,%d), want [1,3)", cLo, cHi)
	}
	if lo, hi := ChunkRange(1, size, 300, 700); lo != 0 || hi != 212 {
		t.Errorf("chunk 1 in segment [300,700) = [%d,%d), want [0,212)", lo, hi)
	}
	// About 16 chunks a worker, between 16 rows and the limit.
	for _, c := range []struct{ rows, procs, want int }{{400, 4, 16}, {2000, 4, 31}, {200000, 4, 256}} {
		if got := ChunkFor(c.rows, c.procs, 256); got != c.want {
			t.Errorf("ChunkFor(%d, %d, 256) = %d, want %d", c.rows, c.procs, got, c.want)
		}
	}
}

func TestCursorClaimsEachChunkOnce(t *testing.T) {
	const n = 1000
	cur := NewCursor(n)
	var mu sync.Mutex
	got := make(map[int]int)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				c, ok := cur.Next()
				if !ok {
					return
				}
				mu.Lock()
				got[c]++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if len(got) != n {
		t.Fatalf("claimed %d distinct chunks, want %d", len(got), n)
	}
	for c, k := range got {
		if k != 1 {
			t.Errorf("chunk %d claimed %d times", c, k)
		}
	}
}

func TestGreedySchedule(t *testing.T) {
	// One giant chunk plus small ones: greedy puts the giant alone.
	load := GreedySchedule([]int64{100, 1, 1, 1, 1, 1, 1}, 3)
	var total, max int64
	for _, l := range load {
		total += l
		if l > max {
			max = l
		}
	}
	if total != 106 {
		t.Errorf("total = %d", total)
	}
	if max != 100 {
		t.Errorf("max = %d, giant chunk should sit alone", max)
	}
	// Deterministic.
	again := GreedySchedule([]int64{100, 1, 1, 1, 1, 1, 1}, 3)
	for p := range load {
		if load[p] != again[p] {
			t.Errorf("nondeterministic greedy schedule at %d", p)
		}
	}
	// Degenerate procs clamps.
	if got := GreedySchedule([]int64{5}, 0); len(got) != 1 || got[0] != 5 {
		t.Errorf("procs=0: %v", got)
	}
}
