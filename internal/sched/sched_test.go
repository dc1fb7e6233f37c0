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

func TestDequeEnds(t *testing.T) {
	var d Deque
	for i := int32(0); i < 4; i++ {
		d.Push(i)
	}
	if v, ok := d.PopTail(); !ok || v != 3 {
		t.Errorf("PopTail = %d,%v want 3 (LIFO)", v, ok)
	}
	if v, ok := d.PopHead(); !ok || v != 0 {
		t.Errorf("PopHead = %d,%v want 0 (FIFO)", v, ok)
	}
	if d.Len() != 2 {
		t.Errorf("Len = %d", d.Len())
	}
	d.PopTail()
	d.PopTail()
	if _, ok := d.PopTail(); ok {
		t.Error("PopTail on empty deque")
	}
	if _, ok := d.PopHead(); ok {
		t.Error("PopHead on empty deque")
	}
}

// TestDequeBackingArrayStable pins the PopHead capacity fix: draining a
// deque from the head (the thief side) and reseeding it must reuse the same
// backing array instead of growing a fresh one per cycle. The former
// items = items[1:] re-slice stranded the consumed prefix, so every
// Seed/drain cycle over a reused deque allocated anew.
func TestDequeBackingArrayStable(t *testing.T) {
	const chunks = 64
	var d Deque
	for i := 0; i < chunks; i++ {
		d.Push(int32(i))
	}
	base := &d.items[0]
	baseCap := cap(d.items)
	for cycle := 0; cycle < 10; cycle++ {
		// Drain entirely from the head, as a persistent thief would.
		for i := 0; i < chunks; i++ {
			if v, ok := d.PopHead(); !ok || v != int32(i) {
				t.Fatalf("cycle %d: PopHead = %d,%v want %d", cycle, v, ok, i)
			}
		}
		if _, ok := d.PopHead(); ok {
			t.Fatalf("cycle %d: deque not empty after drain", cycle)
		}
		if d.head != 0 || len(d.items) != 0 {
			t.Fatalf("cycle %d: drain did not reset ends (head=%d len=%d)", cycle, d.head, len(d.items))
		}
		for i := 0; i < chunks; i++ {
			d.Push(int32(i))
		}
		if cap(d.items) != baseCap || &d.items[0] != base {
			t.Fatalf("cycle %d: backing array changed (cap %d → %d) — capacity leak", cycle, baseCap, cap(d.items))
		}
	}
	// Mixed-end drain must also converge back to the same array.
	for d.Len() > 0 {
		d.PopHead()
		if d.Len() > 0 {
			d.PopTail()
		}
	}
	for i := 0; i < chunks; i++ {
		d.Push(int32(i))
	}
	if &d.items[0] != base {
		t.Error("mixed-end drain leaked the backing array")
	}
}

func TestStealingClaimsEachChunkOnce(t *testing.T) {
	const procs, chunks = 4, 500
	st := NewStealing(procs)
	st.SeedBlocks(chunks)
	var mu sync.Mutex
	got := make(map[int32]int)
	var steals int64
	var wg sync.WaitGroup
	for p := 0; p < procs; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for {
				c, victim, ok := st.Next(p)
				if !ok {
					return
				}
				mu.Lock()
				got[c]++
				if victim != p {
					steals++
				}
				mu.Unlock()
			}
		}(p)
	}
	wg.Wait()
	if len(got) != chunks {
		t.Fatalf("claimed %d distinct chunks, want %d", len(got), chunks)
	}
	for c, k := range got {
		if k != 1 {
			t.Errorf("chunk %d claimed %d times", c, k)
		}
	}
}

func TestStealingOrder(t *testing.T) {
	// Single-threaded semantics: owner LIFO, theft FIFO from the next victim.
	st := NewStealing(2)
	st.Seed(0, 0, 3) // worker 0 holds 0,1,2
	if c, victim, ok := st.Next(0); !ok || victim != 0 || c != 2 {
		t.Errorf("owner pop = %d victim=%d", c, victim)
	}
	if c, victim, ok := st.Next(1); !ok || victim != 0 || c != 0 {
		t.Errorf("steal = %d victim=%d, want FIFO chunk 0 from victim 0", c, victim)
	}
	if c, victim, ok := st.Next(1); !ok || victim != 0 || c != 1 {
		t.Errorf("second steal = %d victim=%d", c, victim)
	}
	if _, _, ok := st.Next(0); ok {
		t.Error("expected exhaustion")
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
