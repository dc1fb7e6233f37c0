// Package sched provides the scheduling substrate for the parallel mining
// phases: a persistent worker pool that replaces per-phase goroutine
// spawning, an atomic claim cursor, and Pass, the one row pass every
// engine's F1 scan, pair pass and hash-tree walk runs. A pass splits its
// rows statically, by the paper's block or workload partition (Section
// 3.2.2), or lets workers claim fixed chunks from the cursor. Static splits
// leave processors idle whenever the transaction cost estimate is wrong;
// claiming bounds that idle time by one chunk's work. A counting pass is a
// flat loop over chunks that spawn no subtasks, so one shared cursor is all
// the dynamic scheduling it needs.
//
// The package also carries the deterministic greedy list-schedule model
// (GreedySchedule) that stands in for the racy runtime chunk assignment when
// the experiment harness needs reproducible per-processor work figures —
// which is why the package is pinned: no wall clock in the work model, no
// randomness.
//
//armlint:pinned
package sched

import (
	"context"
	"runtime/debug"
	"sync"

	"repro/internal/robust"
)

// Pool is a fixed set of persistent worker goroutines, created once per
// mining run and reused by every phase of every iteration. Run dispatches
// one closure per worker and blocks until all workers finish, so a Pool
// behaves like a barrier-synchronized processor set without paying goroutine
// spawn and teardown on each phase.
//
// A panic inside a dispatched closure is contained: the worker recovers it,
// the barrier completes normally, and Run returns a *robust.WorkerPanicError
// instead of letting the panic kill the process. The pool stays usable for
// further Runs (the paper's long-running-server regime: one bad transaction
// batch must not take down the whole mining service).
type Pool struct {
	procs int
	work  []chan func(int)
	wg    sync.WaitGroup
	// wrap, when set, brackets every dispatched closure — the hook the
	// observability layer uses to record per-worker phase spans and apply
	// runtime/pprof phase labels around every phase, not only passes.
	wrap func(worker int, fn func(int))
	// panics[i] is worker i's recovered panic from the current Run, nil
	// when it completed normally. Reset by Run before dispatch; each worker
	// writes only its own slot, and Run reads only after the barrier.
	panics []error
	// notes[i] is worker i's announced counting chunk (NoteChunk), stamped
	// into the WorkerPanicError when that worker panics mid-chunk.
	notes []workerNote
}

// workerNote is one worker's current-chunk annotation, padded to a cache
// line: the owner rewrites it on every chunk claim, and unpadded slots would
// false-share exactly like the counting accumulators (perWorker).
type workerNote struct {
	//armlint:hot
	chunk int64
	_     [64 - 8]byte
}

// NewPool starts procs persistent workers (minimum 1). Callers must Close
// the pool when the run completes.
func NewPool(procs int) *Pool {
	if procs < 1 {
		procs = 1
	}
	p := &Pool{
		procs:  procs,
		work:   make([]chan func(int), procs),
		panics: make([]error, procs),
		notes:  make([]workerNote, procs),
	}
	for i := range p.work {
		p.work[i] = make(chan func(int))
		go p.worker(i)
	}
	return p
}

func (p *Pool) worker(i int) {
	for fn := range p.work[i] {
		p.dispatch(i, fn)
		p.wg.Done()
	}
}

// dispatch runs fn(i) through the wrap hook when one is installed,
// containing any panic: the recovered value, the worker's stack and its
// announced chunk become a *robust.WorkerPanicError in panics[i].
func (p *Pool) dispatch(i int, fn func(int)) {
	defer func() {
		if r := recover(); r != nil {
			p.panics[i] = &robust.WorkerPanicError{
				Worker: i,
				Chunk:  int(p.notes[i].chunk),
				Value:  r,
				Stack:  debug.Stack(),
			}
		}
	}()
	if w := p.wrap; w != nil {
		w(i, fn)
		return
	}
	fn(i)
}

// NoteChunk announces the counting chunk worker i is about to process, so a
// panic inside it is attributed to the chunk. Chunk -1 clears the note. The
// slot is owner-written between barriers; the coordinating goroutine resets
// it at Run entry.
func (p *Pool) NoteChunk(worker, chunk int) {
	p.notes[worker].chunk = int64(chunk)
}

// Procs returns the number of workers.
func (p *Pool) Procs() int { return p.procs }

// SetWrap installs a hook invoked around every closure Run dispatches:
// wrap(worker, fn) must call fn(worker) exactly once. Call only while the
// pool is idle (no Run in flight) — workers observe the new hook on their
// next dispatch via the Run channel's happens-before edge. A nil wrap
// removes the hook.
func (p *Pool) SetWrap(wrap func(worker int, fn func(int))) {
	p.wrap = wrap
}

// Run executes fn(p) on every worker p in [0, Procs) and waits for all of
// them. fn must not call Run on the same pool (the workers are busy). A
// single-worker pool runs fn inline — phase semantics are identical and the
// sequential baseline pays no channel hop.
//
// A panic in any worker is contained and returned as a
// *robust.WorkerPanicError (the lowest-indexed panicking worker wins, so the
// returned error is deterministic when several workers fail); the remaining
// workers complete their closures normally and the pool stays usable.
func (p *Pool) Run(fn func(p int)) error {
	for i := 0; i < p.procs; i++ {
		p.panics[i] = nil
		p.notes[i].chunk = -1
	}
	if p.procs == 1 {
		p.dispatch(0, fn)
		return p.firstPanic()
	}
	p.wg.Add(p.procs)
	for i := 0; i < p.procs; i++ {
		p.work[i] <- fn
	}
	p.wg.Wait()
	return p.firstPanic()
}

// RunCtx is Run with a cancellation gate: a context that is already done
// skips the dispatch entirely and returns its error; otherwise the phase
// runs to its barrier (closures observe cancellation cooperatively at chunk
// boundaries) and any contained panic is reported as usual.
func (p *Pool) RunCtx(ctx context.Context, fn func(p int)) error {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	return p.Run(fn)
}

// firstPanic returns the contained panic of the lowest-indexed worker.
func (p *Pool) firstPanic() error {
	for i := 0; i < p.procs; i++ {
		if err := p.panics[i]; err != nil {
			return err
		}
	}
	return nil
}

// Close shuts the workers down. The pool must be idle (no Run in flight).
func (p *Pool) Close() {
	for _, c := range p.work {
		close(c)
	}
}
