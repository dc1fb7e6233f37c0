// Package obs is the low-overhead observability layer of the mining stack:
// per-worker event buffers record phase begin/end and chunk claims as
// monotonic-clock spans, exportable as a Chrome
// trace_event JSON timeline (one track per "processor", viewable in
// Perfetto), a Prometheus-text metrics snapshot, and runtime/pprof labels
// that segment CPU profiles by mining phase.
//
// The paper's entire argument is timing-shaped — per-phase breakdowns, idle
// time, locality — so every balance claim a scheduler PR makes should be
// backed by an exported timeline rather than ad-hoc prints. The layer is
// therefore built to be cheap enough to leave compiled into the hot paths:
//
//   - Events are fixed-size structs appended to preallocated per-worker
//     ring segments: recording is a monotonic clock read plus a bounds
//     check and a store, with zero heap allocations steady-state. When the
//     per-worker ring is saturated the oldest segment is recycled (dropped
//     event counts are reported, never silently lost).
//   - Worker records tile whole cache lines (their size is a multiple of 64
//     bytes, checked by armlint's falseshare pass and a layout test), so
//     two workers' live counters never share a coherence line.
//   - A nil *Recorder is a valid disabled recorder: every method nil-checks
//     its receiver and returns immediately, so the wired-in call sites
//     compile to a test-and-branch and the counting kernel keeps its
//     0 allocs/op gate.
package obs

import (
	"context"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Phase identifies one phase of a mining iteration.
type Phase uint8

const (
	// PhaseF1 is the iteration-1 item counting pass.
	PhaseF1 Phase = iota
	// PhaseCandGen is candidate generation (join + prune).
	PhaseCandGen
	// PhaseTreeBuild is the parallel hash-tree insert.
	PhaseTreeBuild
	// PhaseCount is support counting, the dominant phase.
	PhaseCount
	// PhaseReduce is counter reduction plus frequent extraction.
	PhaseReduce
	// PhasePairs is the k=2 pair pass: every pair of a transaction's
	// frequent items counted into a private triangle per worker, in place
	// of candidate generation, tree build and the hash-tree count.
	PhasePairs
	numPhases
)

func (p Phase) String() string {
	switch p {
	case PhaseF1:
		return "f1"
	case PhaseCandGen:
		return "gen"
	case PhaseTreeBuild:
		return "build"
	case PhaseCount:
		return "count"
	case PhaseReduce:
		return "reduce"
	case PhasePairs:
		return "pairs"
	}
	return "unknown"
}

// SegKind identifies one out-of-core segment-pipeline span: loading and
// materializing a segment (prefetcher side), counting it (consumer side), or
// the consumer stalling on a load that has not finished (the overlap figure
// the prefetch benchmarks gate on).
type SegKind uint8

const (
	// SegLoad spans a segment read + materialize on the io track.
	SegLoad SegKind = iota
	// SegCount spans one segment's counting pass on the master track.
	SegCount
	// SegStall spans the consumer's wait for the next segment.
	SegStall
)

func (k SegKind) String() string {
	switch k {
	case SegLoad:
		return "seg_load"
	case SegCount:
		return "seg_count"
	case SegStall:
		return "prefetch_stall"
	}
	return "seg_unknown"
}

// Event kinds. Begin/end pairs form spans.
const (
	evBeginPhase uint8 = iota
	evEndPhase
	evBeginChunk
	evEndChunk
	evBeginSeg
	evEndSeg
)

// event is one fixed-size record: 32 bytes, no pointers, so a segment is a
// single flat allocation and appending never writes a heap header.
type event struct {
	ts    int64 // monotonic ns since the recorder epoch
	arg   int64 // chunk id (chunk spans) or segment (seg spans)
	k     int32 // iteration stamp
	kind  uint8
	phase uint8
	_     [10]byte // pad to 32 so segments tile cache lines exactly
}

const (
	// segEvents sizes one ring segment (32 B/event → 128 KiB per segment).
	segEvents = 4096
	// maxSegs bounds a worker's ring: past this the oldest segment is
	// recycled, keeping steady-state recording allocation-free and memory
	// bounded at ~4 MiB per worker.
	maxSegs = 32
)

// Worker is one processor's event buffer plus live counters. Exactly one
// goroutine (the owning pool worker) writes to it between barriers; the
// event segments (cur/full/free) are read only after a pool barrier, but
// the scalar counters are atomics so a live /metrics scrape (Snapshot,
// WriteMetrics) mid-mine reads them race-free — the writes stay
// single-owner and uncontended, so the atomic costs nothing on the hot
// path. The struct's size is a multiple of the 64-byte cache line —
// workers live in a []Worker — so one worker's hot counters never share a
// line with a neighbour's (armlint falseshare rule 1; TestWorkerPadding
// pins the layout).
type Worker struct {
	rec *Recorder
	id  int64
	//armlint:hot
	cur []event // active segment; append is alloc-free below cap
	//armlint:hot
	claimed atomic.Int64 // chunks claimed
	//armlint:hot
	workUnits atomic.Int64 // deterministic work units
	//armlint:hot
	dropped atomic.Int64 // events recycled out of a saturated ring
	//armlint:hot
	recorded atomic.Int64 // events ever recorded (buffered = recorded − dropped)
	full     [][]event
	free     [][]event
	_        [8]byte // pad to two cache lines
}

// Recorder owns the per-worker buffers, the master track, and the
// aggregate (mutex-guarded, master-side) iteration statistics. The zero
// value is not usable; a nil *Recorder is the disabled recorder.
type Recorder struct {
	epoch   time.Time
	workers []Worker // procs worker tracks + one master track
	procs   int
	phase   atomic.Pointer[phaseLabel]

	mu sync.Mutex
	//armlint:guardedby mu
	iters []IterStat
	//armlint:guardedby mu
	idleNS int64
	//armlint:guardedby mu
	gauges []Gauge
}

// IterStat is the master-side record of one iteration.
type IterStat struct {
	K          int
	Candidates int
	Frequent   int
}

// Gauge is one exported metric sample. Series is the full Prometheus series
// name including labels, e.g. `armine_cachesim_miss_rate{policy="gpp"}`.
type Gauge struct {
	Series string
	Value  float64
}

// phaseLabel is the currently-announced phase: the span identity workers
// record and the pprof label set they run under.
type phaseLabel struct {
	ph     Phase
	k      int32
	labels pprof.LabelSet
}

// NewRecorder builds an enabled recorder for procs processors, with every
// worker's first ring segment preallocated.
func NewRecorder(procs int) *Recorder {
	if procs < 1 {
		procs = 1
	}
	r := &Recorder{epoch: time.Now(), procs: procs}
	// procs worker tracks, then the master track, then the io track (the
	// out-of-core prefetcher goroutine; empty unless a segment pipeline runs).
	r.workers = make([]Worker, procs+2)
	for i := range r.workers {
		w := &r.workers[i]
		w.rec = r
		w.id = int64(i)
		w.cur = make([]event, 0, segEvents)
		w.full = make([][]event, 0, maxSegs)
	}
	return r
}

// Enabled reports whether the recorder records anything.
func (r *Recorder) Enabled() bool { return r != nil }

// Procs returns the worker-track count (excluding the master track).
func (r *Recorder) Procs() int {
	if r == nil {
		return 0
	}
	return r.procs
}

// Worker returns processor p's buffer handle, or nil for a nil/out-of-range
// recorder — all Worker methods accept a nil receiver, so call sites need
// no further guards.
func (r *Recorder) Worker(p int) *Worker {
	if r == nil || p < 0 || p >= r.procs {
		return nil
	}
	return &r.workers[p]
}

// master returns the master track (phase spans recorded by the coordinating
// goroutine).
func (r *Recorder) master() *Worker { return &r.workers[r.procs] }

// Master returns the master track for coordinator-side span recording (e.g.
// the segment pipeline's seg_count/prefetch_stall spans, which nest inside
// the live counting-phase span). Nil for a disabled recorder; only the
// coordinating goroutine may write to it.
func (r *Recorder) Master() *Worker {
	if r == nil {
		return nil
	}
	return r.master()
}

// / IO returns the io track: the single-writer buffer of the out-of-core
// prefetcher goroutine (seg_load spans). Nil for a disabled recorder.
func (r *Recorder) IO() *Worker {
	if r == nil {
		return nil
	}
	return &r.workers[r.procs+1]
}

func (r *Recorder) now() int64 { return int64(time.Since(r.epoch)) }

// SetPhase announces the phase subsequent pool dispatches belong to: it is
// stamped on every worker's phase span and becomes the workers' pprof label
// set (phase=<name>, k=<iteration>), so CPU profiles segment by mining
// phase. Call from the coordinating goroutine between pool barriers.
func (r *Recorder) SetPhase(ph Phase, k int) {
	if r == nil {
		return
	}
	r.phase.Store(&phaseLabel{
		ph: ph, k: int32(k),
		labels: pprof.Labels("phase", ph.String(), "k", strconv.Itoa(k)),
	})
}

// PoolWrap is the sched.Pool wrap hook: it brackets each dispatched closure
// with a phase span on the worker's track and runs it under the announced
// pprof labels. Install with pool.SetWrap(rec.PoolWrap).
func (r *Recorder) PoolWrap(worker int, fn func(int)) {
	if r == nil {
		fn(worker)
		return
	}
	pl := r.phase.Load()
	if pl == nil || worker < 0 || worker >= r.procs {
		fn(worker)
		return
	}
	w := &r.workers[worker]
	w.record(event{ts: r.now(), k: pl.k, kind: evBeginPhase, phase: uint8(pl.ph)})
	pprof.Do(context.Background(), pl.labels, func(context.Context) { fn(worker) })
	w.record(event{ts: r.now(), k: pl.k, kind: evEndPhase, phase: uint8(pl.ph)})
}

// BeginPhase opens a phase span on the master track.
func (r *Recorder) BeginPhase(ph Phase, k int) {
	if r == nil {
		return
	}
	r.master().record(event{ts: r.now(), k: int32(k), kind: evBeginPhase, phase: uint8(ph)})
}

// EndPhase closes the master-track phase span opened by BeginPhase.
func (r *Recorder) EndPhase(ph Phase, k int) {
	if r == nil {
		return
	}
	r.master().record(event{ts: r.now(), k: int32(k), kind: evEndPhase, phase: uint8(ph)})
}

// IterStats records one iteration's candidate and frequent counts.
func (r *Recorder) IterStats(k, candidates, frequent int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.iters = append(r.iters, IterStat{K: k, Candidates: candidates, Frequent: frequent})
	r.mu.Unlock()
}

// AddIdle accumulates counting-phase idle wall-clock (Σ_p max−elapsed_p).
func (r *Recorder) AddIdle(d time.Duration) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.idleNS += int64(d)
	r.mu.Unlock()
}

// SetGauge records (or overwrites) a metric sample under its full
// Prometheus series name, e.g. cachesim miss rates from a placement replay.
func (r *Recorder) SetGauge(series string, value float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := range r.gauges {
		if r.gauges[i].Series == series {
			r.gauges[i].Value = value
			return
		}
	}
	r.gauges = append(r.gauges, Gauge{Series: series, Value: value})
}

// NumEvents returns the total buffered event count across all tracks. Call
// only after a pool barrier (single-writer buffers are otherwise live).
func (r *Recorder) NumEvents() int {
	if r == nil {
		return 0
	}
	var n int
	for i := range r.workers {
		w := &r.workers[i]
		n += len(w.cur)
		for _, s := range w.full {
			n += len(s)
		}
	}
	return n
}

// Reset clears all buffered events and counters, retaining every allocated
// segment for reuse — after the first run of a given shape, subsequent runs
// record without allocating at all.
func (r *Recorder) Reset() {
	if r == nil {
		return
	}
	for i := range r.workers {
		w := &r.workers[i]
		for _, s := range w.full {
			w.free = append(w.free, s[:0])
		}
		w.full = w.full[:0]
		w.cur = w.cur[:0]
		w.claimed.Store(0)
		w.workUnits.Store(0)
		w.dropped.Store(0)
		w.recorded.Store(0)
	}
	r.mu.Lock()
	r.iters = r.iters[:0]
	r.idleNS = 0
	r.gauges = r.gauges[:0]
	r.mu.Unlock()
	r.epoch = time.Now()
}

// record appends one event, recycling the ring's oldest segment when
// saturated. Steady-state (segment already allocated) this performs no heap
// allocation: the append below is always within capacity, and the recorded
// counter is an uncontended atomic on the worker's own cache line.
func (w *Worker) record(ev event) {
	if len(w.cur) == cap(w.cur) {
		w.grow()
	}
	w.cur = append(w.cur, ev)
	w.recorded.Add(1)
}

// grow seals the active segment and installs an empty one: a freed segment
// if Reset banked any, a fresh allocation while the ring is still growing,
// or — once maxSegs is reached — the ring's oldest segment, whose events
// are dropped (counted in dropped, reported by Snapshot).
func (w *Worker) grow() {
	w.full = append(w.full, w.cur)
	switch {
	case len(w.free) > 0:
		w.cur = w.free[len(w.free)-1]
		w.free = w.free[:len(w.free)-1]
	case len(w.full) < maxSegs:
		w.cur = make([]event, 0, segEvents)
	default:
		oldest := w.full[0]
		copy(w.full, w.full[1:])
		w.full = w.full[:len(w.full)-1]
		w.dropped.Add(int64(len(oldest)))
		w.cur = oldest[:0]
	}
}

// BeginChunk opens a chunk span nested inside the current phase span.
func (w *Worker) BeginChunk(k, chunk int) {
	if w == nil {
		return
	}
	w.claimed.Add(1)
	w.record(event{ts: w.rec.now(), arg: int64(chunk), k: int32(k), kind: evBeginChunk, phase: uint8(PhaseCount)})
}

// EndChunk closes the chunk span opened by BeginChunk.
func (w *Worker) EndChunk(k, chunk int) {
	if w == nil {
		return
	}
	w.record(event{ts: w.rec.now(), arg: int64(chunk), k: int32(k), kind: evEndChunk, phase: uint8(PhaseCount)})
}

// BeginSeg opens a segment-pipeline span (seg_load / seg_count /
// prefetch_stall) for segment seg on this track.
func (w *Worker) BeginSeg(kind SegKind, seg int) {
	if w == nil {
		return
	}
	w.record(event{ts: w.rec.now(), arg: int64(seg), kind: evBeginSeg, phase: uint8(kind)})
}

// EndSeg closes the span opened by BeginSeg.
func (w *Worker) EndSeg(kind SegKind, seg int) {
	if w == nil {
		return
	}
	w.record(event{ts: w.rec.now(), arg: int64(seg), kind: evEndSeg, phase: uint8(kind)})
}

// AddWork accumulates deterministic work units counted by this worker.
func (w *Worker) AddWork(units int64) {
	if w == nil {
		return
	}
	w.workUnits.Add(units)
}

// events returns the worker's buffered events in recording order.
func (w *Worker) events(yield func(event)) {
	for _, s := range w.full {
		for i := range s {
			yield(s[i])
		}
	}
	for i := range w.cur {
		yield(w.cur[i])
	}
}
