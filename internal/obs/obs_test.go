package obs

import (
	"io"
	"sync"
	"testing"
	"time"
	"unsafe"
)

// TestWorkerPadding pins the Worker layout: workers live in a []Worker, so
// the falseshare rule (and the design) require the struct to tile whole
// 64-byte cache lines — one worker's hot counters must never share a line
// with a neighbour's.
func TestWorkerPadding(t *testing.T) {
	if sz := unsafe.Sizeof(Worker{}); sz%64 != 0 {
		t.Errorf("Worker is %d bytes, not a multiple of the 64-byte cache line", sz)
	}
	if sz := unsafe.Sizeof(event{}); sz != 32 {
		t.Errorf("event is %d bytes, want exactly 32 (segments must tile lines)", sz)
	}
}

// TestNilRecorderNoOps asserts the disabled-recorder contract: every method
// of a nil *Recorder and a nil *Worker is a no-op, so call sites need no
// guards and the counting kernel pays only a test-and-branch.
func TestNilRecorderNoOps(t *testing.T) {
	var r *Recorder
	if r.Enabled() {
		t.Error("nil recorder reports Enabled")
	}
	if r.Procs() != 0 {
		t.Error("nil recorder has procs")
	}
	r.SetPhase(PhaseCount, 2)
	r.BeginPhase(PhaseCount, 2)
	r.EndPhase(PhaseCount, 2)
	r.IterStats(2, 10, 5)
	r.AddIdle(time.Second)
	r.SetGauge("x", 1)
	r.Reset()
	if r.NumEvents() != 0 {
		t.Error("nil recorder has events")
	}
	ran := false
	r.PoolWrap(0, func(int) { ran = true })
	if !ran {
		t.Error("nil PoolWrap did not run the closure")
	}
	w := r.Worker(0)
	if w != nil {
		t.Fatal("nil recorder returned a worker")
	}
	w.BeginChunk(2, 0)
	w.EndChunk(2, 0)
	w.Steal(2, 0, 1)
	w.AddWork(100)
	if err := r.WriteTrace(io.Discard); err == nil {
		t.Error("WriteTrace on nil recorder should error")
	}
	s := r.Snapshot()
	if s == nil || len(s.Workers) != 0 {
		t.Error("nil Snapshot not empty")
	}
}

// TestRecordSteadyStateZeroAlloc is the overhead gate: once a worker's
// active segment exists, recording events performs no heap allocation.
func TestRecordSteadyStateZeroAlloc(t *testing.T) {
	r := NewRecorder(2)
	w := r.Worker(0)
	allocs := testing.AllocsPerRun(100, func() {
		w.BeginChunk(2, 7)
		w.Steal(2, 7, 1)
		w.EndChunk(2, 7)
		w.AddWork(10)
	})
	if allocs != 0 {
		t.Errorf("steady-state recording: %v allocs/op, want 0", allocs)
	}
}

// TestRingSegmentBoundary crosses a segment boundary and checks no event is
// lost or reordered while the ring is below its cap.
func TestRingSegmentBoundary(t *testing.T) {
	r := NewRecorder(1)
	w := r.Worker(0)
	const n = segEvents + segEvents/2
	for i := 0; i < n; i++ {
		w.BeginChunk(2, i)
	}
	if got := r.NumEvents(); got != n {
		t.Fatalf("NumEvents = %d, want %d", got, n)
	}
	i := 0
	w.events(func(ev event) {
		if int(ev.arg) != i {
			t.Fatalf("event %d has chunk %d (order broken at segment boundary)", i, ev.arg)
		}
		i++
	})
	if got := w.claimed.Load(); got != n {
		t.Errorf("claimed = %d, want %d", got, n)
	}
}

// TestRingRecyclesOldest saturates a worker's ring past maxSegs and checks
// the oldest events are dropped (and counted) rather than the ring growing
// without bound or recording stopping.
func TestRingRecyclesOldest(t *testing.T) {
	r := NewRecorder(1)
	w := r.Worker(0)
	const n = (maxSegs + 4) * segEvents
	for i := 0; i < n; i++ {
		w.BeginChunk(2, i)
	}
	if got := r.NumEvents(); got > maxSegs*segEvents {
		t.Errorf("ring grew past its bound: %d events > %d", got, maxSegs*segEvents)
	}
	if w.dropped.Load() == 0 {
		t.Error("saturated ring reported no dropped events")
	}
	if got := w.dropped.Load() + int64(r.NumEvents()); got != n {
		t.Errorf("dropped+buffered = %d, want %d (events silently lost)", got, n)
	}
	// The surviving events must be the newest, still in order.
	first := int64(-1)
	prev := int64(-1)
	w.events(func(ev event) {
		if first < 0 {
			first = ev.arg
		}
		if ev.arg <= prev {
			t.Fatalf("recycled ring out of order: %d after %d", ev.arg, prev)
		}
		prev = ev.arg
	})
	if prev != n-1 {
		t.Errorf("newest surviving event is chunk %d, want %d", prev, n-1)
	}
	if dropped := w.dropped.Load(); first != dropped {
		t.Errorf("oldest surviving event is chunk %d, want %d (oldest must be dropped first)", first, dropped)
	}
}

// TestResetBanksSegments checks Reset retains allocated segments: a second
// run of the same shape records entirely from the free list.
func TestResetBanksSegments(t *testing.T) {
	r := NewRecorder(1)
	w := r.Worker(0)
	for i := 0; i < 3*segEvents; i++ {
		w.BeginChunk(2, i)
	}
	r.IterStats(2, 100, 50)
	r.SetGauge("g", 1)
	r.Reset()
	if r.NumEvents() != 0 || w.claimed.Load() != 0 {
		t.Fatal("Reset did not clear events/counters")
	}
	s := r.Snapshot()
	if len(s.Iters) != 0 || len(s.Gauges) != 0 {
		t.Fatal("Reset did not clear iteration stats/gauges")
	}
	// A full record/Reset cycle of the same shape must not allocate fresh
	// segments: the active segment plus the banked free list cover it.
	allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < 3*segEvents; i++ {
			w.BeginChunk(2, i)
		}
		r.Reset()
	})
	if allocs != 0 {
		t.Errorf("record/Reset cycle allocated %v times, want 0 (free list unused)", allocs)
	}
}

// TestSnapshotAggregates checks the counter plumbing end to end.
func TestSnapshotAggregates(t *testing.T) {
	r := NewRecorder(2)
	w0, w1 := r.Worker(0), r.Worker(1)
	w0.BeginChunk(2, 0)
	w0.EndChunk(2, 0)
	w0.AddWork(40)
	w1.Steal(2, 0, 0)
	w1.BeginChunk(2, 0)
	w1.EndChunk(2, 0)
	w1.AddWork(60)
	r.IterStats(2, 9, 4)
	r.AddIdle(5 * time.Millisecond)
	r.SetGauge(`miss{policy="x"}`, 0.25)
	r.SetGauge(`miss{policy="x"}`, 0.5) // overwrite, not append

	s := r.Snapshot()
	if len(s.Workers) != 2 {
		t.Fatalf("snapshot has %d workers", len(s.Workers))
	}
	if s.Workers[0].Claimed != 1 || s.Workers[0].WorkUnits != 40 {
		t.Errorf("worker 0 stats = %+v", s.Workers[0])
	}
	if s.Workers[1].Claimed != 1 || s.Workers[1].Stolen != 1 || s.Workers[1].WorkUnits != 60 {
		t.Errorf("worker 1 stats = %+v", s.Workers[1])
	}
	if len(s.Iters) != 1 || s.Iters[0] != (IterStat{K: 2, Candidates: 9, Frequent: 4}) {
		t.Errorf("iters = %+v", s.Iters)
	}
	if s.IdleNS != int64(5*time.Millisecond) {
		t.Errorf("idle = %d", s.IdleNS)
	}
	if len(s.Gauges) != 1 || s.Gauges[0].Value != 0.5 {
		t.Errorf("gauges = %+v", s.Gauges)
	}
}

// TestScrapeDuringRecording is the scrape-safety gate: Snapshot and
// WriteMetrics must be callable while every worker track is recording at
// full rate — the armined /metrics endpoint scrapes mid-mine, with no pool
// barrier. The race detector vets the atomic counter reads; the assertions
// check a mid-flight snapshot is sane (monotone counters, no negative
// buffered-event gauge even while rings recycle).
func TestScrapeDuringRecording(t *testing.T) {
	const procs = 4
	r := NewRecorder(procs)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for p := 0; p < procs; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			w := r.Worker(p)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				w.BeginChunk(2, i)
				w.Steal(2, i, (p+1)%procs)
				w.AddWork(10)
				w.EndChunk(2, i)
			}
		}(p)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			r.IterStats(2, i, i/2)
			r.SetGauge("live", float64(i))
		}
	}()

	var prev []WorkerStats
	for i := 0; i < 200; i++ {
		s := r.Snapshot()
		if err := s.WritePrometheus(io.Discard); err != nil {
			t.Fatal(err)
		}
		for p, ws := range s.Workers {
			if ws.Events < 0 {
				t.Fatalf("proc %d: negative buffered-event gauge %d", p, ws.Events)
			}
			if prev != nil && ws.Claimed < prev[p].Claimed {
				t.Fatalf("proc %d: claimed went backwards (%d after %d)", p, ws.Claimed, prev[p].Claimed)
			}
		}
		prev = s.Workers
	}
	close(stop)
	wg.Wait()
}
