package obs

import (
	"fmt"
	"io"
)

// WorkerStats is one processor's aggregated counters.
type WorkerStats struct {
	Proc      int
	Claimed   int64 // chunks claimed
	Stolen    int64 // chunks stolen from other workers
	WorkUnits int64 // deterministic work units
	Events    int   // buffered events on this track
	Dropped   int64 // events recycled out of a saturated ring
}

// Snapshot is a point-in-time aggregate of everything the recorder holds,
// safe to serialize or assert against. Unlike the trace export (which walks
// the single-writer ring segments and still requires a pool barrier), a
// Snapshot may be taken while a mine is running: the per-worker counters
// are atomics, and the master-side statistics are mutex-guarded, so a live
// /metrics scrape observes a consistent-enough view without synchronizing
// with the workers.
type Snapshot struct {
	Procs   int
	Workers []WorkerStats // one entry per processor (master track excluded)
	Iters   []IterStat
	IdleNS  int64
	Gauges  []Gauge
}

// Snapshot aggregates the per-worker counters and master-side statistics.
// Safe to call concurrently with a running mine; after a pool barrier it is
// exact (the post-barrier values are bit-identical to the pre-atomic
// implementation — TestObsEquivalence pins this).
func (r *Recorder) Snapshot() *Snapshot {
	if r == nil {
		return &Snapshot{}
	}
	s := &Snapshot{Procs: r.procs}
	for p := 0; p < r.procs; p++ {
		w := &r.workers[p]
		// dropped is loaded before recorded: recorded only grows, so the
		// buffered-event gauge (recorded − dropped) can never go negative
		// even when a recycle lands between the two loads.
		dropped := w.dropped.Load()
		s.Workers = append(s.Workers, WorkerStats{
			Proc: p, Claimed: w.claimed.Load(), Stolen: w.stolen.Load(), WorkUnits: w.workUnits.Load(),
			Events: int(w.recorded.Load() - dropped), Dropped: dropped,
		})
	}
	r.mu.Lock()
	s.Iters = append(s.Iters, r.iters...)
	s.IdleNS = r.idleNS
	s.Gauges = append(s.Gauges, r.gauges...)
	r.mu.Unlock()
	return s
}

// WriteMetrics renders the snapshot in Prometheus text exposition format:
// per-processor chunk/steal/work counters, counting idle time, per-k
// candidate and frequent series, and any gauges (e.g. cachesim miss rates
// when a placement replay ran). Output order is deterministic. Safe to call
// concurrently with a running mine — this is the armined /metrics scrape
// path.
func (r *Recorder) WriteMetrics(w io.Writer) error {
	return r.Snapshot().WritePrometheus(w)
}

// WritePrometheus renders the snapshot in Prometheus text format.
func (s *Snapshot) WritePrometheus(w io.Writer) error {
	series := func(name, help, typ string, emit func(out io.Writer)) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
		emit(w)
	}
	series("armine_chunks_claimed_total", "counting chunks claimed per processor", "counter", func(out io.Writer) {
		for _, ws := range s.Workers {
			fmt.Fprintf(out, "armine_chunks_claimed_total{proc=\"%d\"} %d\n", ws.Proc, ws.Claimed)
		}
	})
	series("armine_steals_total", "chunks stolen from another processor's deque", "counter", func(out io.Writer) {
		for _, ws := range s.Workers {
			fmt.Fprintf(out, "armine_steals_total{proc=\"%d\"} %d\n", ws.Proc, ws.Stolen)
		}
	})
	series("armine_work_units_total", "deterministic counting work units per processor", "counter", func(out io.Writer) {
		for _, ws := range s.Workers {
			fmt.Fprintf(out, "armine_work_units_total{proc=\"%d\"} %d\n", ws.Proc, ws.WorkUnits)
		}
	})
	series("armine_trace_events", "buffered trace events per processor track", "gauge", func(out io.Writer) {
		for _, ws := range s.Workers {
			fmt.Fprintf(out, "armine_trace_events{proc=\"%d\"} %d\n", ws.Proc, ws.Events)
		}
	})
	series("armine_trace_events_dropped_total", "events recycled out of saturated ring buffers", "counter", func(out io.Writer) {
		for _, ws := range s.Workers {
			fmt.Fprintf(out, "armine_trace_events_dropped_total{proc=\"%d\"} %d\n", ws.Proc, ws.Dropped)
		}
	})
	series("armine_count_idle_ns_total", "summed counting-phase wall-clock idle (Σ_p max−elapsed_p)", "counter", func(out io.Writer) {
		fmt.Fprintf(out, "armine_count_idle_ns_total %d\n", s.IdleNS)
	})
	series("armine_candidates", "candidate itemsets per iteration", "gauge", func(out io.Writer) {
		for _, it := range s.Iters {
			fmt.Fprintf(out, "armine_candidates{k=\"%d\"} %d\n", it.K, it.Candidates)
		}
	})
	series("armine_frequent", "frequent itemsets per iteration", "gauge", func(out io.Writer) {
		for _, it := range s.Iters {
			fmt.Fprintf(out, "armine_frequent{k=\"%d\"} %d\n", it.K, it.Frequent)
		}
	})
	for _, g := range s.Gauges {
		fmt.Fprintf(w, "%s %g\n", g.Series, g.Value)
	}
	return nil
}
