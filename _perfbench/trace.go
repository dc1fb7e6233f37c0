package main

import (
	"cmp"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's side
// of the call. Parent 0 marks a root; spans of one request share Req.
type span struct {
	Name       string
	ID, Parent int64
	Req        int64
	Lane       int64 // display row in the trace viewer
	Start, End time.Duration
	Args       map[string]any
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A disabled tracer still
// times every call, so the untraced run measures through the same code
// path without recording anything.
type tracer struct {
	on     bool
	epoch  time.Time
	nextID atomic.Int64

	mu    sync.Mutex
	spans []span // guarded by mu
}

func newTracer(on bool) *tracer { return &tracer{on: on, epoch: time.Now()} }

// active is an open span; end closes it and returns its duration.
type active struct {
	t      *tracer
	s      span
	wallT0 time.Time
}

func (t *tracer) start(name string, parent, req, lane int64) *active {
	a := &active{t: t, s: span{Name: name, Parent: parent, Req: req, Lane: lane}}
	if t.on {
		a.s.ID = t.nextID.Add(1)
	}
	a.wallT0 = time.Now()
	return a
}

// id is the span's identifier for its children (0 when tracing is off).
func (a *active) id() int64 { return a.s.ID }

func (a *active) end() time.Duration {
	t1 := time.Now()
	d := t1.Sub(a.wallT0)
	if a.t.on {
		a.s.Start, a.s.End = a.wallT0.Sub(a.t.epoch), t1.Sub(a.t.epoch)
		a.t.add(a.s)
	}
	return d
}

// record adds a span whose interval the program reported rather than the
// benchmark observed (e.g. a snapshot's mine wall).
func (t *tracer) record(s span) {
	if t.on {
		s.ID = t.nextID.Add(1)
		t.add(s)
	}
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return slices.Clone(t.spans)
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval covered by the union of its children's intervals (children
// may overlap one another, and are clipped to the parent).
func selfTimes(spans []span) map[int64]time.Duration {
	kids := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		cs := kids[s.ID]
		slices.SortFunc(cs, func(a, b span) int { return cmp.Compare(a.Start, b.Start) })
		var covered time.Duration
		cur, curEnd := time.Duration(-1), time.Duration(-1)
		for _, c := range cs {
			lo, hi := max(c.Start, s.Start), min(c.End, s.End)
			if hi <= lo {
				continue
			}
			if lo > curEnd {
				if curEnd > cur {
					covered += curEnd - cur
				}
				cur, curEnd = lo, hi
			} else if hi > curEnd {
				curEnd = hi
			}
		}
		if curEnd > cur {
			covered += curEnd - cur
		}
		out[s.ID] = s.dur() - covered
	}
	return out
}

// writePerfetto writes the spans as Chrome trace-event JSON, which Perfetto
// (ui.perfetto.dev) and chrome://tracing load directly.
func writePerfetto(path string, spans []span, meta map[string]any) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur,omitempty"`
		Pid  int            `json:"pid"`
		Tid  int64          `json:"tid"`
		S    string         `json:"s,omitempty"`
		Args map[string]any `json:"args,omitempty"`
	}
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	evs := make([]event, 0, len(spans))
	for _, s := range spans {
		args := map[string]any{"id": s.ID, "parent": s.Parent, "req": s.Req}
		for k, v := range s.Args {
			args[k] = v
		}
		ev := event{Name: s.Name, Ph: "X", Ts: us(s.Start), Dur: us(s.dur()), Pid: 1, Tid: s.Lane, Args: args}
		if s.End == s.Start {
			ev.Ph, ev.Dur, ev.S = "i", 0, "t"
		}
		evs = append(evs, ev)
	}
	data, err := json.Marshal(map[string]any{
		"traceEvents": evs, "displayTimeUnit": "ms", "metadata": meta,
	})
	if err != nil {
		return fmt.Errorf("encode trace: %w", err)
	}
	return os.WriteFile(path, data, 0o644)
}
