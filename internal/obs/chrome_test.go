package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// traceDoc mirrors the Chrome trace_event JSON envelope.
type traceDoc struct {
	DisplayTimeUnit string       `json:"displayTimeUnit"`
	TraceEvents     []traceEvent `json:"traceEvents"`
}

type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Ts   float64        `json:"ts"`
	Args map[string]any `json:"args"`
}

// record a small but complete run shape: a phase span per track enclosing
// chunk spans, plus master-track phase spans.
func recordSample(t *testing.T) *Recorder {
	t.Helper()
	r := NewRecorder(2)
	r.SetPhase(PhaseCount, 2)
	r.BeginPhase(PhaseCount, 2)
	for p := 0; p < 2; p++ {
		p := p
		r.PoolWrap(p, func(int) {
			w := r.Worker(p)
			w.BeginChunk(2, 2*p)
			w.EndChunk(2, 2*p)
			if p == 1 {
				w.BeginChunk(2, 3)
				w.EndChunk(2, 3)
			}
		})
	}
	r.EndPhase(PhaseCount, 2)
	return r
}

func TestWriteTraceValidJSON(t *testing.T) {
	r := recordSample(t)
	var buf bytes.Buffer
	if err := r.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc traceDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v\n%s", err, buf.String())
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("no trace events")
	}

	// Metadata: process name plus thread name/sort for every track
	// including the master.
	names := map[int]string{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "M" && ev.Name == "thread_name" {
			names[ev.Tid] = ev.Args["name"].(string)
		}
	}
	if names[0] != "proc 0" || names[1] != "proc 1" || names[2] != "master" {
		t.Errorf("thread names = %v", names)
	}

	// B/E spans must balance per track and never go negative (nesting).
	depth := map[int]int{}
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "B":
			depth[ev.Tid]++
		case "E":
			depth[ev.Tid]--
			if depth[ev.Tid] < 0 {
				t.Fatalf("tid %d: E without matching B", ev.Tid)
			}
		}
	}
	for tid, d := range depth {
		if d != 0 {
			t.Errorf("tid %d: %d unclosed spans", tid, d)
		}
	}

	// Chunk spans: BeginChunk count per tid must match the claimed counters.
	chunkB := map[int]int64{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "B" && ev.Cat == "chunk" {
			chunkB[ev.Tid]++
		}
	}
	for p := 0; p < 2; p++ {
		if claimed := r.Worker(p).claimed.Load(); chunkB[p] != claimed {
			t.Errorf("tid %d: %d chunk spans, claimed counter says %d", p, chunkB[p], claimed)
		}
	}

	// Timestamps per track are non-decreasing (recording order).
	last := map[int]float64{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "M" {
			continue
		}
		if ev.Ts < last[ev.Tid] {
			t.Fatalf("tid %d: ts went backwards (%f after %f)", ev.Tid, ev.Ts, last[ev.Tid])
		}
		last[ev.Tid] = ev.Ts
	}
}

func TestWriteMetricsFormat(t *testing.T) {
	r := recordSample(t)
	r.IterStats(2, 12, 7)
	r.SetGauge(`armine_cachesim_miss_rate{policy="gpp"}`, 0.125)
	var buf bytes.Buffer
	if err := r.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`armine_chunks_claimed_total{proc="0"} 1`,
		`armine_chunks_claimed_total{proc="1"} 2`,
		`armine_candidates{k="2"} 12`,
		`armine_frequent{k="2"} 7`,
		`armine_cachesim_miss_rate{policy="gpp"} 0.125`,
		"# TYPE armine_chunks_claimed_total counter",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics output missing %q\n%s", want, out)
		}
	}
}
