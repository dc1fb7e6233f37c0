package obs

import (
	"bufio"
	"fmt"
	"io"
)

// WriteTrace exports every buffered event as Chrome trace_event JSON
// (loadable in Perfetto / chrome://tracing). The timeline has one track
// ("thread") per processor plus a "master" track for the coordinating
// goroutine: phase spans are B/E duration events, and chunk spans nest
// inside them.
//
// Call only after mining completes (the per-worker buffers are single-writer
// between pool barriers). The export path allocates freely — it is off the
// hot path by construction.
func (r *Recorder) WriteTrace(w io.Writer) error {
	if r == nil {
		return fmt.Errorf("obs: WriteTrace on a nil (disabled) recorder")
	}
	bw := bufio.NewWriter(w)
	bw.WriteString(`{"displayTimeUnit":"ns","traceEvents":[`)
	first := true
	emit := func(format string, args ...any) {
		if !first {
			bw.WriteByte(',')
		}
		first = false
		bw.WriteByte('\n')
		fmt.Fprintf(bw, format, args...)
	}

	// Track metadata: stable names so Perfetto shows "proc N" lanes. The io
	// track (the out-of-core prefetcher) is emitted only when it recorded
	// anything, so in-RAM traces keep their historical track set.
	emit(`{"name":"process_name","ph":"M","pid":1,"args":{"name":"armine"}}`)
	ioTrack := r.procs + 1
	ioUsed := len(r.workers[ioTrack].cur) > 0 || len(r.workers[ioTrack].full) > 0
	for p := range r.workers {
		var name string
		switch {
		case p < r.procs:
			name = fmt.Sprintf("proc %d", p)
		case p == r.procs:
			name = "master"
		default:
			if !ioUsed {
				continue
			}
			name = "io"
		}
		emit(`{"name":"thread_name","ph":"M","pid":1,"tid":%d,"args":{"name":%q}}`, p, name)
		emit(`{"name":"thread_sort_index","ph":"M","pid":1,"tid":%d,"args":{"sort_index":%d}}`, p, p)
	}

	for p := range r.workers {
		tid := p
		r.workers[p].events(func(ev event) {
			us := float64(ev.ts) / 1e3 // trace_event ts is in microseconds
			switch ev.kind {
			case evBeginPhase:
				emit(`{"name":%q,"cat":"phase","ph":"B","pid":1,"tid":%d,"ts":%.3f,"args":{"k":%d}}`,
					Phase(ev.phase).String(), tid, us, ev.k)
			case evEndPhase:
				emit(`{"ph":"E","pid":1,"tid":%d,"ts":%.3f}`, tid, us)
			case evBeginChunk:
				emit(`{"name":"chunk","cat":"chunk","ph":"B","pid":1,"tid":%d,"ts":%.3f,"args":{"chunk":%d,"k":%d}}`,
					tid, us, ev.arg, ev.k)
			case evEndChunk:
				emit(`{"ph":"E","pid":1,"tid":%d,"ts":%.3f}`, tid, us)
			case evBeginSeg:
				emit(`{"name":%q,"cat":"seg","ph":"B","pid":1,"tid":%d,"ts":%.3f,"args":{"seg":%d}}`,
					SegKind(ev.phase).String(), tid, us, ev.arg)
			case evEndSeg:
				emit(`{"ph":"E","pid":1,"tid":%d,"ts":%.3f}`, tid, us)
			}
		})
	}
	bw.WriteString("\n]}\n")
	return bw.Flush()
}
