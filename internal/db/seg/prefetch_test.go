package seg

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/db"
	"repro/internal/obs"
)

// openStore writes d segmented and opens it read-at.
func openStore(t *testing.T, d *db.Database, opts WriterOptions) *Reader {
	t.Helper()
	r, err := Open(writeSeg(t, d, opts))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { r.Close() })
	return r
}

func TestPipelineOrderAndReuse(t *testing.T) {
	d := genDB(t, 400, 13)
	r := openStore(t, d, WriterOptions{SegTx: 64})
	p := r.NewPipeline(PipelineOptions{}) // 0 budget → double buffered
	if p.Residents() != 2 {
		t.Fatalf("Residents = %d, want 2 for zero budget", p.Residents())
	}
	for pass := 0; pass < 3; pass++ {
		var segs []int
		var tx int64
		err := p.ForEach(context.Background(), func(seg int, sd *db.Database) error {
			segs = append(segs, seg)
			tx += int64(sd.Len())
			return nil
		})
		if err != nil {
			t.Fatalf("pass %d: %v", pass, err)
		}
		for i, s := range segs {
			if s != i {
				t.Fatalf("pass %d: segment order %v", pass, segs)
			}
		}
		if tx != r.NumTx() {
			t.Fatalf("pass %d: streamed %d transactions, want %d", pass, tx, r.NumTx())
		}
	}
	st := p.Stats()
	if st.Passes != 3 || st.Segments != 3*r.NumSegments() {
		t.Fatalf("stats = %+v, want 3 passes x %d segments", st, r.NumSegments())
	}
	if !st.Overlapped {
		t.Fatalf("stats = %+v, want Overlapped", st)
	}
}

func TestPipelineBudgetResidents(t *testing.T) {
	d := genDB(t, 400, 13)
	r := openStore(t, d, WriterOptions{SegTx: 64})
	maxSeg := r.MaxSegmentBytes()
	cases := []struct {
		budget    int64
		residents int
	}{
		{1, 1},                     // below one segment → degrade to sync, never 0
		{maxSeg, 1},                // exactly one resident
		{2 * maxSeg, 2},            // double buffer
		{1 << 40, r.NumSegments()}, // huge budget caps at the segment count
	}
	for _, tc := range cases {
		p := r.NewPipeline(PipelineOptions{Budget: tc.budget})
		if p.Residents() != tc.residents {
			t.Errorf("budget %d: Residents = %d, want %d", tc.budget, p.Residents(), tc.residents)
		}
	}
}

func TestPipelineSyncMode(t *testing.T) {
	d := genDB(t, 300, 17)
	r := openStore(t, d, WriterOptions{SegTx: 64})
	p := r.NewPipeline(PipelineOptions{Budget: 1}) // one resident → synchronous
	if p.Stats().Overlapped {
		t.Fatal("one-resident pipeline reports Overlapped")
	}
	var tx int64
	if err := p.ForEach(context.Background(), func(_ int, sd *db.Database) error {
		tx += int64(sd.Len())
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if tx != r.NumTx() {
		t.Fatalf("streamed %d transactions, want %d", tx, r.NumTx())
	}
	st := p.Stats()
	if st.StallNS == 0 || st.StallNS < st.LoadNS {
		t.Fatalf("sync stats = %+v, want StallNS >= LoadNS > 0 (loads are stalls)", st)
	}
}

func TestPipelineStallAccounting(t *testing.T) {
	d := genDB(t, 200, 19)
	r := openStore(t, d, WriterOptions{SegTx: 32})
	if r.NumSegments() < 4 {
		t.Fatalf("want >= 4 segments, got %d", r.NumSegments())
	}
	const delay = 2 * time.Millisecond

	sync := r.NewPipeline(PipelineOptions{Budget: 1, LoadDelay: delay})
	if err := sync.ForEach(context.Background(), func(int, *db.Database) error { return nil }); err != nil {
		t.Fatal(err)
	}
	over := r.NewPipeline(PipelineOptions{LoadDelay: delay})
	handed := make([]chan struct{}, r.NumSegments())
	for i := range handed {
		handed[i] = make(chan struct{})
	}
	over.handedOff = func(seg int) { close(handed[seg]) }
	if err := over.ForEach(context.Background(), func(seg int, _ *db.Database) error {
		// Return only once the prefetcher has handed over the next segment,
		// so however loaded the host, every later stall is a receive from a
		// full channel.
		if seg+1 < len(handed) {
			<-handed[seg+1]
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	ss, os_ := sync.Stats(), over.Stats()
	if ss.StallNS < int64(r.NumSegments())*int64(delay) {
		t.Fatalf("sync StallNS = %d, want >= %d (every load is a stall)", ss.StallNS, int64(r.NumSegments())*int64(delay))
	}
	// Overlapped: only the first load is exposed; later stalls are channel
	// handoffs. Allow generous slack but require a real win.
	if os_.StallNS >= ss.StallNS {
		t.Fatalf("overlapped StallNS = %d, not below sync %d", os_.StallNS, ss.StallNS)
	}
	if f := os_.StallFraction(); f >= ss.StallFraction() {
		t.Fatalf("overlapped stall fraction %.3f, not below sync %.3f", f, ss.StallFraction())
	}
}

func TestPipelineConsumerError(t *testing.T) {
	d := genDB(t, 300, 23)
	r := openStore(t, d, WriterOptions{SegTx: 32})
	p := r.NewPipeline(PipelineOptions{})
	boom := errors.New("boom")
	err := p.ForEach(context.Background(), func(seg int, _ *db.Database) error {
		if seg == 2 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("ForEach = %v, want boom", err)
	}
	// The pass aborted cleanly: all buffers are back and a fresh pass works.
	var segs int
	if err := p.ForEach(context.Background(), func(int, *db.Database) error { segs++; return nil }); err != nil {
		t.Fatalf("pass after abort: %v", err)
	}
	if segs != r.NumSegments() {
		t.Fatalf("pass after abort saw %d segments, want %d", segs, r.NumSegments())
	}
}

func TestPipelineCancellation(t *testing.T) {
	d := genDB(t, 300, 29)
	r := openStore(t, d, WriterOptions{SegTx: 32})
	for _, budget := range []int64{1, 0} { // sync and overlapped paths
		p := r.NewPipeline(PipelineOptions{Budget: budget})
		ctx, cancel := context.WithCancel(context.Background())
		err := p.ForEach(ctx, func(seg int, _ *db.Database) error {
			if seg == 1 {
				cancel()
			}
			return nil
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("budget %d: ForEach = %v, want context.Canceled", budget, err)
		}
		// Restartable after cancellation.
		if err := p.ForEach(context.Background(), func(int, *db.Database) error { return nil }); err != nil {
			t.Fatalf("budget %d: pass after cancel: %v", budget, err)
		}
	}
}

func TestPipelineLoaderError(t *testing.T) {
	d := genDB(t, 300, 31)
	path := writeSeg(t, d, WriterOptions{SegTx: 64})
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	// Poison a later segment's directory entry in memory: the extra phantom
	// transaction makes the decoded offsets inconsistent, so LoadSegment's
	// validation fails inside the prefetcher goroutine.
	r.dir[2].NumTx++
	p := r.NewPipeline(PipelineOptions{})
	err = p.ForEach(context.Background(), func(int, *db.Database) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "segment 2") {
		t.Fatalf("ForEach with poisoned segment = %v, want segment 2 error", err)
	}
}

func TestPipelineObsSpans(t *testing.T) {
	d := genDB(t, 200, 37)
	r := openStore(t, d, WriterOptions{SegTx: 32})
	rec := obs.NewRecorder(2)
	p := r.NewPipeline(PipelineOptions{Obs: rec})
	if err := p.ForEach(context.Background(), func(int, *db.Database) error { return nil }); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rec.WriteTrace(&buf); err != nil {
		t.Fatalf("WriteTrace: %v", err)
	}
	out := buf.String()
	for _, want := range []string{`"seg_load"`, `"seg_count"`, `"prefetch_stall"`, `"io"`} {
		if !strings.Contains(out, want) {
			t.Fatalf("trace missing %s:\n%s", want, out)
		}
	}
}
