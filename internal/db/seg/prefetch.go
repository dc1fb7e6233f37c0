package seg

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/db"
	"repro/internal/obs"
)

// PipelineOptions configures a streaming pass pipeline over a Reader.
type PipelineOptions struct {
	// Budget caps the bytes of decoded segments resident at once; the
	// pipeline divides it by the largest segment to get the resident count.
	// 0 means double buffering (two residents). A budget below two segments
	// degrades to the synchronous load-then-count loop — correct, just
	// unoverlapped.
	Budget int64
	// LoadDelay adds synthetic latency to every segment load, modelling a
	// slower disk than the host's: the overlap benchmarks use it to make the
	// prefetch win measurable and deterministic-ish on any hardware.
	LoadDelay time.Duration
	// Obs records seg_load spans on the io track and seg_count /
	// prefetch_stall spans on the master track. Nil disables recording.
	Obs *obs.Recorder
}

// PipelineStats aggregates every pass run through the pipeline.
type PipelineStats struct {
	Residents  int   // budgeted resident segments
	Overlapped bool  // true when a prefetcher goroutine runs (Residents >= 2)
	Passes     int   // completed ForEach passes
	Segments   int   // segments streamed, cumulative over passes
	LoadNS     int64 // summed segment load+materialize time (includes LoadDelay)
	StallNS    int64 // summed consumer wait for the next segment
	CountNS    int64 // summed consumer callback time
}

// StallFraction returns the share of consumer wall-clock spent waiting for
// segment loads — the figure the prefetch-overlap benchmark gates on: near
// load/(load+count) for the synchronous loop, near zero when double
// buffering hides the loads.
func (s PipelineStats) StallFraction() float64 {
	total := s.StallNS + s.CountNS
	if total == 0 {
		return 0
	}
	return float64(s.StallNS) / float64(total)
}

// Pipeline streams a Reader's segments to a consumer, pass after pass. With
// two or more budgeted residents a prefetcher goroutine loads and
// materializes segment N+1 into a spare buffer while the consumer (the
// mining coordinator, driving sched.Pool) counts segment N; buffers rotate
// through a freelist, so steady-state passes allocate nothing. One Pipeline
// serves many passes (one per Apriori iteration), reusing its buffers.
//
// Not safe for concurrent ForEach calls: the consumer side is single-caller
// by design (the mining loop), and only the prefetcher goroutine runs
// concurrently with it.
type Pipeline struct {
	r         *Reader
	opts      PipelineOptions
	residents int

	// mu guards the buffer exchange between the consumer and the prefetcher
	// goroutine: free buffers flow consumer→loader through free (cond
	// signals a blocked loader), loaded segments flow back through the
	// per-pass channel.
	mu   sync.Mutex
	cond *sync.Cond
	//armlint:guardedby mu
	free []*Buffer
	//armlint:guardedby mu
	aborted bool

	stats PipelineStats

	// handedOff, when set, runs on the prefetcher goroutine once segment
	// seg is in the consumer's channel: a test hook that lets a consumer
	// wait for the next segment instead of guessing how long its load takes.
	handedOff func(seg int)
}

// NewPipeline builds a pipeline over the reader.
func (r *Reader) NewPipeline(opts PipelineOptions) *Pipeline {
	residents := 2
	if opts.Budget > 0 {
		if maxSeg := r.MaxSegmentBytes(); maxSeg > 0 {
			residents = int(opts.Budget / maxSeg)
		}
	}
	if residents < 1 {
		residents = 1
	}
	if n := r.NumSegments(); residents > n && n > 0 {
		residents = n
	}
	p := &Pipeline{r: r, opts: opts, residents: residents}
	p.cond = sync.NewCond(&p.mu)
	for i := 0; i < residents; i++ {
		//armlint:allow guardedby construction: p is unpublished until NewPipeline returns, so no goroutine can observe free yet
		p.free = append(p.free, &Buffer{})
	}
	p.stats.Residents = residents
	p.stats.Overlapped = residents >= 2 && r.NumSegments() > 1
	return p
}

// Residents returns the budgeted resident-segment count.
func (p *Pipeline) Residents() int { return p.residents }

// Stats returns the accumulated pipeline accounting. Call between passes.
func (p *Pipeline) Stats() PipelineStats { return p.stats }

// loaded is one prefetched segment handed from the loader to the consumer.
type loaded struct {
	seg    int
	d      *db.Database
	buf    *Buffer
	loadNS int64
	err    error
}

// ForEach runs one full pass: fn(seg, d) for every segment in order. The
// database passed to fn aliases a rotating buffer (or the file mapping) and
// is invalid once fn returns. Cancellation is observed between segments; a
// canceled pass returns ctx.Err() with the pass's partial work already done.
func (p *Pipeline) ForEach(ctx context.Context, fn func(seg int, d *db.Database) error) error {
	n := p.r.NumSegments()
	if n == 0 {
		p.stats.Passes++
		return nil
	}
	var err error
	if p.residents >= 2 {
		err = p.runOverlapped(ctx, n, fn)
	} else {
		err = p.runSync(ctx, n, fn)
	}
	if err == nil {
		p.stats.Passes++
	}
	return err
}

// EachSegment runs one pass of fn over a source a segment at a time,
// passing each segment's index and global transaction offset. An in-RAM
// database d is the single segment −1 at offset 0; with d nil, pipe streams
// its store. A pass canceled between segments returns nil: the caller's
// context check then discards the partial pass, as it does an interrupted
// in-RAM pass.
func EachSegment(ctx context.Context, d *db.Database, pipe *Pipeline, fn func(si, base int, sd *db.Database) error) error {
	if d != nil {
		return fn(-1, 0, d)
	}
	err := pipe.ForEach(ctx, func(si int, sd *db.Database) error {
		return fn(si, int(pipe.r.Segment(si).TxOff), sd) //armlint:narrowok int is 64-bit on every supported target, so the int64 transaction offset converts losslessly
	})
	if err != nil && errors.Is(err, ctx.Err()) {
		return nil
	}
	return err
}

// runSync is the unoverlapped loop: load, then count, segment by segment.
// The whole load is consumer wait, so it is recorded (and accounted) as
// stall — this is the disk-bound ceiling the prefetcher exists to beat.
func (p *Pipeline) runSync(ctx context.Context, n int, fn func(int, *db.Database) error) error {
	rec := p.opts.Obs
	buf := p.take()
	if buf == nil {
		return fmt.Errorf("seg: pipeline aborted")
	}
	defer p.put(buf)
	for i := 0; i < n; i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		rec.Master().BeginSeg(obs.SegStall, i)
		d, loadNS, err := p.load(i, buf, rec.IO())
		rec.Master().EndSeg(obs.SegStall, i)
		p.stats.LoadNS += loadNS
		p.stats.StallNS += loadNS
		if err != nil {
			return err
		}
		if err := p.count(i, d, fn); err != nil {
			return err
		}
	}
	return nil
}

// runOverlapped double-buffers: a loader goroutine prefetches segment N+1
// (and beyond, up to the resident budget) while the consumer counts segment
// N. The loader blocks on the buffer freelist, so at most `residents`
// segments are ever materialized.
func (p *Pipeline) runOverlapped(ctx context.Context, n int, fn func(int, *db.Database) error) error {
	rec := p.opts.Obs
	p.mu.Lock()
	p.aborted = false
	p.mu.Unlock()
	ch := make(chan loaded, p.residents-1)
	abortCh := make(chan struct{})

	go func() {
		defer close(ch)
		io := rec.IO()
		for i := 0; i < n; i++ {
			buf := p.take()
			if buf == nil {
				return // consumer aborted the pass
			}
			d, loadNS, err := p.load(i, buf, io)
			select {
			case ch <- loaded{seg: i, d: d, buf: buf, loadNS: loadNS, err: err}:
				if p.handedOff != nil {
					p.handedOff(i)
				}
			case <-abortCh:
				p.put(buf)
				return
			}
			if err != nil {
				return
			}
		}
	}()

	// abort unblocks the loader (whether waiting for a buffer or sending)
	// and reclaims in-flight buffers, so an early return leaks nothing and
	// the next pass starts clean.
	var aborted bool
	abort := func() {
		if aborted {
			return
		}
		aborted = true
		p.mu.Lock()
		p.aborted = true
		p.mu.Unlock()
		p.cond.Broadcast()
		close(abortCh)
		for ld := range ch {
			if ld.buf != nil {
				p.put(ld.buf)
			}
		}
	}
	defer abort()

	for i := 0; i < n; i++ {
		t0 := time.Now() //armlint:allow determinism wall-clock pipeline stat feeds Stats only, never the work model
		rec.Master().BeginSeg(obs.SegStall, i)
		var ld loaded
		var ok bool
		select {
		case ld, ok = <-ch:
		case <-ctx.Done():
			rec.Master().EndSeg(obs.SegStall, i)
			return ctx.Err()
		}
		rec.Master().EndSeg(obs.SegStall, i)
		if !ok {
			return fmt.Errorf("seg: prefetcher exited early")
		}
		p.stats.StallNS += time.Since(t0).Nanoseconds() //armlint:allow determinism wall-clock pipeline stat feeds Stats only, never the work model
		p.stats.LoadNS += ld.loadNS
		if ld.err != nil {
			return ld.err
		}
		err := p.count(i, ld.d, fn)
		p.put(ld.buf)
		if err != nil {
			return err
		}
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	return nil
}

// load materializes one segment (applying the synthetic LoadDelay) under a
// seg_load span on the io track.
func (p *Pipeline) load(i int, buf *Buffer, io *obs.Worker) (*db.Database, int64, error) {
	t0 := time.Now() //armlint:allow determinism wall-clock pipeline stat feeds Stats only, never the work model
	io.BeginSeg(obs.SegLoad, i)
	d, err := p.r.LoadSegment(i, buf)
	if p.opts.LoadDelay > 0 {
		time.Sleep(p.opts.LoadDelay) //armlint:allow determinism synthetic I/O delay for pipeline tests; never a work-model input
	}
	io.EndSeg(obs.SegLoad, i)
	return d, time.Since(t0).Nanoseconds(), err //armlint:allow determinism wall-clock pipeline stat feeds Stats only, never the work model
}

// count runs the consumer callback under a seg_count span.
func (p *Pipeline) count(i int, d *db.Database, fn func(int, *db.Database) error) error {
	rec := p.opts.Obs
	t0 := time.Now() //armlint:allow determinism wall-clock pipeline stat feeds Stats only, never the work model
	rec.Master().BeginSeg(obs.SegCount, i)
	err := fn(i, d)
	rec.Master().EndSeg(obs.SegCount, i)
	p.stats.CountNS += time.Since(t0).Nanoseconds() //armlint:allow determinism wall-clock pipeline stat feeds Stats only, never the work model
	p.stats.Segments++
	return err
}

// take pops a free buffer, blocking until one is returned or the pass is
// aborted (nil).
//
//armlint:polls
func (p *Pipeline) take() *Buffer {
	p.mu.Lock()
	defer p.mu.Unlock()
	for len(p.free) == 0 && !p.aborted {
		p.cond.Wait()
	}
	if p.aborted {
		return nil
	}
	b := p.free[len(p.free)-1]
	p.free = p.free[:len(p.free)-1]
	return b
}

// put returns a buffer to the freelist and wakes a blocked loader.
func (p *Pipeline) put(b *Buffer) {
	p.mu.Lock()
	p.free = append(p.free, b)
	p.mu.Unlock()
	p.cond.Signal()
}
