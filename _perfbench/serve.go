package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"reflect"
	"runtime"
	"strconv"
	"sync"
	"time"

	armine "repro"
	"repro/internal/serve"
)

// daemon is armined run in-process: serve.Server behind a real HTTP server
// on a loopback port, with its re-mine loop.
type daemon struct {
	srv    *serve.Server
	http   *http.Server
	base   string
	mw     *handlerTimer // nil when untraced
	cancel context.CancelFunc
	served chan error // Serve's return value
	closed sync.Once
}

// startDaemon brings armined up with the workload's policy, preloads rows
// over POST /ingest before the re-mine loop starts (so the first mine
// covers the whole preload), and waits for that first publish.
func startDaemon(tr *tracer, wl workload, rows []armine.Itemset, procs int) (*daemon, error) {
	srv := serve.New(serve.Config{
		Support: wl.Support, MinConfidence: wl.Conf, Engine: "auto",
		// One core stays free for serving: with every core mining, query
		// latency swings by two orders of magnitude between runs.
		Procs: max(1, procs-1),
	})
	var h http.Handler = srv.Handler()
	var mw *handlerTimer
	if tr.on {
		mw = &handlerTimer{tr: tr, next: h, took: map[int64]time.Duration{}}
		h = mw
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	mineCtx, cancel := context.WithCancel(context.Background())
	d := &daemon{
		srv: srv, http: &http.Server{Handler: h}, base: "http://" + ln.Addr().String(),
		mw: mw, cancel: cancel, served: make(chan error, 1),
	}
	go func() { d.served <- d.http.Serve(ln) }()

	client := &http.Client{Timeout: time.Minute}
	defer client.CloseIdleConnections()
	const chunk = 50_000 // under the daemon's 65536-transaction batch cap
	for lo := 0; lo < len(rows); lo += chunk {
		body, err := ingestBody(rows[lo:min(lo+chunk, len(rows))])
		if err == nil {
			err = postIngest(client, d.base, body, nil, min(chunk, len(rows)-lo))
		}
		if err != nil {
			d.close()
			return nil, fmt.Errorf("preload: %w", err)
		}
	}
	go srv.Run(mineCtx)
	if _, err := d.waitCovered(int64(len(rows)), 2*time.Minute); err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

// waitCovered polls Published until a snapshot covers n transactions.
func (d *daemon) waitCovered(n int64, timeout time.Duration) (*serve.Snapshot, error) {
	deadline := time.Now().Add(timeout)
	for {
		if s := d.srv.Published(); s != nil && s.DBLen >= n {
			return s, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("no snapshot covering %d transactions within %v", n, timeout)
		}
		time.Sleep(time.Millisecond)
	}
}

// close stops the HTTP server, cancels the re-mine loop (a mine in flight
// stops cooperatively) and waits for both to exit. Later calls are no-ops.
func (d *daemon) close() {
	d.closed.Do(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := d.http.Shutdown(ctx); err != nil {
			d.http.Close()
		}
		<-d.served
		d.cancel()
		d.srv.Wait()
	})
}

// handlerTimer is the benchmark-side middleware of the traced run: a span
// around each handler call, child of the client span named in the request
// headers, and the handler time keyed by request id.
type handlerTimer struct {
	tr   *tracer
	next http.Handler

	mu   sync.Mutex
	took map[int64]time.Duration // guarded by mu
}

func (m *handlerTimer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	req, _ := strconv.ParseInt(r.Header.Get("X-Bench-Req"), 10, 64)
	parent, _ := strconv.ParseInt(r.Header.Get("X-Bench-Span"), 10, 64)
	lane, _ := strconv.ParseInt(r.Header.Get("X-Bench-Lane"), 10, 64)
	sp := m.tr.start("serve"+r.URL.Path, parent, req, lane)
	m.next.ServeHTTP(w, r)
	d := sp.end()
	m.mu.Lock()
	m.took[req] = d
	m.mu.Unlock()
}

func (m *handlerTimer) handlerTime(req int64) (time.Duration, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	d, ok := m.took[req]
	return d, ok
}

func ingestBody(rows []armine.Itemset) ([]byte, error) {
	txs := make([][]int64, len(rows))
	for i, r := range rows {
		tx := make([]int64, len(r))
		for j, it := range r {
			tx[j] = int64(it)
		}
		txs[i] = tx
	}
	return json.Marshal(map[string]any{"transactions": txs})
}

// postIngest sends one batch and requires the daemon to accept all of it.
func postIngest(c *http.Client, base string, body []byte, hdr http.Header, want int) error {
	req, err := http.NewRequest(http.MethodPost, base+"/ingest", bytes.NewReader(body))
	if err != nil {
		return err
	}
	for k, v := range hdr {
		req.Header[k] = v
	}
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var out struct {
		Accepted int    `json:"accepted"`
		Error    string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return fmt.Errorf("ingest: status %d, decode: %w", resp.StatusCode, err)
	}
	if resp.StatusCode != http.StatusAccepted || out.Accepted != want {
		return fmt.Errorf("ingest: status %d, accepted %d of %d: %s", resp.StatusCode, out.Accepted, want, out.Error)
	}
	return nil
}

// getRules runs one GET /rules query and checks the reply parses.
func getRules(c *http.Client, url string, hdr http.Header) error {
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	req.Header = hdr
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var out struct {
		Generation int64             `json:"generation"`
		Count      int               `json:"count"`
		Rules      []json.RawMessage `json:"rules"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return fmt.Errorf("rules: status %d, decode: %w", resp.StatusCode, err)
	}
	if resp.StatusCode != http.StatusOK || out.Generation < 1 || out.Count != len(out.Rules) || out.Count > queryLimit {
		return fmt.Errorf("rules: status %d, generation %d, count %d of %d", resp.StatusCode, out.Generation, out.Count, len(out.Rules))
	}
	return nil
}

// call is one scheduled request of the open loop.
type call struct {
	idx int
	due time.Duration
}

// outcome is what a client observed for one call. Latency runs from when
// the call was due, so a stall is charged to every request it delays.
type outcome struct {
	lat   time.Duration
	ackAt time.Duration // completion, since the load started
	err   error
}

// pubEvent is one snapshot publish observed through Published().
type pubEvent struct {
	at    time.Duration // when the watcher first saw it, since load start
	gen   int64
	dbLen int64
	wall  time.Duration // the snapshot's mine wall, as reported by serve
	mined time.Time
}

// serveResult is everything the serving phase measured.
type serveResult struct {
	queries, ingests []outcome
	late             []time.Duration // generator lateness, per call sent from idle
	pubs             []pubEvent      // publishes after the load started
	lagTx            []int64         // ingested − covered, sampled every 100 ms
	lagTxAt          []time.Duration
	ingestLag        []time.Duration // ack → first covering publish, per ingest
	final            *serve.Snapshot
	seq              []armine.Itemset // every ingested row, in tid order
	gcPause          time.Duration
	gcCycles         uint32
	debounce         time.Duration // the daemon's re-mine interval
}

// runServe drives the open loop for dur against a preloaded daemon: ingest
// bursts on one connection (so tids follow the schedule) and Zipf-skewed
// rule queries on the remaining procs−1 connections. Afterwards it waits
// for a snapshot covering every acknowledged transaction.
func runServe(tr *tracer, d *daemon, preload, stream []armine.Itemset, items []int64, dur time.Duration, procs int) (*serveResult, error) {
	nIngest := int(dur.Seconds() * ingestRate)
	nQuery := int(dur.Seconds() * queryRate)
	if nQuery > len(items) {
		return nil, fmt.Errorf("%d query items for %d queries", len(items), nQuery)
	}
	r := &serveResult{
		queries: make([]outcome, nQuery), ingests: make([]outcome, nIngest),
		seq:      append([]armine.Itemset(nil), preload...),
		debounce: d.srv.Config().RemineInterval,
	}
	bodies := make([][]byte, nIngest)
	for j := range bodies {
		burst := make([]armine.Itemset, ingestBatch)
		for i := range burst {
			burst[i] = stream[(j*ingestBatch+i)%len(stream)]
		}
		r.seq = append(r.seq, burst...)
		var err error
		if bodies[j], err = ingestBody(burst); err != nil {
			return nil, err
		}
	}
	var ms0 runtimeGC
	ms0.read()
	t0 := time.Now()
	stopWatch := make(chan struct{})
	watchDone := make(chan struct{})
	go func() {
		defer close(watchDone)
		r.watch(d.srv, t0, stopWatch)
	}()

	// Each connection is one open-loop client with its own schedule: it
	// sleeps until a call is due and sends it. A call that falls due while
	// its connection is still busy goes out as soon as the connection frees,
	// its latency still running from the due time. Lateness is sampled only
	// where the client was idle, so it measures the generator, not the
	// server.
	var wg sync.WaitGroup
	var mu sync.Mutex // guards r.late
	client := func(calls []call, send func(*http.Client, call)) {
		defer wg.Done()
		c := newClient()
		defer c.CloseIdleConnections()
		var late []time.Duration
		for _, cl := range calls {
			if wait := cl.due - time.Since(t0); wait > 0 {
				time.Sleep(wait)
				late = append(late, time.Since(t0)-cl.due)
			}
			send(c, cl)
		}
		mu.Lock()
		r.late = append(r.late, late...)
		mu.Unlock()
	}
	ingests := make([]call, nIngest)
	for j := range ingests {
		ingests[j] = call{idx: j, due: time.Duration(j) * time.Second / ingestRate}
	}
	wg.Add(1)
	go client(ingests, func(c *http.Client, cl call) {
		r.ingests[cl.idx] = do(tr, t0, cl, 1<<20+int64(cl.idx), "client.ingest", 10, func(h http.Header) error {
			return postIngest(c, d.base, bodies[cl.idx], h, ingestBatch)
		})
	})
	conns := max(1, procs-1)
	for w := 0; w < conns; w++ {
		var queries []call
		for i := w; i < nQuery; i += conns {
			queries = append(queries, call{idx: i, due: time.Duration(i) * time.Second / queryRate})
		}
		lane := int64(11 + w)
		wg.Add(1)
		go client(queries, func(c *http.Client, cl call) {
			url := fmt.Sprintf("%s/rules?item=%d&limit=%d", d.base, items[cl.idx], queryLimit)
			r.queries[cl.idx] = do(tr, t0, cl, int64(cl.idx)+1, "client.rules", lane, func(h http.Header) error {
				return getRules(c, url, h)
			})
		})
	}
	wg.Wait()
	for j, o := range r.ingests {
		if o.err != nil {
			// The covered prefix is unknown past a refused burst; no
			// operation of the workload may fail.
			close(stopWatch)
			<-watchDone
			return nil, fmt.Errorf("ingest burst %d: %w", j, o.err)
		}
	}

	final, err := d.waitCovered(int64(len(r.seq)), 2*time.Minute)
	seenAt := time.Since(t0)
	close(stopWatch)
	<-watchDone
	if err == nil && (len(r.pubs) == 0 || r.pubs[len(r.pubs)-1].gen < final.Generation) {
		// The watcher stopped before its next poll would have seen it.
		r.pubs = append(r.pubs, pubEvent{at: seenAt, gen: final.Generation, dbLen: final.DBLen, wall: final.Wall, mined: final.MinedAt})
	}
	var ms1 runtimeGC
	ms1.read()
	r.gcPause, r.gcCycles = ms1.pause-ms0.pause, ms1.cycles-ms0.cycles
	if err != nil {
		return nil, err
	}
	r.final = final
	r.ingestLag = publishLags(r.ingests, r.pubs, len(preload))
	for _, p := range r.pubs {
		tr.record(span{Name: "serve.remine (reported)", Lane: 20,
			Start: p.mined.Add(-p.wall).Sub(tr.epoch), End: p.mined.Sub(tr.epoch),
			Args: map[string]any{"generation": p.gen, "dbLen": p.dbLen}})
		at := t0.Add(p.at).Sub(tr.epoch)
		tr.record(span{Name: "serve.publish seen", Lane: 21, Start: at, End: at,
			Args: map[string]any{"generation": p.gen, "dbLen": p.dbLen}})
	}
	return r, nil
}

func newClient() *http.Client {
	return &http.Client{
		Timeout:   time.Minute,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
	}
}

// do runs one call inside a client span and times it from its due time.
func do(tr *tracer, t0 time.Time, cl call, req int64, name string, lane int64, send func(http.Header) error) outcome {
	sp := tr.start(name, 0, req, lane)
	hdr := http.Header{}
	if tr.on {
		hdr.Set("X-Bench-Req", strconv.FormatInt(req, 10))
		hdr.Set("X-Bench-Span", strconv.FormatInt(sp.id(), 10))
		hdr.Set("X-Bench-Lane", strconv.FormatInt(lane, 10))
	}
	err := send(hdr)
	sp.end()
	ack := time.Since(t0)
	return outcome{lat: ack - cl.due, ackAt: ack, err: err}
}

// watch records every publish (polling every 2 ms) and samples the ingest
// lag every 100 ms until stop.
func (r *serveResult) watch(srv *serve.Server, t0 time.Time, stop <-chan struct{}) {
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	last := srv.Published()
	var sampled time.Duration
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
		}
		s, now := srv.Published(), time.Since(t0)
		if s != last {
			r.pubs = append(r.pubs, pubEvent{at: now, gen: s.Generation, dbLen: s.DBLen, wall: s.Wall, mined: s.MinedAt})
			last = s
		}
		if now-sampled >= 100*time.Millisecond {
			r.lagTx = append(r.lagTx, srv.Ingested()-s.DBLen)
			r.lagTxAt = append(r.lagTxAt, now)
			sampled = now
		}
	}
}

// publishLags gives, per acknowledged ingest, the time from its ack to the
// first publish whose snapshot covers it (0 if that publish was seen
// before the ack arrived). Ingests are serialized and all accepted, so
// burst j ends at tid preload + (j+1)·ingestBatch.
func publishLags(ingests []outcome, pubs []pubEvent, preload int) []time.Duration {
	out := make([]time.Duration, 0, len(ingests))
	p := 0
	for j, o := range ingests {
		end := int64(preload + (j+1)*ingestBatch)
		for p < len(pubs) && pubs[p].dbLen < end {
			p++
		}
		if p == len(pubs) {
			break
		}
		out = append(out, max(0, pubs[p].at-o.ackAt))
	}
	return out
}

// checkFinal replays the final snapshot batch-side over exactly the prefix
// it covers: the snapshot must be bit-identical to a batch DispatchEngine +
// GenerateRulesFast over the same transactions. The replay mines with the
// workload's batch engine (exact engines agree bit for bit), which on
// sparse is another counting family than the daemon's and the cheaper one.
func checkFinal(ctx context.Context, d *daemon, r *serveResult, wl workload, procs int) error {
	snap := r.final
	if snap.DBLen > int64(len(r.seq)) {
		return fmt.Errorf("snapshot covers %d transactions, only %d were ingested", snap.DBLen, len(r.seq))
	}
	view := toDatabase(r.seq[:snap.DBLen])
	if planned, _ := d.srv.Plan(view); planned != snap.Engine {
		return fmt.Errorf("daemon policy plans %s for this prefix, snapshot was mined with %s", planned, snap.Engine)
	}
	name, spec := wl.BatchEngine, batchSpec(procs, wl.Support)
	if name == "auto" {
		name = armine.Planner{Procs: procs}.Plan(armine.CharacterizePlanner(view)).Engine
	}
	res, _, err := armine.DispatchEngine(ctx, name, view, nil, spec)
	if err != nil {
		return fmt.Errorf("replay %s: %w", name, err)
	}
	cfg := d.srv.Config()
	rs := armine.GenerateRulesFast(res, armine.RuleOptions{
		MinConfidence: cfg.MinConfidence, DBSize: int64(view.Len()), MaxConsequent: cfg.MaxConsequent,
	})
	switch {
	case res.MinCount != snap.Result.MinCount || !reflect.DeepEqual(res.ByK, snap.Result.ByK):
		return errors.New("final snapshot's frequent itemsets differ from the batch replay")
	case !reflect.DeepEqual(rs, snap.Rules):
		return errors.New("final snapshot's rules differ from the batch replay")
	}
	return nil
}

// runtimeGC is the Go runtime's cumulative GC pause and cycle count.
type runtimeGC struct {
	pause  time.Duration
	cycles uint32
}

func (g *runtimeGC) read() {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	g.pause, g.cycles = time.Duration(m.PauseTotalNs), m.NumGC
}
