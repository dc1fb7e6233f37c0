// Command perfbench is the repository's benchmark. Each workload is one
// input shape run through both production paths from a single process: a
// batch run from an .ardb file to its rule list (what cmd/apriori does),
// and armined in-process on loopback under an open-loop ingest and query
// load. It prints every end-to-end metric with its unit, checks every
// output against a second exact engine, and ends with one JSON line.
//
//	perfbench -workload sparse -seed 1 -seconds 36 -trace 0
//
// With -trace 1 it records spans around each call into a layer, writes
// them as a Perfetto-loadable JSON file under -out, and reports the
// per-layer metrics instead. See README.md for the metric definitions.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"time"

	armine "repro"
)

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	out      string
	rev      string
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "workload name: sparse | dense")
	fs.Int64Var(&o.seed, "seed", 1, "seed for the drawn inputs and the query mix")
	fs.IntVar(&o.seconds, "seconds", 36, "measured seconds (half serving, half batch)")
	traceN := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	fs.StringVar(&o.out, "out", ".bench_build/perfbench-out", "directory for inputs and trace files")
	fs.StringVar(&o.rev, "rev", "unknown", "git revision of the measured tree, for the provenance line")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[o.workload]
	// 20 s is the shortest run whose serving half gives every gated
	// percentile its ten samples beyond.
	if !ok || o.seconds < 20 || (*traceN != 0 && *traceN != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload sparse|dense, -seconds >= 20, -trace 0|1\n")
		return 2
	}
	o.trace = *traceN == 1

	res, err := bench(context.Background(), o, wl, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		fmt.Fprintln(stderr, "perfbench: output mismatch (see above)")
		return 1
	}
	return 0
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// maxLateP99 is the open-loop validity limit on generator lateness: a serve
// run past it is reported invalid, not measured.
const maxLateP99 = 50 * time.Millisecond

func bench(ctx context.Context, o options, wl workload, stdout io.Writer) (*result, error) {
	procs := runtime.NumCPU()
	tr := newTracer(o.trace)
	prov := provenance(o, wl, procs)
	if b, err := json.Marshal(prov); err == nil {
		fmt.Fprintf(stdout, "provenance %s\n", b)
	}
	dir := filepath.Join(o.out, fmt.Sprintf("%s-seed%d-pid%d", wl.Name, o.seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "input.ardb")

	// Set-up, three times: generate and shuffle the inputs, write the batch
	// file, bring armined up with the preload and wait for its first
	// publish. setup_s is the median; the last set-up is the one measured.
	var env *setupEnv
	var setups []float64
	for i := 0; i < 3; i++ {
		if env != nil {
			env.daemon.close()
		}
		t0 := time.Now()
		var err error
		if env, err = setup(tr, wl, o.seed, path, procs); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, sec(time.Since(t0)))
	}
	defer env.daemon.close()
	res := &result{Correct: true, Metrics: map[string]metric{}}
	fail := func(what string, err error) {
		fmt.Fprintf(stdout, "MISMATCH %s: %v\n", what, err)
		res.Correct = false
	}

	// Batch passes run in two windows, one before and one after the serving
	// half, so batch_s samples the host across the whole run rather than
	// one stretch of it. The reference digest comes from a second exact
	// engine, outside the timed region; every timed pass must match it.
	_, ref, err := mineOnce(ctx, tr, wl.RefEngine, "reference", env.d, wl, procs, 0)
	if err != nil {
		return nil, err
	}
	off := newTracer(false)
	var runs, untraced []batchRun
	batch := func(window time.Duration) error {
		for deadline := time.Now().Add(window); len(runs) == 0 || time.Now().Before(deadline); {
			// The traced run alternates traced and untraced passes; their
			// ratio is the tracing overhead.
			t := tr
			if o.trace && (len(runs)+len(untraced))%2 == 1 {
				t = off
			}
			br, err := batchOnce(ctx, t, wl, path, procs, int64(len(runs)+len(untraced)+1))
			if err != nil {
				return err
			}
			res.Attempted++
			if br.Digest != ref {
				res.Failed++
				fail("batch", fmt.Errorf("%s digest %s, %s reference %s", br.Engine, br.Digest, wl.RefEngine, ref))
			}
			if t == off {
				untraced = append(untraced, br)
			} else {
				runs = append(runs, br)
			}
		}
		return nil
	}

	serveFor := time.Duration(o.seconds) * time.Second / 2
	batchFor := time.Duration(o.seconds)*time.Second - serveFor
	if err := batch(batchFor / 2); err != nil {
		return nil, err
	}
	preload, stream := env.rows[:wl.Preload], env.rows[wl.Preload:]
	items := zipfItems(preload, int(serveFor.Seconds()*queryRate), o.seed)
	sr, err := runServe(tr, env.daemon, preload, stream, items, serveFor, procs)
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	for _, oc := range append(slices.Clone(sr.queries), sr.ingests...) {
		res.Attempted++
		if oc.err != nil {
			res.Failed++
		}
	}
	res.Attempted++
	if err := checkFinal(ctx, env.daemon, sr, wl, procs); err != nil {
		res.Failed++
		fail("serve final snapshot", err)
	}
	env.daemon.close()
	fmt.Fprintf(stdout, "serve: engine=%s publishes=%d final dbLen=%d generation=%d\n",
		sr.final.Engine, len(sr.pubs), sr.final.DBLen, sr.final.Generation)
	summarize(stdout, "query ms", latencies(sr.queries))
	summarize(stdout, "ingest ms", latencies(sr.ingests))
	summarize(stdout, "publish lag s", seconds(sr.ingestLag))
	if err := validServe(sr); err != nil {
		return nil, fmt.Errorf("invalid serve run, not reported: %w", err)
	}

	if err := batch(batchFor - batchFor/2); err != nil {
		return nil, err
	}
	fmt.Fprintf(stdout, "batch: engine=%s rules=%d digest=%s (%s reference agrees: %v)\n",
		runs[0].Engine, runs[0].Rules, runs[0].Digest, wl.RefEngine, runs[0].Digest == ref)
	walls := make([]float64, len(runs))
	for i, r := range runs {
		walls[i] = sec(r.Wall)
	}
	summarize(stdout, "batch wall s", walls)

	if o.trace {
		if err := traceMetrics(ctx, tr, res, wl, env, runs, untraced, sr, ref, procs, fail, stdout); err != nil {
			return nil, err
		}
		file := filepath.Join(o.out, fmt.Sprintf("trace-%s-seed%d.json", wl.Name, o.seed))
		if err := writePerfetto(file, tr.snapshot(), prov); err != nil {
			return nil, err
		}
		fmt.Fprintf(stdout, "trace written to %s\n", file)
	} else if err := endToEnd(res, setups, walls, sr, stdout); err != nil {
		return nil, err
	}
	if res.Attempted > 0 {
		fmt.Fprintf(stdout, "metric error_frac %g ratio (%d failed of %d attempted)\n",
			float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted)
	}
	names := make([]string, 0, len(res.Metrics))
	for n, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("metric %s is not a finite number", n)
		}
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(stdout, "metric %s %g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	return res, nil
}

// setupEnv is what one set-up leaves for the measured phases.
type setupEnv struct {
	rows   []armine.Itemset // drawn rows: preload, then the ingest stream
	d      *armine.Database // the batch input, in memory
	daemon *daemon
}

func setup(tr *tracer, wl workload, seed int64, path string, procs int) (*setupEnv, error) {
	pop, err := armine.Generate(wl.Pop)
	if err != nil {
		return nil, err
	}
	rows, err := draw(pop, seed)
	if err != nil {
		return nil, err
	}
	d := toDatabase(rows)
	if err := d.WriteFile(path); err != nil {
		return nil, err
	}
	dm, err := startDaemon(tr, wl, rows[:wl.Preload], procs)
	if err != nil {
		return nil, err
	}
	return &setupEnv{rows: rows, d: d, daemon: dm}, nil
}

// validServe rejects a serve run whose open loop did not hold: the
// connections were saturated, the generator ran late, or acknowledged
// transactions piled up beyond what two re-mine cycles explain (a backlog
// rather than re-mine latency).
func validServe(sr *serveResult) error {
	if calls := len(sr.queries) + len(sr.ingests); len(sr.late) < calls*9/10 {
		return fmt.Errorf("saturated: only %d of %d calls found their connection idle when due", len(sr.late), calls)
	}
	late := make([]float64, len(sr.late))
	for i, l := range sr.late {
		late[i] = ms(l)
	}
	p99, err := percentile(late, 0.99)
	if err != nil {
		return err
	}
	if p99 > ms(maxLateP99) {
		return fmt.Errorf("generator late by %.1f ms at p99 (limit %v)", p99, maxLateP99)
	}
	var maxWall time.Duration
	for _, p := range sr.pubs {
		maxWall = max(maxWall, p.wall)
	}
	bound := 1.25 * ingestRate * ingestBatch * sec(2*maxWall+sr.debounce)
	third := len(sr.lagTx) * 2 / 3
	for i, lag := range sr.lagTx[third:] {
		if float64(lag) > bound {
			return fmt.Errorf("backlog: %d transactions unpublished at %v (bound %.0f)",
				lag, sr.lagTxAt[third+i].Round(time.Millisecond), bound)
		}
	}
	return nil
}

// endToEnd fills the untraced run's metrics from the set-up times, the
// batch passes' walls (s) and the serving phase.
func endToEnd(res *result, setups, walls []float64, sr *serveResult, out io.Writer) error {
	put := func(name, unit string, v float64) { res.Metrics[name] = metric{v, unit} }
	put("setup_s", "s", median(setups))
	put("batch_s", "s", median(walls))
	rss, err := peakRSSMiB()
	if err != nil {
		return err
	}
	put("peak_rss_mb", "MiB", rss)
	return servePercentiles(sr, func(name, unit string, v float64, gated bool) {
		if gated {
			put(name, unit, v)
		} else {
			fmt.Fprintf(out, "metric %s %g %s (not gated)\n", name, v, unit)
		}
	})
}

// servePercentiles reports the serving latencies: medians and tails. The
// publish-lag tail is gated like the medians. The request tails (p99 of
// queries, p95 of ingests) are reported as tails only: on a 2-vCPU host
// their spread between identical runs exceeds the largest bound a gated
// metric may carry.
func servePercentiles(sr *serveResult, report func(name, unit string, v float64, gated bool)) error {
	for _, p := range []struct {
		name, unit string
		xs         []float64
		q          float64
		gated      bool
	}{
		{"query_p50_ms", "ms", latencies(sr.queries), 0.5, true},
		{"query_p99_ms", "ms", latencies(sr.queries), 0.99, false},
		{"ingest_p50_ms", "ms", latencies(sr.ingests), 0.5, true},
		{"ingest_p95_ms", "ms", latencies(sr.ingests), 0.95, false},
		{"publish_lag_p50_s", "s", seconds(sr.ingestLag), 0.5, true},
		{"publish_lag_p95_s", "s", seconds(sr.ingestLag), 0.95, true},
	} {
		v, err := percentile(p.xs, p.q)
		if err != nil {
			return fmt.Errorf("%s: %w", p.name, err)
		}
		report(p.name, p.unit, v, p.gated)
	}
	return nil
}

// latencies are the calls' latencies in ms; a failed call counts as
// infinitely late, so it misses every latency limit.
func latencies(os []outcome) []float64 {
	out := make([]float64, len(os))
	for i, o := range os {
		out[i] = ms(o.lat)
		if o.err != nil {
			out[i] = math.Inf(1)
		}
	}
	return out
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = sec(d)
	}
	return out
}

// summarize prints a sample's count and nearest-rank quantiles for the
// human reader, whether or not each has ten samples beyond it.
func summarize(w io.Writer, what string, xs []float64) {
	if len(xs) == 0 {
		return
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	at := func(q float64) float64 { return s[rank(len(s), q)] }
	fmt.Fprintf(w, "  %-14s n=%-5d min=%.4g p50=%.4g p90=%.4g p95=%.4g p99=%.4g max=%.4g\n",
		what, len(s), s[0], median(s), at(0.9), at(0.95), at(0.99), s[len(s)-1])
}

// provenance identifies the host, toolchain, revision and inputs of a run.
func provenance(o options, wl workload, procs int) map[string]any {
	return map[string]any{
		"num_cpu": procs, "gomaxprocs": runtime.GOMAXPROCS(0), "go_version": runtime.Version(),
		"git_revision": o.rev, "seed": o.seed, "workload": wl.Name, "seconds": o.seconds, "trace": o.trace,
		"params": map[string]any{
			"population": wl.Pop, "support": wl.Support, "confidence": wl.Conf,
			"batch_engine": wl.BatchEngine, "reference_engine": wl.RefEngine, "batch_procs": procs,
			"serve_engine": "auto", "serve_procs": max(1, procs-1), "preload": wl.Preload,
			"ingest_rate": ingestRate, "ingest_batch": ingestBatch, "query_rate": queryRate,
			"query_limit": queryLimit, "zipf_s": zipfS, "connections": max(2, procs),
		},
	}
}
