package main

import (
	"context"
	"fmt"
	"io"
	"time"

	armine "repro"
)

// traceMetrics fills the traced run's per-layer metrics. Layer times come
// from the spans the benchmark recorded around calls into each layer;
// figures no public entry point exposes are the stats the public API
// returns (engine.Stats, ccpd PerIter, vbit.Stats, Snapshot.Wall), which
// the README marks as reported by the program. It also
// runs the probes only the traced run pays for: both engines on the batch
// input (the planner's regret) and the batch engine at one worker.
func traceMetrics(ctx context.Context, tr *tracer, res *result, wl workload, env *setupEnv,
	runs, untraced []batchRun, sr *serveResult, ref string, procs int, fail func(string, error), out io.Writer) error {
	put := func(name, unit string, v float64) { res.Metrics[name] = metric{v, unit} }
	durs := func(name string, parent map[int64]bool) []float64 {
		var xs []float64
		for _, s := range tr.snapshot() {
			if s.Name == name && (parent == nil || parent[s.Parent]) {
				xs = append(xs, sec(s.dur()))
			}
		}
		return xs
	}
	roots := map[int64]bool{}
	for _, r := range runs {
		roots[r.Root] = true
	}

	// Planner probe: what -algo auto would pick on the batch input, against
	// both engines' measured walls at P = procs.
	probe := tr.start("planner.probe", 0, 0, 2)
	sp := tr.start("planner.characterize", probe.id(), 0, 2)
	info := armine.CharacterizePlanner(env.d)
	sp.end()
	sp = tr.start("planner.plan", probe.id(), 0, 2)
	plan := armine.Planner{Procs: procs}.Plan(info)
	sp.end()
	walls := map[string]time.Duration{}
	for _, name := range []string{"ccpd", "vbit"} {
		w, dg, err := mineOnce(ctx, tr, name, "planner.measure."+name, env.d, wl, procs, probe.id())
		if err != nil {
			return err
		}
		walls[name] = w
		res.Attempted++
		if dg != ref {
			res.Failed++
			fail("planner probe "+name, fmt.Errorf("digest %s, reference %s", dg, ref))
		}
	}
	p1, dg, err := mineOnce(ctx, tr, runs[0].Engine, "engine.p1", env.d, wl, 1, probe.id())
	if err != nil {
		return err
	}
	res.Attempted++
	if dg != ref {
		res.Failed++
		fail("P=1 probe", fmt.Errorf("digest %s, reference %s", dg, ref))
	}
	// The decision, its recorded estimates and both measured walls go into
	// the trace file too.
	probe.s.Args = map[string]any{"engine": plan.Engine, "reason": plan.Reason, "estimates": plan.Estimates,
		"ccpd_wall_s": sec(walls["ccpd"]), "vbit_wall_s": sec(walls["vbit"])}
	probe.end()
	fmt.Fprintf(out, "planner: picks %s on the batch input (%s); measured ccpd %v, vbit %v\n",
		plan.Engine, plan.Reason, walls["ccpd"].Round(time.Millisecond), walls["vbit"].Round(time.Millisecond))
	for _, e := range plan.Estimates {
		fmt.Fprintf(out, "  estimate %-4s cost=%d arena=%d feasible=%v measured=%v\n",
			e.Engine, e.Cost, e.ArenaBytes, e.Feasible, walls[e.Engine].Round(time.Millisecond))
		put("planner."+e.Engine+"_cost", "work", float64(e.Cost))
	}
	put("planner.characterize_ms", "ms", 1000*median(durs("planner.characterize", nil)))
	put("planner.regret", "ratio", sec(walls[plan.Engine])/sec(min(walls["ccpd"], walls["vbit"])))
	put("planner.ccpd_wall_s", "s", sec(walls["ccpd"]))
	put("planner.vbit_wall_s", "s", sec(walls["vbit"]))

	// Batch layers, medians over the traced passes.
	mine := median(durs("engine.dispatch", roots))
	put("db.read_s", "s", median(durs("db.read", roots)))
	put("engine.mine_s", "s", mine)
	put("engine.speedup_p2", "ratio", sec(p1)/mine)
	put("rules.gen_s", "s", median(durs("rules.generate", roots)))
	put("rules.count", "count", float64(runs[0].Rules))
	var count, alloc, cand, build, cnt, reduce, idle, useful, dfs, work []float64
	for _, r := range runs {
		st := r.Stats
		count = append(count, sec(st.Count))
		alloc = append(alloc, float64(r.Alloc)/(1<<20))
		if c := st.CCPD; c != nil {
			var g, b, n, rd, id time.Duration
			var cands, freq int
			for _, it := range c.PerIter {
				g, b, n, rd, id = g+it.CandGen, b+it.TreeBuild, n+it.Count, rd+it.Reduce, id+it.CountIdle
				cands, freq = cands+it.Candidates, freq+it.Frequent
			}
			cand, build, cnt, reduce, idle = append(cand, sec(g)), append(build, sec(b)), append(cnt, sec(n)), append(reduce, sec(rd)), append(idle, sec(id))
			useful = append(useful, float64(freq)/float64(max(1, cands)))
			put("ccpd.candidates", "count", float64(cands))
		}
		if v := st.VBit; v != nil {
			dfs = append(dfs, sec(v.Count))
			work = append(work, float64(v.TotalWork()))
			put("vbit.bitmap_items", "count", float64(v.DenseItems))
			put("vbit.tidlist_items", "count", float64(v.SparseItems))
		}
	}
	put("engine.count_s", "s", median(count))
	put("engine.alloc_mb", "MiB", median(alloc))
	for name, xs := range map[string][]float64{
		"ccpd.candgen_s": cand, "ccpd.build_s": build, "ccpd.count_s": cnt,
		"ccpd.reduce_s": reduce, "ccpd.count_idle_s": idle, "vbit.dfs_s": dfs,
	} {
		put(name, "s", zeroIfNone(xs))
	}
	put("ccpd.useful_ratio", "ratio", zeroIfNone(useful))
	put("vbit.total_work", "work", zeroIfNone(work))
	for _, n := range []string{"ccpd.candidates", "vbit.bitmap_items", "vbit.tidlist_items"} {
		if _, ok := res.Metrics[n]; !ok {
			put(n, "count", 0) // the layer is bypassed on this workload
		}
	}

	// Trace bookkeeping: overhead against the untraced passes, and how much
	// of each batch wall no layer span accounts for.
	self := selfTimes(tr.snapshot())
	var tw, uw, unacc []float64
	for _, r := range runs {
		tw = append(tw, sec(r.Wall))
		unacc = append(unacc, sec(self[r.Root])/sec(r.Wall))
	}
	for _, r := range untraced {
		uw = append(uw, sec(r.Wall))
	}
	put("trace.overhead_frac", "ratio", median(tw)/median(uw)-1)
	put("trace.unaccounted_frac", "ratio", median(unacc))

	// Serving layers.
	var ingH, rulesH, wait, remine, interval []float64
	for j := range sr.ingests {
		if d, ok := env.daemon.mw.handlerTime(1<<20 + int64(j)); ok {
			ingH = append(ingH, ms(d))
		}
	}
	for i, q := range sr.queries {
		if d, ok := env.daemon.mw.handlerTime(int64(i) + 1); ok && q.err == nil {
			rulesH = append(rulesH, ms(d))
			wait = append(wait, ms(q.lat-d))
		}
	}
	for i, p := range sr.pubs {
		remine = append(remine, sec(p.wall))
		if i > 0 {
			interval = append(interval, sec(p.at-sr.pubs[i-1].at))
		}
	}
	lag := make([]float64, len(sr.lagTx))
	for i, l := range sr.lagTx {
		lag[i] = float64(l)
	}
	late := make([]float64, len(sr.late))
	for i, l := range sr.late {
		late[i] = ms(l)
	}
	lateP99, err := percentile(late, 0.99)
	if err != nil {
		return err
	}
	put("serve.ingest_handler_ms", "ms", median(ingH))
	put("serve.rules_handler_ms", "ms", median(rulesH))
	put("serve.http_wait_ms", "ms", median(wait))
	put("serve.remine_s", "s", median(remine))
	put("serve.publish_interval_s", "s", zeroIfNone(interval))
	put("serve.lag_tx", "count", median(lag))
	put("serve.publishes", "count", float64(len(sr.pubs)))
	put("go.gc_pause_ms", "ms", ms(sr.gcPause))
	put("go.gc_cycles", "count", float64(sr.gcCycles))
	put("loadgen.late_p99_ms", "ms", lateP99)
	return servePercentiles(sr, func(name, unit string, v float64, gated bool) {
		if !gated {
			put("tail."+name, unit, v)
		}
	})
}

// zeroIfNone is the median, or 0 for a layer the workload bypasses.
func zeroIfNone(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return median(xs)
}
