// Command benchjson runs the counting-kernel microbenchmarks through
// testing.Benchmark and writes a machine-readable snapshot (BENCH_counting.json
// by default) with ns/op and allocs/op per configuration. CI runs it on every
// push so kernel-performance and allocation regressions show up as an
// artifact diff rather than a buried log line.
//
// With -scaling it instead runs the full miner across processor counts and
// counting-partition modes (static block/workload vs work stealing) on a
// uniform and a skew-planted database and writes BENCH_scaling.json,
// including a deterministic verdict: stealing must cut the modelled idle work
// on the skewed database and stay within 5% modelled time on the uniform one.
//
// Both reports are stamped with the Go version, architecture, CPU count,
// GOMAXPROCS and the git revision the binary was built from. go run does not
// record the revision, so write committed snapshots from a built binary.
//
// Besides the hash-tree counter-mode sweep, the default run times the
// hash-tree kernel on a dense and a sparse dataset:
// EngineKernel/{dense,sparse}/hashtree count a k-candidate list against the
// whole database.
//
// With -planner it additionally records planner-decision rows: the
// cost-based engine.Planner's choice (with its full cost estimates) on the
// dense and sparse reference workloads next to both production engines'
// measured full-run walls, and a verdict (nonzero exit on failure) that the
// planner picked the measured-faster engine on each and that vbit's wall
// is below ccpd's on the dense one — the claim the vertical engine exists
// to deliver, measured on the code that ships.
//
// With -against FILE the fresh kernel measurements are compared to a
// committed snapshot and the process exits nonzero on a >10% ns/op or
// allocs/op regression.
//
// Usage:
//
//	benchjson [-o BENCH_counting.json] [-d 2000] [-planner]
//	benchjson -against BENCH_counting.json
//	benchjson -scaling [-o BENCH_scaling.json]
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"testing"
	"time"

	"repro/internal/apriori"
	"repro/internal/ccpd"
	"repro/internal/db"
	"repro/internal/db/seg"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/hashtree"
	"repro/internal/itemset"
)

// result is one benchmark configuration's measurement.
type result struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	Iterations  int     `json:"iterations"`
}

// oocRow is one out-of-core pipeline measurement: the full segmented miner
// on the same store, with a synthetic per-segment load delay, under the sync
// (single-buffer) and the double-buffered prefetch pipeline.
type oocRow struct {
	Mode          string  `json:"mode"` // sync | overlapped
	WallNs        int64   `json:"wall_ns"`
	LoadNs        int64   `json:"load_ns"`
	StallNs       int64   `json:"stall_ns"`
	CountNs       int64   `json:"count_ns"`
	StallFraction float64 `json:"stall_fraction"`
	Segments      int     `json:"segments"`
	Passes        int     `json:"passes"`
}

// oocVerdict gates the prefetch-overlap claim: with I/O latency comparable
// to counting time, the double-buffered pipeline must finish faster than the
// sync one and spend a smaller fraction of its time stalled on loads.
type oocVerdict struct {
	SyncWallNs       int64   `json:"sync_wall_ns"`
	OverlapWallNs    int64   `json:"overlap_wall_ns"`
	SyncStallFrac    float64 `json:"sync_stall_fraction"`
	OverlapStallFrac float64 `json:"overlap_stall_fraction"`
	Pass             bool    `json:"pass"`
}

// oocSection is the out-of-core portion of the counting report (-outofcore).
type oocSection struct {
	Segments    int        `json:"segments"`
	LoadDelayNs int64      `json:"load_delay_ns"`
	Rows        []oocRow   `json:"rows"`
	Verdict     oocVerdict `json:"verdict"`
}

// plannerEstimate mirrors one engine.Estimate: the planner's modelled cost
// for one engine on one workload, recorded so a decision row is auditable.
type plannerEstimate struct {
	Engine     string `json:"engine"`
	Cost       int64  `json:"cost"`
	ArenaBytes int64  `json:"arena_bytes"`
	Feasible   bool   `json:"feasible"`
	Note       string `json:"note"`
}

// plannerRow is one planner-decision measurement: the cost-based plan for a
// reference workload next to the measured full-run wall (best of three,
// through the Miner interface) of both candidate engines.
type plannerRow struct {
	Workload       string            `json:"workload"`
	Density        float64           `json:"density"`
	PlannedEngine  string            `json:"planned_engine"`
	PlannedDBPart  string            `json:"planned_dbpart"`
	Reason         string            `json:"reason"`
	Estimates      []plannerEstimate `json:"estimates"`
	CcpdWallNs     int64             `json:"ccpd_wall_ns"`
	VbitWallNs     int64             `json:"vbit_wall_ns"`
	MeasuredWinner string            `json:"measured_winner"`
	Agree          bool              `json:"agree"`
}

// plannerVerdict gates the planner against reality: on the dense and the
// sparse reference workload the engine the planner chose must be the engine
// that actually measured faster end to end, and on the dense one that
// engine must be vbit.
type plannerVerdict struct {
	DensePlanned    string `json:"dense_planned"`
	DenseMeasured   string `json:"dense_measured"`
	SparsePlanned   string `json:"sparse_planned"`
	SparseMeasured  string `json:"sparse_measured"`
	DenseVBitFaster bool   `json:"dense_vbit_faster"`
	Pass            bool   `json:"pass"`
}

// plannerSection is the planner portion of the counting report (-planner).
type plannerSection struct {
	Rows    []plannerRow   `json:"rows"`
	Verdict plannerVerdict `json:"verdict"`
}

// host stamps a report with the toolchain, machine and source revision it
// was measured on.
type host struct {
	GoVersion  string `json:"go_version"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// Revision is the git commit the binary was built from, suffixed
	// "-dirty" for a modified tree; "unknown" under go run.
	Revision string `json:"revision"`
}

func thisHost() host {
	h := host{
		GoVersion: runtime.Version(), GOARCH: runtime.GOARCH,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Revision: "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, modified string
		for _, st := range bi.Settings {
			switch st.Key {
			case "vcs.revision":
				rev = st.Value
			case "vcs.modified":
				modified = st.Value
			}
		}
		if rev != "" {
			h.Revision = rev
			if modified == "true" {
				h.Revision += "-dirty"
			}
		}
	}
	return h
}

type report struct {
	host
	// TxPerOp is how many transactions one benchmark op counts; ns_per_op /
	// tx_per_op gives per-transaction cost.
	TxPerOp int      `json:"tx_per_op"`
	K       int      `json:"k"`
	Results []result `json:"results"`
	// OutOfCore is present when -outofcore ran the prefetch-overlap rows.
	OutOfCore *oocSection `json:"out_of_core,omitempty"`
	// Planner is present when -planner ran the decision rows.
	Planner *plannerSection `json:"planner,omitempty"`
}

// kCandidates mines the (k-1)-frequent sets and joins them into the
// k-candidate list the hash-tree kernel rows count.
func kCandidates(d *db.Database, k int) ([]itemset.Itemset, error) {
	res, err := apriori.Mine(d, apriori.Options{AbsSupport: 5, MaxK: k})
	if err != nil {
		return nil, err
	}
	if k >= len(res.ByK) {
		return nil, fmt.Errorf("no frequent %d-itemsets", k-1)
	}
	var prev []itemset.Itemset
	for _, f := range res.ByK[k-1] {
		prev = append(prev, f.Items)
	}
	cands, _, _ := apriori.GenerateCandidates(prev, false)
	if len(cands) == 0 {
		return nil, fmt.Errorf("no %d-candidates", k)
	}
	return cands, nil
}

func buildTree(d *db.Database, k int, cands []itemset.Itemset) (*hashtree.Tree, error) {
	return hashtree.Build(hashtree.Config{
		K: k, Threshold: 8, Hash: hashtree.HashBitonic, NumItems: d.NumItems(),
	}, cands)
}

// bestOf3 runs fn through testing.Benchmark three times and keeps the
// fastest repetition: the minimum is far less noisy than one sample on a
// shared host, which is what makes the -against regression gate usable in
// CI.
func bestOf3(name string, fn func(b *testing.B)) result {
	var best result
	for try := 0; try < 3; try++ {
		br := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			fn(b)
		})
		r := result{
			Name:        name,
			NsPerOp:     float64(br.T.Nanoseconds()) / float64(br.N),
			AllocsPerOp: br.AllocsPerOp(),
			BytesPerOp:  br.AllocedBytesPerOp(),
			Iterations:  br.N,
		}
		if try == 0 || r.NsPerOp < best.NsPerOp {
			best = r
		}
	}
	return best
}

func main() {
	out := flag.String("o", "BENCH_counting.json", "output file")
	dsize := flag.Int("d", 2000, "transactions in the benchmark database")
	scaling := flag.Bool("scaling", false, "run the procs-scaling scheduler benchmark instead of the counting kernel")
	against := flag.String("against", "", "committed kernel snapshot to gate against (>10% regression fails)")
	outofcore := flag.Bool("outofcore", false, "also run the out-of-core prefetch-overlap rows (sync vs double-buffered segmented mining)")
	nsTol := flag.Float64("nstol", 10, "ns/op regression tolerance percent for -against, after host-scale normalization (0 disables the timing gate; allocs are always gated at 10%)")
	planner := flag.Bool("planner", false, "also run the planner-decision rows (cost-based plan vs measured full-run walls on the reference workloads)")
	flag.Parse()

	if *scaling {
		if *out == "BENCH_counting.json" {
			*out = "BENCH_scaling.json"
		}
		if err := runScaling(*out, *dsize); err != nil {
			fatal(err)
		}
		return
	}

	d, err := gen.Generate(gen.Params{T: 10, I: 4, D: *dsize, Seed: 1})
	if err != nil {
		fatal(err)
	}
	const k = 3

	rep := report{host: thisHost(), TxPerOp: d.Len(), K: k}
	cands, err := kCandidates(d, k)
	if err != nil {
		fatal(err)
	}
	tree, err := buildTree(d, k, cands)
	if err != nil {
		fatal(err)
	}
	for _, mode := range []hashtree.CounterMode{
		hashtree.CounterLocked, hashtree.CounterAtomic, hashtree.CounterPrivate,
	} {
		name := "CountKernel/" + mode.String()
		counters := hashtree.NewCounters(mode, tree.NumCandidates(), 1)
		ctx := tree.NewCountCtx(counters, hashtree.CountOpts{ShortCircuit: true})
		best := bestOf3(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for t := 0; t < d.Len(); t++ {
					ctx.CountTransaction(d.Items(t))
				}
			}
		})
		rep.Results = append(rep.Results, best)
		fmt.Printf("%-32s %12.0f ns/op %6d allocs/op\n",
			name, best.NsPerOp, best.AllocsPerOp)
	}

	if err := runEngineRows(&rep, *dsize, k); err != nil {
		fatal(err)
	}
	if *outofcore {
		if err := runOutOfCore(&rep, *dsize); err != nil {
			fatal(err)
		}
	}
	if *planner {
		if err := runPlannerRows(&rep, *dsize); err != nil {
			fatal(err)
		}
	}

	if err := writeJSON(*out, rep); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s\n", *out)

	if *against != "" {
		if err := gateAgainst(rep, *against, *nsTol); err != nil {
			fatal(err)
		}
		fmt.Printf("no kernel regression vs %s\n", *against)
	}
	if v := rep.OutOfCore; v != nil && !v.Verdict.Pass {
		fatal(fmt.Errorf("out-of-core verdict failed: overlapped %.1fms (stall %.0f%%) vs sync %.1fms (stall %.0f%%) — double-buffering must win",
			float64(v.Verdict.OverlapWallNs)/1e6, 100*v.Verdict.OverlapStallFrac,
			float64(v.Verdict.SyncWallNs)/1e6, 100*v.Verdict.SyncStallFrac))
	}
	if p := rep.Planner; p != nil && !p.Verdict.Pass {
		dense := p.Rows[0]
		fatal(fmt.Errorf("planner verdict failed: dense planned %s/measured %s (ccpd %.1fms, vbit %.1fms), sparse planned %s/measured %s — the planner must pick the measured-faster engine, and vbit must win on the dense workload",
			p.Verdict.DensePlanned, p.Verdict.DenseMeasured,
			float64(dense.CcpdWallNs)/1e6, float64(dense.VbitWallNs)/1e6,
			p.Verdict.SparsePlanned, p.Verdict.SparseMeasured))
	}
}

// runPlannerRows runs the cost-based planner on the same dense and sparse
// reference workloads the engine-kernel rows use, then measures both
// candidate engines end to end (full mining run, best of three, dispatched
// through the unified Miner interface) and records whether the planner's
// choice was the measured-faster engine. Both reference densities sit on the
// vbit side of the crossover, so a planner that drifts into picking the
// horizontal engine there — a mis-tuned crossover, a broken feasibility
// check — fails the verdict, and so does a vbit that stops beating ccpd on
// the dense workload.
func runPlannerRows(rep *report, dsize int) error {
	workloads := []struct {
		label string
		p     gen.Params
	}{
		// Same shapes as runEngineRows: density 0.2 and 0.01.
		{"dense", gen.Params{N: 60, L: 30, T: 12, I: 4, D: dsize, Seed: 1}},
		{"sparse", gen.Params{T: 10, I: 4, D: dsize, Seed: 1}},
	}
	sec := &plannerSection{}
	for _, wl := range workloads {
		d, err := gen.Generate(wl.p)
		if err != nil {
			return err
		}
		info := engine.Characterize(d)
		plan := engine.Planner{Procs: 4}.Plan(info)
		row := plannerRow{
			Workload: wl.label, Density: info.Density,
			PlannedEngine: plan.Engine, PlannedDBPart: plan.DBPart.String(),
			Reason: plan.Reason,
		}
		for _, e := range plan.Estimates {
			row.Estimates = append(row.Estimates, plannerEstimate{
				Engine: e.Engine, Cost: e.Cost, ArenaBytes: e.ArenaBytes,
				Feasible: e.Feasible, Note: e.Note,
			})
		}

		// MaxK bounds the dense run: the comparison needs both engines on
		// identical work, not an exhaustive lattice walk.
		spec := engine.Spec{
			Mining: apriori.Options{AbsSupport: 10, ShortCircuit: true, MaxK: 3},
			Procs:  4,
		}
		walls := map[string]int64{}
		for try := 0; try < 3; try++ {
			for _, name := range []string{"ccpd", "vbit"} {
				m, ok := engine.Lookup(name)
				if !ok {
					return fmt.Errorf("engine %q not registered", name)
				}
				t0 := time.Now()
				if _, _, err := m.MineCtx(context.Background(), d, spec); err != nil {
					return fmt.Errorf("%s on %s: %w", name, wl.label, err)
				}
				if w := time.Since(t0).Nanoseconds(); try == 0 || w < walls[name] {
					walls[name] = w
				}
			}
		}
		row.CcpdWallNs, row.VbitWallNs = walls["ccpd"], walls["vbit"]
		row.MeasuredWinner = "ccpd"
		if row.VbitWallNs < row.CcpdWallNs {
			row.MeasuredWinner = "vbit"
		}
		row.Agree = row.PlannedEngine == row.MeasuredWinner
		sec.Rows = append(sec.Rows, row)
		fmt.Printf("Planner/%-8s density %.4f planned %-5s measured %-5s (ccpd %.1fms, vbit %.1fms)\n",
			wl.label, row.Density, row.PlannedEngine, row.MeasuredWinner,
			float64(row.CcpdWallNs)/1e6, float64(row.VbitWallNs)/1e6)
	}
	v := &sec.Verdict
	v.DensePlanned, v.DenseMeasured = sec.Rows[0].PlannedEngine, sec.Rows[0].MeasuredWinner
	v.SparsePlanned, v.SparseMeasured = sec.Rows[1].PlannedEngine, sec.Rows[1].MeasuredWinner
	v.DenseVBitFaster = sec.Rows[0].VbitWallNs < sec.Rows[0].CcpdWallNs
	v.Pass = sec.Rows[0].Agree && sec.Rows[1].Agree && v.DenseVBitFaster
	rep.Planner = sec
	status := "pass"
	if !v.Pass {
		status = "FAIL"
	}
	fmt.Printf("planner verdict: %s (dense vbit faster: %v)\n", status, v.DenseVBitFaster)
	return nil
}

// runOutOfCore measures the segmented miner under the sync and the
// double-buffered pipeline on the same store. The synthetic per-segment load
// delay is calibrated to the measured counting time per segment visit, so
// I/O and compute are comparable — the regime where prefetch overlap pays;
// with free loads both modes degenerate to pure counting, and with dominant
// loads both degenerate to pure I/O.
func runOutOfCore(rep *report, dsize int) error {
	dir, err := os.MkdirTemp("", "benchooc")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	// 4× the kernel-row database split into 4 segments: per-segment counting
	// must dwarf timer/scheduler wake latency (~1ms on a loaded single-core
	// host) or the overlap win drowns in it.
	dooc := 4 * dsize
	d, err := gen.Generate(gen.Params{T: 10, I: 4, D: dooc, Seed: 1})
	if err != nil {
		return err
	}
	path := dir + "/bench.arseg"
	segTx := (dooc + 3) / 4
	if err := seg.WriteDatabase(path, d, seg.WriterOptions{SegTx: segTx}); err != nil {
		return err
	}
	r, err := seg.Open(path)
	if err != nil {
		return err
	}
	defer r.Close()

	opts := ccpd.Options{
		Options: apriori.Options{
			AbsSupport: 10, ShortCircuit: true, Hash: hashtree.HashBitonic,
		},
		Procs: 4, Counter: hashtree.CounterPrivate,
		Balance: ccpd.BalanceBitonic, DBPart: ccpd.PartitionBlock,
	}
	run := func(budget int64, delay time.Duration) (int64, *seg.PipelineStats, error) {
		var wall int64
		var pipe *seg.PipelineStats
		for try := 0; try < 3; try++ { // min of 3, like the kernel rows
			t0 := time.Now()
			_, st, err := ccpd.MineSegmented(r, ccpd.SegmentedOptions{
				Options: opts, MemBudget: budget, LoadDelay: delay,
			})
			w := time.Since(t0).Nanoseconds()
			if err != nil {
				return 0, nil, err
			}
			if try == 0 || w < wall {
				wall, pipe = w, st.OutOfCore
			}
		}
		return wall, pipe, nil
	}

	// Calibrate: a delay-free sync pass measures pure counting per segment
	// visit; that becomes the injected load latency (clamped to sane bounds).
	_, cal, err := run(1, 0)
	if err != nil {
		return err
	}
	delay := time.Duration(cal.CountNS / int64(cal.Segments))
	if delay < 500*time.Microsecond {
		delay = 500 * time.Microsecond
	}
	if delay > 10*time.Millisecond {
		delay = 10 * time.Millisecond
	}

	sec := &oocSection{Segments: r.NumSegments(), LoadDelayNs: delay.Nanoseconds()}
	for _, m := range []struct {
		mode   string
		budget int64
	}{{"sync", 1}, {"overlapped", 0}} {
		wall, pipe, err := run(m.budget, delay)
		if err != nil {
			return err
		}
		sec.Rows = append(sec.Rows, oocRow{
			Mode: m.mode, WallNs: wall,
			LoadNs: pipe.LoadNS, StallNs: pipe.StallNS, CountNs: pipe.CountNS,
			StallFraction: pipe.StallFraction(),
			Segments:      pipe.Segments, Passes: pipe.Passes,
		})
		fmt.Printf("OutOfCore/%-12s %10.1f ms wall, stall %5.1f%% (%d segment loads, %d passes)\n",
			m.mode, float64(wall)/1e6, 100*pipe.StallFraction(), pipe.Segments, pipe.Passes)
	}
	v := &sec.Verdict
	v.SyncWallNs, v.SyncStallFrac = sec.Rows[0].WallNs, sec.Rows[0].StallFraction
	v.OverlapWallNs, v.OverlapStallFrac = sec.Rows[1].WallNs, sec.Rows[1].StallFraction
	v.Pass = v.OverlapWallNs < v.SyncWallNs && v.OverlapStallFrac < v.SyncStallFrac
	rep.OutOfCore = sec
	status := "pass"
	if !v.Pass {
		status = "FAIL"
	}
	fmt.Printf("out-of-core verdict: %s (load delay %v)\n", status, delay)
	return nil
}

// maxEngineCands caps the candidate list the EngineKernel rows count: the
// dense small-universe dataset joins thousands of frequent pairs, and a
// kernel row needs bounded work per op, not an exhaustive C3.
const maxEngineCands = 4096

// runEngineRows benchmarks the hash-tree kernel counting every k-candidate
// against the whole database, on a dense (small universe) and a sparse
// (paper-default universe) dataset.
func runEngineRows(rep *report, dsize, k int) error {
	specs := []struct {
		label string
		p     gen.Params
	}{
		// T12 over 60 items: density 0.2.
		{"dense", gen.Params{N: 60, L: 30, T: 12, I: 4, D: dsize, Seed: 1}},
		// The paper-default universe: density 0.01.
		{"sparse", gen.Params{T: 10, I: 4, D: dsize, Seed: 1}},
	}
	for _, spec := range specs {
		d, err := gen.Generate(spec.p)
		if err != nil {
			return err
		}
		cands, err := kCandidates(d, k)
		if err != nil {
			return fmt.Errorf("%s dataset: %w", spec.label, err)
		}
		if len(cands) > maxEngineCands {
			cands = cands[:maxEngineCands]
		}
		tree, err := buildTree(d, k, cands)
		if err != nil {
			return err
		}
		counters := hashtree.NewCounters(hashtree.CounterPrivate, tree.NumCandidates(), 1)
		ctx := tree.NewCountCtx(counters, hashtree.CountOpts{ShortCircuit: true})
		name := "EngineKernel/" + spec.label + "/hashtree"
		best := bestOf3(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for t := 0; t < d.Len(); t++ {
					ctx.CountTransaction(d.Items(t))
				}
			}
		})
		rep.Results = append(rep.Results, best)
		fmt.Printf("%-32s %12.0f ns/op %6d allocs/op (%d candidates)\n",
			name, best.NsPerOp, best.AllocsPerOp, len(cands))
	}
	return nil
}

// gateAgainst fails when any kernel configuration regressed more than 10%
// against the committed snapshot. Allocations are compared absolutely (they
// are deterministic and hardware independent). ns/op is compared after
// normalizing by the median new/old ratio across all configurations: the
// median captures the speed difference between the baseline host and this
// one (plus any uniform load), so the gate trips only when one configuration
// slows down relative to the others — which is what a kernel regression
// looks like, and what survives CI-runner hardware churn. Configurations
// that disappeared fail, so a dropped benchmark cannot hide a regression.
// nsTol is the relative ns/op tolerance in percent (0 disables the timing
// gate for hosts too contended to time anything).
func gateAgainst(cur report, path string, nsTol float64) error {
	buf, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var old report
	if err := json.Unmarshal(buf, &old); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	curByName := map[string]result{}
	for _, r := range cur.Results {
		curByName[r.Name] = r
	}
	var ratios []float64
	for _, o := range old.Results {
		if n, ok := curByName[o.Name]; ok && o.NsPerOp > 0 {
			ratios = append(ratios, n.NsPerOp/o.NsPerOp)
		}
	}
	scale := 1.0
	if len(ratios) > 0 {
		sort.Float64s(ratios)
		scale = ratios[len(ratios)/2]
	}
	var bad []string
	for _, o := range old.Results {
		n, ok := curByName[o.Name]
		if !ok {
			bad = append(bad, fmt.Sprintf("%s: benchmark disappeared", o.Name))
			continue
		}
		if nsTol > 0 && o.NsPerOp > 0 && n.NsPerOp > o.NsPerOp*scale*(1+nsTol/100) {
			bad = append(bad, fmt.Sprintf("%s: %.0f ns/op vs %.0f baseline ×%.2f host scale (+%.1f%% relative)",
				o.Name, n.NsPerOp, o.NsPerOp, scale, 100*(n.NsPerOp/(o.NsPerOp*scale)-1)))
		}
		if float64(n.AllocsPerOp) > float64(o.AllocsPerOp)*1.10+0.5 {
			bad = append(bad, fmt.Sprintf("%s: %d allocs/op vs %d",
				o.Name, n.AllocsPerOp, o.AllocsPerOp))
		}
	}
	if len(bad) > 0 {
		for _, b := range bad {
			fmt.Fprintln(os.Stderr, "regression:", b)
		}
		return fmt.Errorf("%d kernel regression(s) vs %s", len(bad), path)
	}
	return nil
}

// scalingRow is one (dataset, procs, partition) measurement of the full
// miner. Wall-clock counting time is recorded for hosts with real cores; the
// modelled figures are deterministic and are what the verdict gates on.
type scalingRow struct {
	Dataset      string `json:"dataset"`
	Procs        int    `json:"procs"`
	Partition    string `json:"partition"`
	CountWallNs  int64  `json:"count_wall_ns"`
	ModelTime    int64  `json:"model_time"`
	MaxCountWork int64  `json:"max_count_work"`
	IdleWork     int64  `json:"idle_work"`
	Steals       int64  `json:"steals"`
}

type scalingVerdict struct {
	// Skewed database, highest processor count: stealing idle and modelled
	// time must beat the static block partition.
	SkewedIdleBlock     int64 `json:"skewed_idle_block"`
	SkewedIdleStealing  int64 `json:"skewed_idle_stealing"`
	SkewedModelBlock    int64 `json:"skewed_model_block"`
	SkewedModelStealing int64 `json:"skewed_model_stealing"`
	// Uniform database: stealing modelled time must stay within 5% of block.
	UniformRegressPct float64 `json:"uniform_regress_pct"`
	Pass              bool    `json:"pass"`
}

type scalingReport struct {
	host
	ChunkSize int            `json:"chunk_size"`
	Rows      []scalingRow   `json:"rows"`
	Verdict   scalingVerdict `json:"verdict"`
}

// runScaling measures miner scaling across processor counts and partition
// modes on a uniform and a skew-planted database.
func runScaling(out string, dsize int) error {
	const chunk = 16
	uniform := gen.Params{T: 10, I: 4, D: dsize, Seed: 1}
	skewed := uniform
	skewed.SkewFrac, skewed.SkewMult = 0.05, 8

	rep := scalingReport{host: thisHost(), ChunkSize: chunk}
	parts := []ccpd.DBPartition{ccpd.PartitionBlock, ccpd.PartitionWorkload, ccpd.PartitionStealing}
	procsList := []int{1, 2, 4, 8}
	idle := map[string]int64{}  // dataset/procs/part → idle work
	model := map[string]int64{} // dataset/procs/part → model time
	for _, spec := range []struct {
		label string
		p     gen.Params
	}{{"uniform", uniform}, {"skewed", skewed}} {
		d, err := gen.Generate(spec.p)
		if err != nil {
			return err
		}
		for _, procs := range procsList {
			for _, part := range parts {
				opts := ccpd.Options{
					Options: apriori.Options{
						AbsSupport: 10, ShortCircuit: true,
						Hash: hashtree.HashBitonic,
						// The heavy tail makes deep levels dense.
						MaxK: 4,
					},
					Procs: procs, Counter: hashtree.CounterPrivate,
					Balance: ccpd.BalanceBitonic,
					DBPart:  part, ChunkSize: chunk,
				}
				_, st, err := ccpd.Mine(d, opts)
				if err != nil {
					return err
				}
				var maxCount int64
				for i := range st.PerIter {
					maxCount += maxWork(st.PerIter[i].CountWork)
				}
				key := fmt.Sprintf("%s/%d/%s", spec.label, procs, part)
				idle[key] = st.CountIdleWork()
				model[key] = st.ModelTime()
				rep.Rows = append(rep.Rows, scalingRow{
					Dataset: spec.label, Procs: procs, Partition: part.String(),
					CountWallNs: st.TotalCount().Nanoseconds(),
					ModelTime:   st.ModelTime(), MaxCountWork: maxCount,
					IdleWork: st.CountIdleWork(), Steals: st.TotalSteals(),
				})
				fmt.Printf("%-8s procs=%d %-9s model=%-10d idle=%-10d steals=%d\n",
					spec.label, procs, part, st.ModelTime(), st.CountIdleWork(), st.TotalSteals())
			}
		}
	}

	top := procsList[len(procsList)-1]
	v := &rep.Verdict
	v.SkewedIdleBlock = idle[fmt.Sprintf("skewed/%d/%s", top, ccpd.PartitionBlock)]
	v.SkewedIdleStealing = idle[fmt.Sprintf("skewed/%d/%s", top, ccpd.PartitionStealing)]
	v.SkewedModelBlock = model[fmt.Sprintf("skewed/%d/%s", top, ccpd.PartitionBlock)]
	v.SkewedModelStealing = model[fmt.Sprintf("skewed/%d/%s", top, ccpd.PartitionStealing)]
	ub := model[fmt.Sprintf("uniform/%d/%s", top, ccpd.PartitionBlock)]
	us := model[fmt.Sprintf("uniform/%d/%s", top, ccpd.PartitionStealing)]
	if ub > 0 {
		v.UniformRegressPct = 100 * (float64(us)/float64(ub) - 1)
	}
	v.Pass = v.SkewedIdleStealing < v.SkewedIdleBlock &&
		v.SkewedModelStealing < v.SkewedModelBlock &&
		v.UniformRegressPct < 5.0
	if err := writeJSON(out, rep); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", out)
	if !v.Pass {
		return fmt.Errorf("scaling verdict failed: skewed idle %d vs %d, model %d vs %d, uniform regress %.2f%%",
			v.SkewedIdleStealing, v.SkewedIdleBlock, v.SkewedModelStealing, v.SkewedModelBlock, v.UniformRegressPct)
	}
	fmt.Println("scaling verdict: pass")
	return nil
}

func maxWork(v []int64) int64 {
	var m int64
	for _, x := range v {
		if x > m {
			m = x
		}
	}
	return m
}

func writeJSON(path string, v any) error {
	buf, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	return os.WriteFile(path, buf, 0o644)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}
