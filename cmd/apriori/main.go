// Command apriori mines association rules from a database file (or a
// freshly generated synthetic database) through the unified engine registry:
// the sequential algorithm, the parallel CCPD/PCCD algorithms and the
// vertical engines (eclat, vbit) all dispatch through engine.Miner, with
// every optimization switchable from the command line. The Section 7
// baselines and the sampling study run outside the registry.
// -algo auto hands the choice to the cost-based planner, which picks the
// engine from the database's stored totals (density, size) and the
// -mem-budget, and counts with work stealing.
//
// Examples:
//
//	apriori -db T10.I4.D100K.ardb -support 0.005 -procs 8
//	apriori -gen T10.I4.D10K -support 0.01 -algo pccd -rules 0.9
//	apriori -gen T10.I4.D10K -procs 4 -dbpart stealing -trace out.json
//	apriori -gen T20.I6.D10K -support 0.01 -algo auto -v
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"strconv"

	"repro/internal/apriori"
	"repro/internal/baseline"
	"repro/internal/ccpd"
	"repro/internal/db"
	"repro/internal/db/seg"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/hashtree"
	"repro/internal/obs"
	"repro/internal/rules"
	"repro/internal/sampling"
)

var genRe = regexp.MustCompile(`^T(\d+)\.I(\d+)\.D(\d+)([KM]?)$`)

func parseGenSpec(s string) (gen.Params, error) {
	m := genRe.FindStringSubmatch(s)
	if m == nil {
		return gen.Params{}, fmt.Errorf("bad -gen spec %q (want e.g. T10.I4.D100K)", s)
	}
	t, _ := strconv.Atoi(m[1])
	i, _ := strconv.Atoi(m[2])
	d, _ := strconv.Atoi(m[3])
	switch m[4] {
	case "K":
		d *= 1000
	case "M":
		d *= 1000000
	}
	return gen.Params{T: t, I: i, D: d, Seed: 1}, nil
}

// cliOptions carries every flag of the command. One struct rather than a
// positional parameter list: run() is exercised directly by the tests, and
// adding a flag must not ripple through every call site.
type cliOptions struct {
	DBPath     string  // -db: database file
	GenSpec    string  // -gen: synthetic database spec
	Support    float64 // -support
	Algo       string  // -algo
	Procs      int     // -procs
	Balance    string  // -balance
	Hash       string  // -hash
	Counter    string  // -counter
	DBPart     string  // -dbpart
	ChunkSize  int     // -chunk
	SC         bool    // -shortcircuit
	Threshold  int     // -threshold
	Fanout     int     // -fanout
	MaxK       int     // -maxk: iteration bound (0 = fixpoint)
	MaxCands   int     // -max-candidates: per-tree candidate budget (0 = unlimited)
	Checkpoint string  // -checkpoint: per-iteration snapshot path (ccpd only)
	Resume     bool    // -resume: continue from -checkpoint instead of starting over
	RuleConf   float64 // -rules
	TopN       int     // -top
	Verbose    bool    // -v
	TracePath  string  // -trace: Chrome trace JSON output (parallel engines)
	MetricsTo  string  // -metrics: Prometheus-text snapshot output (parallel engines)
	MemBudget  string  // -mem-budget: resident-segment byte cap for segmented stores (e.g. 512M)
	MMap       bool    // -mmap: serve segmented stores from a memory mapping
	// Set names the flags given on the command line (flag.Visit), so
	// -algo auto keeps an explicit -dbpart or -chunk even at its default.
	Set map[string]bool
}

// parseByteSize parses "512M"-style sizes (K/M/G suffixes, base 1024).
func parseByteSize(s string) (int64, error) {
	mult := int64(1)
	num := s
	if n := len(s); n > 0 {
		switch s[n-1] {
		case 'k', 'K':
			mult, num = 1<<10, s[:n-1]
		case 'm', 'M':
			mult, num = 1<<20, s[:n-1]
		case 'g', 'G':
			mult, num = 1<<30, s[:n-1]
		}
	}
	v, err := strconv.ParseInt(num, 10, 64)
	if err != nil || v <= 0 {
		return 0, usagef("bad -mem-budget %q (want e.g. 512M, 2G)", s)
	}
	return v * mult, nil
}

// usageError marks a command-line validation failure; main exits with
// status 2 for these (the conventional usage-error code), versus 1 for
// runtime failures.
type usageError struct{ msg string }

func (e *usageError) Error() string { return e.msg }

func usagef(format string, args ...any) error {
	return &usageError{msg: fmt.Sprintf(format, args...)}
}

// validate rejects option values that can only be mistakes, before any work
// (or worse, a silent misrun: -support 0 used to mine every itemset at
// min count 1, and -procs 0 was silently bumped to 1 deep in withDefaults).
func validate(o cliOptions) error {
	if o.Support <= 0 || o.Support > 1 {
		return usagef("-support must be a fraction in (0, 1], got %g", o.Support)
	}
	if o.Procs <= 0 {
		return usagef("-procs must be positive, got %d", o.Procs)
	}
	if o.ChunkSize <= 0 {
		return usagef("-chunk must be positive, got %d", o.ChunkSize)
	}
	if o.MaxK < 0 {
		return usagef("-maxk must be >= 0 (0 = run to fixpoint), got %d", o.MaxK)
	}
	if o.MaxCands < 0 {
		return usagef("-max-candidates must be >= 0 (0 = unlimited), got %d", o.MaxCands)
	}
	if o.Threshold <= 0 {
		return usagef("-threshold must be positive, got %d", o.Threshold)
	}
	if !(o.RuleConf >= 0 && o.RuleConf <= 1) {
		return usagef("-rules must be a confidence in [0, 1] (0 = skip), got %g", o.RuleConf)
	}
	if o.Resume && o.Checkpoint == "" {
		return usagef("-resume requires -checkpoint")
	}
	if o.Checkpoint != "" && o.Algo != "ccpd" {
		return usagef("-checkpoint/-resume require -algo ccpd (got %q)", o.Algo)
	}
	return nil
}

func main() {
	var o cliOptions
	flag.StringVar(&o.DBPath, "db", "", "database file (binary format)")
	flag.StringVar(&o.GenSpec, "gen", "", "generate a synthetic database, e.g. T10.I4.D10K")
	flag.Float64Var(&o.Support, "support", 0.005, "minimum support fraction")
	flag.StringVar(&o.Algo, "algo", "ccpd", "algorithm: seq | ccpd | pccd | eclat | vbit | sampling | dhp | partition | countdist | auto (planner)")
	flag.IntVar(&o.Procs, "procs", 4, "processors (parallel algorithms)")
	flag.StringVar(&o.Balance, "balance", "bitonic", "computation balancing: block | interleaved | bitonic")
	flag.StringVar(&o.Hash, "hash", "bitonic", "hash tree balancing: interleaved | bitonic")
	flag.StringVar(&o.Counter, "counter", "private", "counter mode: locked | atomic | private")
	flag.StringVar(&o.DBPart, "dbpart", "block", "counting DB partition: block | workload | stealing")
	flag.IntVar(&o.ChunkSize, "chunk", 256, "transactions per stealing chunk / cancellation poll stride")
	flag.BoolVar(&o.SC, "shortcircuit", true, "short-circuited subset checking")
	flag.IntVar(&o.Threshold, "threshold", 8, "hash tree leaf threshold")
	flag.IntVar(&o.Fanout, "fanout", 0, "hash tree fanout (0 = adaptive)")
	flag.IntVar(&o.MaxK, "maxk", 0, "stop after itemsets of this size (0 = run to fixpoint)")
	flag.IntVar(&o.MaxCands, "max-candidates", 0, "max candidates held in one hash tree; larger iterations run batched with one DB pass per batch (0 = unlimited)")
	flag.StringVar(&o.Checkpoint, "checkpoint", "", "write a resumable snapshot here after every iteration (ccpd)")
	flag.BoolVar(&o.Resume, "resume", false, "continue from the -checkpoint snapshot instead of starting over")
	flag.Float64Var(&o.RuleConf, "rules", 0, "generate rules at this min confidence (0 = skip)")
	flag.IntVar(&o.TopN, "top", 10, "rules to print")
	flag.BoolVar(&o.Verbose, "v", false, "per-iteration details")
	flag.StringVar(&o.TracePath, "trace", "", "write a Chrome trace_event JSON timeline here (parallel engines)")
	flag.StringVar(&o.MetricsTo, "metrics", "", "write a Prometheus-text metrics snapshot here (parallel engines)")
	flag.StringVar(&o.MemBudget, "mem-budget", "", "out-of-core residency budget for segmented -db stores, e.g. 512M (default: double-buffered)")
	flag.BoolVar(&o.MMap, "mmap", false, "serve a segmented -db store from a memory mapping instead of read-at I/O")
	flag.Parse()
	o.Set = map[string]bool{}
	flag.Visit(func(f *flag.Flag) { o.Set[f.Name] = true })

	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "apriori:", err)
		var ue *usageError
		if errors.As(err, &ue) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// baselineAlgos are the algorithms outside the engine registry: the
// Section 7 comparison algorithms (DHP, Partition, Count Distribution) and
// the sampling study. They are reference implementations with their own
// stats, not engines, and have no out-of-core path.
var baselineAlgos = map[string]bool{"dhp": true, "partition": true, "countdist": true, "sampling": true}

func run(o cliOptions) error {
	if err := validate(o); err != nil {
		return err
	}
	spec, err := buildSpec(o)
	if err != nil {
		return err
	}

	// Open the data source: an in-memory database, or a segmented reader
	// for out-of-core stores.
	var (
		d *db.Database
		r *seg.Reader
	)
	switch {
	case o.DBPath != "":
		segmented, err := seg.IsSegmented(o.DBPath)
		if err != nil {
			return err
		}
		if segmented {
			// -resume needs -checkpoint (validate), so this covers both.
			if o.Checkpoint != "" {
				return usagef("-checkpoint/-resume require an in-RAM database; segmented stores mine without checkpoints")
			}
			if o.MMap {
				r, err = seg.OpenMapped(o.DBPath)
			} else {
				r, err = seg.Open(o.DBPath)
			}
			if err != nil {
				return err
			}
			defer r.Close()
			fmt.Printf("segmented store: %d transactions, %d segments, max segment %d B\n",
				r.NumTx(), r.NumSegments(), r.MaxSegmentBytes())
			break
		}
		if o.MemBudget != "" || o.MMap {
			return usagef("-mem-budget/-mmap require a segmented store (write one with questgen -seg)")
		}
		if d, err = db.ReadFile(o.DBPath); err != nil {
			return err
		}
	case o.GenSpec != "":
		if o.MemBudget != "" || o.MMap {
			return usagef("-mem-budget/-mmap require a segmented -db store (write one with questgen -seg)")
		}
		p, err := parseGenSpec(o.GenSpec)
		if err != nil {
			return err
		}
		if d, err = gen.Generate(p); err != nil {
			return err
		}
		fmt.Printf("generated %s: %d transactions\n", p.Name(), d.Len())
	default:
		return fmt.Errorf("need -db or -gen")
	}

	var budget int64
	if o.MemBudget != "" {
		if budget, err = parseByteSize(o.MemBudget); err != nil {
			return err
		}
	}
	spec.MemBudget = budget

	// -algo auto: one planner call covers both the in-RAM and the segmented
	// path (this used to be two hand-rolled selection sites, one of which
	// sampled only segment 0 and ignored the budget).
	algo := o.Algo
	if algo == "auto" {
		var info engine.DBInfo
		if r != nil {
			info = engine.CharacterizeReader(r)
		} else {
			info = engine.Characterize(d)
		}
		plan := engine.Planner{Procs: o.Procs, MemBudget: budget}.Plan(info)
		// The planner's partition and chunk apply unless the flag was
		// given; the line below prints the ones the run uses.
		if o.Set["dbpart"] {
			plan.DBPart = spec.DBPart
			plan.Reason += "; -dbpart given"
		}
		if o.Set["chunk"] {
			plan.ChunkSize = spec.ChunkSize
			plan.Reason += "; -chunk given"
		}
		spec.DBPart, spec.ChunkSize = plan.DBPart, plan.ChunkSize
		fmt.Printf("planner: density=%.5f (avg len %.1f over %d items) -> %s\n",
			info.Density, info.AvgLen, info.NumItems, plan)
		if o.Verbose {
			for _, e := range plan.Estimates {
				feas := "feasible"
				if !e.Feasible {
					feas = "infeasible"
				}
				fmt.Printf("  estimate %-5s cost=%-12d arena=%-12d %s: %s\n",
					e.Engine, e.Cost, e.ArenaBytes, feas, e.Note)
			}
		}
		algo = plan.Engine
	}

	if baselineAlgos[algo] {
		if r != nil {
			return usagef("%s is a baseline without an out-of-core path; segmented stores mine with %v", algo, engine.SegmentedNames())
		}
		if o.TracePath != "" || o.MetricsTo != "" {
			return fmt.Errorf("-trace/-metrics require a parallel engine (got %q)", algo)
		}
		res, err := runBaseline(algo, d, spec.Mining, o)
		if err != nil {
			return err
		}
		return report(res, nil, o, d, r)
	}

	m, ok := engine.Lookup(algo)
	if !ok {
		return fmt.Errorf("unknown -algo %q", o.Algo)
	}
	caps := m.Caps()
	var rec *obs.Recorder
	if o.TracePath != "" || o.MetricsTo != "" {
		if !caps.Parallel {
			return fmt.Errorf("-trace/-metrics require a parallel engine: one of ccpd, pccd, vbit or auto (got %q)", algo)
		}
		rec = obs.NewRecorder(o.Procs)
		spec.Obs = rec
	}

	var res *apriori.Result
	var stats *engine.Stats
	switch {
	case o.Resume:
		rm, ok := engine.AsResumer(m)
		if !ok {
			return usagef("-resume requires an engine with checkpoint support (got %q)", algo)
		}
		res, stats, err = rm.Resume(context.Background(), o.Checkpoint, d, spec)
	default:
		res, stats, err = engine.Dispatch(context.Background(), algo, d, r, spec)
	}
	if errors.Is(err, engine.ErrNoOutOfCore) || errors.Is(err, ccpd.ErrSegmentedWorkload) ||
		errors.Is(err, engine.ErrOverBudget) {
		// A segmented store the engine, partition or budget cannot mine:
		// the rejection comes before any work, and -algo auto never plans
		// one.
		return &usageError{msg: err.Error()}
	}
	if err != nil {
		return err
	}
	if err := report(res, stats, o, d, r); err != nil {
		return err
	}
	return exportObs(rec, o.TracePath, o.MetricsTo)
}

// buildSpec maps the CLI's string knobs onto the engine-independent Spec,
// rejecting any mode value it does not know as a usage error.
func buildSpec(o cliOptions) (engine.Spec, error) {
	s := engine.Spec{
		Mining: apriori.Options{
			MinSupport: o.Support, Threshold: o.Threshold, Fanout: o.Fanout,
			ShortCircuit: o.SC, MaxK: o.MaxK, MaxCandidatesInMemory: o.MaxCands,
		},
		Procs: o.Procs, ChunkSize: o.ChunkSize, Checkpoint: o.Checkpoint,
	}
	switch o.Hash {
	case "interleaved":
		s.Mining.Hash = hashtree.HashInterleaved
	case "bitonic":
		s.Mining.Hash = hashtree.HashBitonic
	default:
		return s, usagef("unknown -hash %q (want interleaved | bitonic)", o.Hash)
	}
	switch o.Balance {
	case "block":
		s.Balance = ccpd.BalanceBlock
	case "interleaved":
		s.Balance = ccpd.BalanceInterleaved
	case "bitonic":
		s.Balance = ccpd.BalanceBitonic
	default:
		return s, usagef("unknown -balance %q (want block | interleaved | bitonic)", o.Balance)
	}
	switch o.Counter {
	case "locked":
		s.Counter = hashtree.CounterLocked
	case "atomic":
		s.Counter = hashtree.CounterAtomic
	case "private":
		s.Counter = hashtree.CounterPrivate
	default:
		return s, usagef("unknown -counter %q (want locked | atomic | private)", o.Counter)
	}
	switch o.DBPart {
	case "block":
		s.DBPart = ccpd.PartitionBlock
	case "workload":
		s.DBPart = ccpd.PartitionWorkload
	case "stealing":
		s.DBPart = ccpd.PartitionStealing
	default:
		return s, usagef("unknown -dbpart %q (want block | workload | stealing)", o.DBPart)
	}
	return s, nil
}

// runBaseline runs one of the algorithms outside the registry, printing its
// algorithm-specific statistics.
func runBaseline(algo string, d *db.Database, opts apriori.Options, o cliOptions) (*apriori.Result, error) {
	switch algo {
	case "sampling":
		// The study mines a uniform random sample at a slacked support and
		// the full database, and returns the exact full-database result.
		acc, res, err := sampling.Evaluate(d, sampling.Options{Mining: opts})
		if err == nil {
			fmt.Printf("sampling: %d rows sampled, precision %.3f recall %.3f (TP %d FP %d FN %d)\n",
				acc.SampleSize, acc.Precision(), acc.Recall(),
				acc.TruePositives, acc.FalsePositives, acc.FalseNegatives)
		}
		return res, err
	case "dhp":
		res, st, err := baseline.MineDHP(d, baseline.DHPOptions{Mining: opts})
		if err == nil {
			fmt.Printf("dhp filter: %d -> %d candidates\n", st.CandidatesBefore, st.CandidatesAfter)
		}
		return res, err
	case "partition":
		res, st, err := baseline.MinePartition(d, baseline.PartitionOptions{Mining: opts, Chunks: o.Procs})
		if err == nil {
			fmt.Printf("partition: %d chunks, %d local candidates, %d scans\n",
				st.Chunks, st.LocalCandidates, st.Scans)
		}
		return res, err
	default: // countdist; baselineAlgos gates the key set
		res, st, err := baseline.MineCD(d, baseline.CDOptions{Mining: opts, Procs: o.Procs})
		if err == nil {
			fmt.Printf("count distribution: %d all-reduce rounds, %.1f KB exchanged\n",
				st.Rounds, float64(st.BytesExchanged)/1024)
		}
		return res, err
	}
}

// report prints the frequent sets, the engine's normalized (and, with -v,
// detailed) statistics, and the generated rules — one print path for every
// engine and both data sources.
func report(res *apriori.Result, stats *engine.Stats, o cliOptions, d *db.Database, r *seg.Reader) error {
	// rules.Options.DBSize is a wide int64, so a segmented store's full
	// transaction count flows into SupportFrac/Lift without narrowing (the
	// old int conversion silently truncated past 2³¹ on 32-bit builds).
	var dbSize int64
	if d != nil {
		dbSize = int64(d.Len())
	} else if r != nil {
		dbSize = r.NumTx()
	}

	fmt.Printf("min support: %d transactions (%.3f%%)\n", res.MinCount, o.Support*100)
	fmt.Printf("frequent itemsets: %d\n", res.NumFrequent())
	for k := 1; k < len(res.ByK); k++ {
		if len(res.ByK[k]) > 0 {
			fmt.Printf("  F%-2d %6d\n", k, len(res.ByK[k]))
		}
	}
	if stats != nil {
		printStats(stats, o.Verbose)
	}

	if o.RuleConf > 0 {
		rs := rules.GenerateFast(res, rules.Options{MinConfidence: o.RuleConf, DBSize: dbSize})
		fmt.Printf("rules at confidence >= %.2f: %d\n", o.RuleConf, len(rs))
		for i, rl := range rs {
			if i >= o.TopN {
				break
			}
			fmt.Printf("  %v\n", rl)
		}
	}
	return nil
}

// printStats renders the normalized engine statistics, with the raw
// per-engine detail behind -v.
func printStats(st *engine.Stats, verbose bool) {
	switch {
	case st.VBit != nil:
		fmt.Printf("total time: %v (class DFS %v)\n", st.Total, st.Count)
		if verbose {
			v := st.VBit
			fmt.Printf("  classes=%d columns=%d bitmap/%d tidlist modeltime=%d totalwork=%d largestclass=%.1f%% speedup=%.2fx (modelled)\n",
				v.Classes, v.DenseItems, v.SparseItems, v.ModelTime(), v.TotalWork(),
				100*v.LargestClassShare(), float64(v.TotalWork())/float64(max(v.ModelTime(), 1)))
			if v.PairWork != nil {
				fmt.Printf("  pair pass %v pairwork=%v\n", v.Pairs, v.PairWork)
			}
		}
	case st.CCPD != nil:
		fmt.Printf("total time: %v (counting %v)\n", st.Total, st.Count)
		if verbose {
			for _, it := range st.CCPD.PerIter {
				if it.Paired() {
					fmt.Printf("  k=%-2d cands=%-7d freq=%-7d rows=%-7d pair pass: pairs=%v reduce=%v\n",
						it.K, it.Candidates, it.Frequent, it.Rows, it.Count, it.Reduce)
				} else {
					fmt.Printf("  k=%-2d cands=%-7d freq=%-7d rows=%-7d gen=%v build=%v count=%v reduce=%v\n",
						it.K, it.Candidates, it.Frequent, it.Rows, it.CandGen, it.TreeBuild, it.Count, it.Reduce)
				}
				if it.ChunksClaimed != nil {
					var steals int64
					for _, s := range it.Steals {
						steals += s
					}
					fmt.Printf("       chunks=%v steals=%d idlework=%d countidle=%v\n",
						it.ChunksClaimed, steals, it.IdleWork(), it.CountIdle)
				}
			}
		}
	case st.Total > 0:
		fmt.Printf("total time: %v\n", st.Total)
	}
	if p := st.Pipeline; p != nil {
		mode := "sync"
		if p.Overlapped {
			mode = "double-buffered"
		}
		fmt.Printf("out-of-core: %d segment loads over %d passes, %d resident (%s), stall %.1f%%\n",
			p.Segments, p.Passes, p.Residents, mode, 100*p.StallFraction())
	}
}

// exportObs writes the recorded trace and/or metrics snapshot to the
// requested paths. A nil recorder (no -trace/-metrics) is a no-op.
func exportObs(rec *obs.Recorder, tracePath, metricsPath string) error {
	if rec == nil {
		return nil
	}
	write := func(path string, emit func(w io.Writer) error, what string) error {
		if path == "" {
			return nil
		}
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := emit(f); err != nil {
			f.Close()
			return fmt.Errorf("writing %s: %w", what, err)
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("%s written to %s\n", what, path)
		return nil
	}
	if err := write(tracePath, rec.WriteTrace, "trace"); err != nil {
		return err
	}
	return write(metricsPath, rec.WriteMetrics, "metrics")
}
