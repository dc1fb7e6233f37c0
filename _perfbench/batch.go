package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"runtime/metrics"
	"slices"
	"time"

	armine "repro"
)

// batchSpec is cmd/apriori's default flag set (-counter private -balance
// bitonic -hash bitonic -dbpart block -chunk 256 -threshold 8).
func batchSpec(procs int, support float64) armine.EngineSpec {
	return armine.EngineSpec{
		Mining: armine.MiningOptions{
			MinSupport: support, Threshold: 8, ShortCircuit: true, Hash: armine.HashBitonic,
		},
		Procs: procs, Counter: armine.CounterPrivate, Balance: armine.BalanceBitonic,
		DBPart: armine.PartitionBlock, ChunkSize: 256,
	}
}

// batchRun is one timed pass from the .ardb file to the rule list.
type batchRun struct {
	Wall   time.Duration // read + plan + mine + rules
	Root   int64         // root span id (0 untraced)
	Engine string
	Stats  *armine.EngineStats
	Alloc  uint64 // bytes allocated inside DispatchEngine (traced runs)
	Rules  int
	Digest string
}

// batchOnce runs the cmd/apriori path once, with a span around each call
// into a layer: ReadDatabase, CharacterizePlanner + Planner.Plan (auto
// only), DispatchEngine and GenerateRules.
func batchOnce(ctx context.Context, tr *tracer, wl workload, path string, procs int, req int64) (batchRun, error) {
	var br batchRun
	root := tr.start("batch", 0, req, 1)
	sp := tr.start("db.read", root.id(), req, 1)
	d, err := armine.ReadDatabase(path)
	sp.end()
	if err != nil {
		return br, fmt.Errorf("read %s: %w", path, err)
	}
	spec := batchSpec(procs, wl.Support)
	br.Engine = wl.BatchEngine
	if br.Engine == "auto" {
		// cmd/apriori -algo auto: the planner's partition and chunk apply.
		sp = tr.start("planner.characterize", root.id(), req, 1)
		info := armine.CharacterizePlanner(d)
		sp.end()
		sp = tr.start("planner.plan", root.id(), req, 1)
		plan := armine.Planner{Procs: procs}.Plan(info)
		sp.end()
		br.Engine, spec.DBPart, spec.ChunkSize = plan.Engine, plan.DBPart, plan.ChunkSize
	}
	a0 := allocBytes(tr.on)
	sp = tr.start("engine.dispatch", root.id(), req, 1)
	res, st, err := armine.DispatchEngine(ctx, br.Engine, d, nil, spec)
	sp.end()
	br.Alloc = allocBytes(tr.on) - a0
	if err != nil {
		return br, fmt.Errorf("%s mine: %w", br.Engine, err)
	}
	sp = tr.start("rules.generate", root.id(), req, 1)
	rs := armine.GenerateRules(res, armine.RuleOptions{MinConfidence: wl.Conf, DBSize: int64(d.Len())})
	sp.end()
	br.Root = root.id()
	br.Wall = root.end()
	br.Stats, br.Rules, br.Digest = st, len(rs), digest(res, rs)
	return br, nil
}

// mineOnce is the reference and probe path: mine d with a named engine at
// procs workers, inside a span called label, and derive the rules with the
// fast generator, so a digest match also cross-checks the two rule
// generators.
func mineOnce(ctx context.Context, tr *tracer, name, label string, d *armine.Database, wl workload, procs int, parent int64) (time.Duration, string, error) {
	sp := tr.start(label, parent, 0, 2)
	res, _, err := armine.DispatchEngine(ctx, name, d, nil, batchSpec(procs, wl.Support))
	wall := sp.end()
	if err != nil {
		return 0, "", fmt.Errorf("%s mine: %w", name, err)
	}
	rs := armine.GenerateRulesFast(res, armine.RuleOptions{MinConfidence: wl.Conf, DBSize: int64(d.Len())})
	return wall, digest(res, rs), nil
}

// allocBytes reads the runtime's cumulative heap allocation counter (only
// when tracing; the untraced path stays free of it).
func allocBytes(on bool) uint64 {
	if !on {
		return 0
	}
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// digest hashes a mining result and its rules in canonical order: frequent
// itemsets by size, then lexicographically, with their supports; rules by
// antecedent, then consequent, with support, confidence and lift bits. Two
// exact runs over one input agree on the digest whatever order their
// engines emit.
func digest(res *armine.Result, rs []armine.Rule) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	putSet := func(s armine.Itemset) {
		put(uint64(len(s)))
		for _, it := range s {
			put(uint64(it))
		}
	}
	put(uint64(res.MinCount))
	for k, fk := range res.ByK {
		sets := slices.Clone(fk)
		slices.SortFunc(sets, func(a, b armine.FrequentItemset) int { return slices.Compare(a.Items, b.Items) })
		put(uint64(k))
		put(uint64(len(sets)))
		for _, f := range sets {
			putSet(f.Items)
			put(uint64(f.Count))
		}
	}
	sorted := slices.Clone(rs)
	slices.SortFunc(sorted, func(a, b armine.Rule) int {
		if c := slices.Compare(a.Antecedent, b.Antecedent); c != 0 {
			return c
		}
		return slices.Compare(a.Consequent, b.Consequent)
	})
	put(uint64(len(sorted)))
	for _, r := range sorted {
		putSet(r.Antecedent)
		putSet(r.Consequent)
		put(uint64(r.Support))
		put(math.Float64bits(r.SupportFrac))
		put(math.Float64bits(r.Confidence))
		put(math.Float64bits(r.Lift))
	}
	return hex.EncodeToString(h.Sum(nil)[:12])
}
