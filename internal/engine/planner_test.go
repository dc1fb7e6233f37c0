package engine

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/ccpd"
	"repro/internal/db"
	"repro/internal/db/seg"
	"repro/internal/gen"
	"repro/internal/itemset"
)

// workloadShapes are the internal/gen reference shapes the planner goldens
// pin: density above and below the crossover, each with and without a
// planted skew, which the planner does not read (segmented geometry is
// pinned separately below).
var workloadShapes = map[string]gen.Params{
	// density ≈ 0.2: far above the 1/128 crossover, every column a bitmap.
	"dense": {N: 60, L: 30, T: 12, I: 4, D: 2000, Seed: 1},
	// density ≈ 0.003: below the crossover, vertical columns near-empty.
	"sparse": {N: 3200, L: 1600, T: 10, I: 4, D: 2000, Seed: 1},
	// the paper-default shape with the generator's heavy tail planted:
	// 5% of transactions draw their size from Poisson(8·T).
	"skewed": {T: 10, I: 4, D: 2000, Seed: 1, SkewFrac: 0.05, SkewMult: 8},
	// skew below the crossover.
	"sparse-skewed": {N: 3200, L: 1600, T: 10, I: 4, D: 2000, Seed: 1, SkewFrac: 0.05, SkewMult: 8},
}

// plannedChoice is the pinned decision for one workload shape.
type plannedChoice struct {
	engine string
	dbpart ccpd.DBPartition
}

func TestCharacterize(t *testing.T) {
	d := db.New(100)
	for i := 0; i < 50; i++ {
		d.Append(int64(i), itemset.New(0, 1, 2, 3, 4))
	}
	s := Characterize(d).DBStats
	if s.Transactions != 50 || s.NumItems != 100 {
		t.Errorf("D/N = %d/%d, want 50/100", s.Transactions, s.NumItems)
	}
	if s.AvgLen != 5 {
		t.Errorf("AvgLen = %v, want 5", s.AvgLen)
	}
	if s.Density != 0.05 {
		t.Errorf("Density = %v, want 0.05", s.Density)
	}
}

// TestPlannerGoldens pins the planner's decision for each workload shape and
// checks the decision is justified by the recorded estimates — the chosen
// engine must be the feasible one with the lower modelled cost. Every shape
// counts with work stealing, skewed or not.
func TestPlannerGoldens(t *testing.T) {
	want := map[string]plannedChoice{
		"dense":         {engine: "vbit", dbpart: ccpd.PartitionStealing},
		"sparse":        {engine: "ccpd", dbpart: ccpd.PartitionStealing},
		"skewed":        {engine: "vbit", dbpart: ccpd.PartitionStealing},
		"sparse-skewed": {engine: "ccpd", dbpart: ccpd.PartitionStealing},
	}
	for name, params := range workloadShapes {
		d, err := gen.Generate(params)
		if err != nil {
			t.Fatal(err)
		}
		info := Characterize(d)
		plan := Planner{Procs: 4}.Plan(info)
		w := want[name]
		if plan.Engine != w.engine {
			t.Errorf("%s: planned engine %s, want %s (info %+v, reason %q)",
				name, plan.Engine, w.engine, info.DBStats, plan.Reason)
		}
		if plan.DBPart != w.dbpart {
			t.Errorf("%s: planned dbpart %s, want %s", name, plan.DBPart, w.dbpart)
		}
		assertJustified(t, name, plan)
	}
}

// assertJustified checks a plan's internal consistency against its own
// recorded estimates.
func assertJustified(t *testing.T, label string, plan Plan) {
	t.Helper()
	ests := map[string]Estimate{}
	for _, e := range plan.Estimates {
		ests[e.Engine] = e
	}
	chosen, ok := ests[plan.Engine]
	if !ok {
		t.Errorf("%s: chosen engine %s has no recorded estimate", label, plan.Engine)
		return
	}
	if !chosen.Feasible {
		t.Errorf("%s: chosen engine %s marked infeasible: %s", label, plan.Engine, chosen.Note)
	}
	for _, e := range plan.Estimates {
		if e.Engine != plan.Engine && e.Feasible && e.Cost < chosen.Cost {
			t.Errorf("%s: %s (cost %d) was feasible and cheaper than chosen %s (cost %d)",
				label, e.Engine, e.Cost, plan.Engine, chosen.Cost)
		}
	}
}

// TestPlannerCrossoverAndEmpty pins the two edge decisions: at exactly the
// crossover density, where both cost estimates are equal, the planner picks
// vbit, as the crossover is documented; a database with no item
// occurrences plans ccpd.
func TestPlannerCrossoverAndEmpty(t *testing.T) {
	at := DBInfo{
		DBStats:    DBStats{Transactions: 1000, NumItems: 128, AvgLen: 1, Density: DefaultCrossoverDensity},
		TotalItems: 1000,
	}
	plan := Planner{Procs: 4}.Plan(at)
	if plan.Engine != "vbit" {
		t.Errorf("at crossover: engine %s, want vbit (%s)", plan.Engine, plan.Reason)
	}
	if !strings.Contains(plan.Reason, "at or above crossover") {
		t.Errorf("at crossover: reason %q does not state the rule that chose vbit", plan.Reason)
	}
	assertJustified(t, "at-crossover", plan)

	empty := Planner{Procs: 4}.Plan(DBInfo{})
	if empty.Engine != "ccpd" {
		t.Errorf("empty database: engine %s, want ccpd (%s)", empty.Engine, empty.Reason)
	}
	if !strings.Contains(empty.Reason, "no item occurrences") {
		t.Errorf("empty database: reason %q does not say why vbit was ruled out", empty.Reason)
	}
}

// TestPlannerSegmented pins the segmented decisions: with exact whole-store
// statistics a dense store plans vbit when the budget fits its resident
// columns, and any store falls back to the streaming ccpd engine when the
// budget cannot hold the vertical arena. The old selector read only segment
// 0 and never looked at the budget at all.
func TestPlannerSegmented(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, p gen.Params, segTx int) *seg.Reader {
		t.Helper()
		d, err := gen.Generate(p)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name+".arseg")
		if err := seg.WriteDatabase(path, d, seg.WriterOptions{SegTx: segTx}); err != nil {
			t.Fatal(err)
		}
		r, err := seg.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { r.Close() })
		return r
	}

	dense := write("dense", workloadShapes["dense"], 500)
	info := CharacterizeReader(dense)
	if !info.Segmented || info.NumSegments != 4 || info.Transactions != 2000 {
		t.Fatalf("dense store characterization off: %+v", info)
	}
	if plan := (Planner{Procs: 4}).Plan(info); plan.Engine != "vbit" {
		t.Errorf("dense segmented, no budget: engine %s, want vbit (%s)", plan.Engine, plan.Reason)
	}
	// A generous budget still fits the columns: stays vbit.
	if plan := (Planner{Procs: 4, MemBudget: 64 << 20}).Plan(info); plan.Engine != "vbit" {
		t.Errorf("dense segmented, 64M budget: engine %s, want vbit (%s)", plan.Engine, plan.Reason)
	}
	// A tiny budget can never hold the vertical arena: must fall back to the
	// streaming ccpd engine, never in-RAM vbit.
	tiny := Planner{Procs: 4, MemBudget: 4 << 10}.Plan(info)
	if tiny.Engine != "ccpd" {
		t.Errorf("dense segmented, 4K budget: engine %s, want ccpd fallback (%s)", tiny.Engine, tiny.Reason)
	}
	for _, e := range tiny.Estimates {
		if e.Engine == "vbit" && e.Feasible {
			t.Errorf("4K budget: vbit estimate still feasible (arena %d B)", e.ArenaBytes)
		}
	}
}

// TestCharacterizeReaderReadsHeader: a store's statistics come from its
// header and directory alone. An item past the universe, written into
// segment 0's arena, fails any load of that segment, yet CharacterizeReader
// still returns exactly the in-RAM database's statistics.
func TestCharacterizeReaderReadsHeader(t *testing.T) {
	d, err := gen.Generate(workloadShapes["skewed"])
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "skew.arseg")
	if err := seg.WriteDatabase(path, d, seg.WriterOptions{SegTx: 500}); err != nil {
		t.Fatal(err)
	}
	r, err := seg.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	off := r.Segment(0).ArenaOff
	r.Close()
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	past := binary.LittleEndian.AppendUint32(nil, uint32(d.NumItems()+1000))
	if _, err := f.WriteAt(past, off); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if r, err = seg.Open(path); err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := r.LoadSegment(0, &seg.Buffer{}); err == nil {
		t.Fatal("segment 0 loads despite an item past the universe")
	}
	info := CharacterizeReader(r)
	if want := Characterize(d); info.DBStats != want.DBStats || info.TotalItems != want.TotalItems {
		t.Errorf("store statistics %+v (%d items), in-RAM %+v (%d items)",
			info.DBStats, info.TotalItems, want.DBStats, want.TotalItems)
	}
}

// TestVBitArenaBytes pins the arena projection's two regimes against the
// layout's real materialization rule, and a store's extra decoded segment.
func TestVBitArenaBytes(t *testing.T) {
	dense := DBInfo{DBStats: DBStats{Transactions: 6400, NumItems: 100, AvgLen: 12, Density: 0.12}, TotalItems: 6400 * 12}
	// 6400 tx → 100 words of 8 bytes per bitmap, 100 items.
	if got, want := VBitArenaBytes(dense), int64(100*100*8); got != want {
		t.Errorf("dense arena = %d, want %d", got, want)
	}
	sparse := DBInfo{DBStats: DBStats{Transactions: 6400, NumItems: 100000, AvgLen: 10, Density: 0.0001}, TotalItems: 64000}
	if got, want := VBitArenaBytes(sparse), int64(64000*4); got != want {
		t.Errorf("sparse arena = %d, want %d", got, want)
	}
	// CI's out-of-core smoke store, T10.I4.D2000 in 256-row segments:
	// 79,492 B of tidlists plus one 13,760 B segment.
	smoke := DBInfo{
		DBStats:    DBStats{Transactions: 2000, NumItems: 1000, AvgLen: 9.9365, Density: 0.0099365},
		TotalItems: 19873, Segmented: true, NumSegments: 8, MaxSegmentBytes: 13760,
	}
	if got := VBitArenaBytes(smoke); got != 93252 {
		t.Errorf("smoke store = %d B, want 93252", got)
	}
}

// TestPlannerInt32Tids: vbit's columns hold int32 tids, so a database of
// 2³¹ transactions plans ccpd, with vbit infeasible whatever the budget.
func TestPlannerInt32Tids(t *testing.T) {
	info := DBInfo{
		DBStats:    DBStats{Transactions: 1 << 31, NumItems: 60, AvgLen: 12, Density: 0.2},
		TotalItems: 12 << 31, Segmented: true, NumSegments: 1 << 15, MaxSegmentBytes: 4 << 20,
	}
	plan := Planner{Procs: 4}.Plan(info)
	if plan.Engine != "ccpd" {
		t.Errorf("2³¹ transactions: engine %s, want ccpd (%s)", plan.Engine, plan.Reason)
	}
	for _, e := range plan.Estimates {
		if e.Engine == "vbit" && (e.Feasible || !strings.Contains(e.Note, "int32")) {
			t.Errorf("2³¹ transactions: vbit estimate feasible=%v (%s)", e.Feasible, e.Note)
		}
	}
	assertJustified(t, "int32-tids", plan)
}
