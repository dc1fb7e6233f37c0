package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/db/seg"
	"repro/internal/gen"
)

func TestParseGenSpec(t *testing.T) {
	cases := []struct {
		in      string
		want    gen.Params
		wantErr bool
	}{
		{"T10.I4.D100K", gen.Params{T: 10, I: 4, D: 100000, Seed: 1}, false},
		{"T5.I2.D250", gen.Params{T: 5, I: 2, D: 250, Seed: 1}, false},
		{"T10.I6.D2M", gen.Params{T: 10, I: 6, D: 2000000, Seed: 1}, false},
		{"bogus", gen.Params{}, true},
		{"T10.I4", gen.Params{}, true},
		{"T10.I4.D100X", gen.Params{}, true},
	}
	for _, c := range cases {
		got, err := parseGenSpec(c.in)
		if c.wantErr {
			if err == nil {
				t.Errorf("parseGenSpec(%q) should fail", c.in)
			}
			continue
		}
		if err != nil {
			t.Errorf("parseGenSpec(%q): %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("parseGenSpec(%q) = %+v, want %+v", c.in, got, c.want)
		}
	}
}

// base returns the default option set the end-to-end cases tweak.
func base() cliOptions {
	return cliOptions{
		GenSpec: "T5.I2.D300", Support: 0.02, Algo: "ccpd", Procs: 2,
		Balance: "bitonic", Hash: "bitonic", Counter: "private",
		DBPart: "block", SC: true, Threshold: 8, ChunkSize: 256, TopN: 3,
	}
}

func TestRunEndToEnd(t *testing.T) {
	// Suppress the informational prints.
	old := os.Stdout
	devnull, _ := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	os.Stdout = devnull
	defer func() { os.Stdout = old; devnull.Close() }()

	for _, algo := range []string{"seq", "ccpd", "pccd", "dhp", "partition", "countdist", "sampling", "eclat", "vbit", "auto"} {
		o := base()
		o.Algo = algo
		o.RuleConf = 0.8
		o.Verbose = true
		if err := run(o); err != nil {
			t.Errorf("algo %s: %v", algo, err)
		}
	}
	// Dynamic counting partitions through the CLI surface.
	for _, dbpart := range []string{"workload", "stealing"} {
		o := base()
		o.DBPart = dbpart
		o.ChunkSize = 32
		o.Verbose = true
		if err := run(o); err != nil {
			t.Errorf("dbpart %s: %v", dbpart, err)
		}
	}
	{
		o := base()
		o.DBPart = "nope"
		if err := run(o); err == nil {
			t.Error("unknown -dbpart should fail")
		}
	}
	// Database file path.
	d, err := gen.Generate(gen.Params{T: 5, I: 2, D: 200, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "d.ardb")
	if err := d.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	{
		o := base()
		o.GenSpec = ""
		o.DBPath = path
		o.Algo = "seq"
		o.Procs = 1
		o.Hash = "interleaved"
		o.SC = false
		if err := run(o); err != nil {
			t.Error(err)
		}
	}
	// Error paths.
	{
		o := base()
		o.GenSpec = ""
		if err := run(o); err == nil {
			t.Error("missing -db/-gen should fail")
		}
	}
	{
		o := base()
		o.Algo = "nope"
		if err := run(o); err == nil {
			t.Error("unknown algo should fail")
		}
	}
	{
		o := base()
		o.GenSpec = ""
		o.DBPath = "/nonexistent/x.ardb"
		if err := run(o); err == nil {
			t.Error("missing file should fail")
		}
	}
}

// TestRunSegmentedStore drives the out-of-core path through the CLI surface:
// a segmented -db routes to the streaming miners (ccpd, vbit, auto), honors
// -mem-budget/-mmap, and rejects engines without an out-of-core path.
func TestRunSegmentedStore(t *testing.T) {
	old := os.Stdout
	devnull, _ := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	os.Stdout = devnull
	defer func() { os.Stdout = old; devnull.Close() }()

	d, err := gen.Generate(gen.Params{T: 5, I: 2, D: 400, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "d.arseg")
	if err := seg.WriteDatabase(path, d, seg.WriterOptions{SegTx: 150}); err != nil {
		t.Fatal(err)
	}
	for _, algo := range []string{"ccpd", "vbit", "auto"} {
		o := base()
		o.GenSpec = ""
		o.DBPath = path
		o.Algo = algo
		o.MemBudget = "64K"
		o.RuleConf = 0.8
		if err := run(o); err != nil {
			t.Errorf("segmented algo %s: %v", algo, err)
		}
	}
	{
		o := base()
		o.GenSpec = ""
		o.DBPath = path
		o.MMap = true
		o.DBPart = "stealing"
		o.ChunkSize = 32
		if err := run(o); err != nil {
			// mmap may be unavailable on some platforms; only real mining
			// failures count.
			if !strings.Contains(err.Error(), "unsupported") {
				t.Errorf("segmented mmap: %v", err)
			}
		}
	}
	{
		o := base()
		o.GenSpec = ""
		o.DBPath = path
		o.Algo = "seq"
		if err := run(o); err == nil || !strings.Contains(err.Error(), "segmented") {
			t.Errorf("segmented seq: err = %v, want engine rejection", err)
		}
	}
	// An engine without an out-of-core path, and ccpd's workload
	// partition, are usage errors on a segmented store (exit 2), not mining
	// failures.
	for _, c := range []struct{ algo, dbpart, want string }{
		{"pccd", "block", "no out-of-core path"},
		{"ccpd", "workload", "workload needs"},
	} {
		o := base()
		o.GenSpec = ""
		o.DBPath = path
		o.Algo = c.algo
		o.DBPart = c.dbpart
		var ue *usageError
		if err := run(o); !errors.As(err, &ue) || !strings.Contains(err.Error(), c.want) {
			t.Errorf("segmented -algo %s -dbpart %s: err = %v, want usage error", c.algo, c.dbpart, err)
		}
	}
	{
		// vbit keeps a store's columns resident: a budget below their
		// projection is a usage error, which -algo auto routes to ccpd.
		o := base()
		o.GenSpec = ""
		o.DBPath = path
		o.Algo = "vbit"
		o.MemBudget = "8K"
		var ue *usageError
		if err := run(o); !errors.As(err, &ue) || !strings.Contains(err.Error(), "memory budget") {
			t.Errorf("segmented vbit -mem-budget 8K: err = %v, want usage error", err)
		}
		o.Algo = "auto"
		if err := run(o); err != nil {
			t.Errorf("segmented auto -mem-budget 8K: %v", err)
		}
	}
	{
		o := base() // vbit ignores -dbpart
		o.GenSpec = ""
		o.DBPath = path
		o.Algo = "vbit"
		o.DBPart = "workload"
		if err := run(o); err != nil {
			t.Errorf("segmented vbit -dbpart workload: %v", err)
		}
	}
	{
		o := base()
		o.GenSpec = ""
		o.DBPath = path
		o.MemBudget = "banana"
		if err := run(o); err == nil || !strings.Contains(err.Error(), "mem-budget") {
			t.Errorf("bad budget: err = %v, want usage error", err)
		}
	}
	{
		o := base() // -gen with -mem-budget: not a segmented store
		o.MemBudget = "64K"
		if err := run(o); err == nil {
			t.Error("-mem-budget without a segmented -db should fail")
		}
	}
	// -checkpoint and -resume are usage errors on a segmented store, caught
	// before anything is mined: the resume case once handed ccpd a nil
	// database and crashed, even with a valid checkpoint of the same data.
	ckptPath := filepath.Join(t.TempDir(), "d.ckpt")
	{
		o := base()
		o.GenSpec = ""
		o.DBPath = filepath.Join(t.TempDir(), "d.ardb")
		if err := d.WriteFile(o.DBPath); err != nil {
			t.Fatal(err)
		}
		o.Checkpoint = ckptPath
		o.MaxK = 2
		if err := run(o); err != nil {
			t.Fatalf("in-RAM checkpointed run: %v", err)
		}
	}
	for _, resume := range []bool{false, true} {
		o := base()
		o.GenSpec = ""
		o.DBPath = path
		o.Checkpoint = ckptPath
		o.Resume = resume
		var ue *usageError
		if err := run(o); !errors.As(err, &ue) || !strings.Contains(err.Error(), "checkpoint") {
			t.Errorf("segmented -checkpoint (resume %v): err = %v, want usage error", resume, err)
		}
	}
}

// TestRunStoreBanner pins the segmented store's banner: the largest segment
// in bytes, the unit of the vbit budget refusal, which a small store's
// segments read in MB as 0.0.
func TestRunStoreBanner(t *testing.T) {
	d, err := gen.Generate(gen.Params{T: 5, I: 2, D: 400, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "d.arseg")
	if err := seg.WriteDatabase(path, d, seg.WriterOptions{SegTx: 150}); err != nil {
		t.Fatal(err)
	}
	r, err := seg.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	maxSeg := r.MaxSegmentBytes()
	r.Close()

	out, err := os.Create(filepath.Join(dir, "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	old := os.Stdout
	os.Stdout = out
	o := base()
	o.GenSpec = ""
	o.DBPath = path
	runErr := run(o)
	os.Stdout = old
	out.Close()
	if runErr != nil {
		t.Fatal(runErr)
	}
	got, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("segmented store: 400 transactions, 3 segments, max segment %d B\n", maxSeg)
	if !strings.HasPrefix(string(got), want) {
		t.Errorf("stdout begins %q, want %q", strings.SplitAfter(string(got), "\n")[0], want)
	}
}

// TestRunVBitStatsLine pins vbit's -v stats line, class balance included:
// the largest class's share of the class work and the modelled speedup
// totalwork/modeltime, which ROADMAP quotes.
func TestRunVBitStatsLine(t *testing.T) {
	out, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	old := os.Stdout
	os.Stdout = out
	o := base()
	o.GenSpec = "T10.I4.D1000"
	o.Support = 0.01
	o.Algo = "vbit"
	o.Verbose = true
	runErr := run(o)
	os.Stdout = old
	out.Close()
	if runErr != nil {
		t.Fatal(runErr)
	}
	got, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	const want = "  classes=469 columns=176 bitmap/293 tidlist modeltime=33939 totalwork=57197 largestclass=14.9% speedup=1.69x (modelled)\n"
	if !strings.Contains(string(got), want) {
		t.Errorf("stdout lacks the pinned vbit line %q:\n%s", want, got)
	}
}

// TestRunAutoKeepsExplicitPartition runs -algo auto on the planner's
// sparse-skewed golden shape, which plans ccpd with work stealing: an
// explicit -dbpart or -chunk wins over the plan even at its default value,
// and the planner line prints the partition and chunk the run uses.
func TestRunAutoKeepsExplicitPartition(t *testing.T) {
	d, err := gen.Generate(gen.Params{N: 3200, L: 1600, T: 10, I: 4, D: 2000, Seed: 1, SkewFrac: 0.05, SkewMult: 8})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "skewed.ardb")
	if err := d.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		tweak  func(o *cliOptions)
		plan   string // on the planner line
		steals bool   // whether the run steals (-v prints its chunks= lines)
	}{
		{"planned", func(o *cliOptions) {}, "dbpart=stealing chunk=62 ", true},
		{"dbpart block", func(o *cliOptions) { o.Set["dbpart"] = true }, "dbpart=block chunk=62 ", false},
		{"dbpart workload", func(o *cliOptions) { o.DBPart = "workload"; o.Set["dbpart"] = true }, "dbpart=workload chunk=62 ", false},
		{"chunk 256", func(o *cliOptions) { o.Set["chunk"] = true }, "dbpart=stealing chunk=256 ", true},
	}
	for _, c := range cases {
		o := base()
		o.GenSpec, o.DBPath = "", path
		o.Algo, o.Support, o.Verbose = "auto", 0.005, true
		o.Set = map[string]bool{}
		c.tweak(&o)
		out, err := os.Create(filepath.Join(dir, "stdout"))
		if err != nil {
			t.Fatal(err)
		}
		old := os.Stdout
		os.Stdout = out
		runErr := run(o)
		os.Stdout = old
		out.Close()
		if runErr != nil {
			t.Fatalf("%s: %v", c.name, runErr)
		}
		got, err := os.ReadFile(out.Name())
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(got), "-> engine=ccpd "+c.plan) {
			t.Errorf("%s: planner line lacks %q:\n%s", c.name, c.plan, got)
		}
		if steals := strings.Contains(string(got), "chunks="); steals != c.steals {
			t.Errorf("%s: run claims chunks %v, want %v:\n%s", c.name, steals, c.steals, got)
		}
	}
}

// TestParseByteSize pins the K/M/G suffix parser.
func TestParseByteSize(t *testing.T) {
	good := map[string]int64{
		"512":  512,
		"64K":  64 << 10,
		"512m": 512 << 20,
		"2G":   2 << 30,
	}
	for in, want := range good {
		got, err := parseByteSize(in)
		if err != nil || got != want {
			t.Errorf("parseByteSize(%q) = %d, %v; want %d", in, got, err, want)
		}
	}
	for _, in := range []string{"", "K", "-5M", "0", "1.5G", "banana"} {
		if _, err := parseByteSize(in); err == nil {
			t.Errorf("parseByteSize(%q) should fail", in)
		}
	}
}

// TestValidateFlags pins the CLI validation contract: out-of-range flag
// values and unknown mode names (a misspelled -counter, -balance, -hash or
// -dbpart, including the retired "dynamic" partition) are rejected up front
// as usage errors (exit code 2 from main), never run with a silent default,
// and the boundary values and every documented mode name are accepted.
func TestValidateFlags(t *testing.T) {
	old := os.Stdout
	devnull, _ := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	os.Stdout = devnull
	defer func() { os.Stdout = old; devnull.Close() }()

	cases := []struct {
		name  string
		tweak func(o *cliOptions)
	}{
		{"support zero", func(o *cliOptions) { o.Support = 0 }},
		{"support negative", func(o *cliOptions) { o.Support = -0.1 }},
		{"support above one", func(o *cliOptions) { o.Support = 1.5 }},
		{"procs zero", func(o *cliOptions) { o.Procs = 0 }},
		{"procs negative", func(o *cliOptions) { o.Procs = -3 }},
		{"chunk zero", func(o *cliOptions) { o.ChunkSize = 0 }},
		{"chunk negative", func(o *cliOptions) { o.ChunkSize = -1 }},
		{"maxk negative", func(o *cliOptions) { o.MaxK = -1 }},
		{"max-candidates negative", func(o *cliOptions) { o.MaxCands = -1 }},
		{"threshold zero", func(o *cliOptions) { o.Threshold = 0 }},
		{"rules negative", func(o *cliOptions) { o.RuleConf = -1 }},
		{"rules above one", func(o *cliOptions) { o.RuleConf = 1.5 }},
		{"rules NaN", func(o *cliOptions) { o.RuleConf = math.NaN() }},
		{"resume without checkpoint", func(o *cliOptions) { o.Resume = true }},
		{"checkpoint with seq", func(o *cliOptions) { o.Checkpoint = "x.ckpt"; o.Algo = "seq" }},
		{"counter misspelled", func(o *cliOptions) { o.Counter = "privat" }},
		{"balance misspelled", func(o *cliOptions) { o.Balance = "bitonicc" }},
		{"hash unknown", func(o *cliOptions) { o.Hash = "foo" }},
		{"dbpart unknown", func(o *cliOptions) { o.DBPart = "foo" }},
		{"dbpart dynamic", func(o *cliOptions) { o.DBPart = "dynamic" }},
	}
	for _, c := range cases {
		o := base()
		c.tweak(&o)
		err := run(o)
		if err == nil {
			t.Errorf("%s: run should fail", c.name)
			continue
		}
		var ue *usageError
		if !errors.As(err, &ue) {
			t.Errorf("%s: error %v is not a usage error (would exit 1, want 2)", c.name, err)
		}
	}

	// Boundary values inside the range must pass validation.
	for _, c := range []struct {
		name  string
		tweak func(o *cliOptions)
	}{
		{"support one", func(o *cliOptions) { o.Support = 1 }},
		{"procs one", func(o *cliOptions) { o.Procs = 1 }},
		{"chunk one", func(o *cliOptions) { o.ChunkSize = 1 }},
		{"rules one", func(o *cliOptions) { o.RuleConf = 1 }},
		{"counter locked", func(o *cliOptions) { o.Counter = "locked" }},
		{"counter atomic", func(o *cliOptions) { o.Counter = "atomic" }},
		{"balance block", func(o *cliOptions) { o.Balance = "block" }},
		{"balance interleaved", func(o *cliOptions) { o.Balance = "interleaved" }},
		{"hash interleaved", func(o *cliOptions) { o.Hash = "interleaved" }},
		{"dbpart workload", func(o *cliOptions) { o.DBPart = "workload" }},
		{"dbpart stealing", func(o *cliOptions) { o.DBPart = "stealing" }},
	} {
		o := base()
		c.tweak(&o)
		if err := run(o); err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
	}
}

// TestRunCheckpointResume drives the kill-and-resume recipe through the CLI
// surface: a -maxk-bounded run leaves a checkpoint, and -resume with the
// bound lifted completes the mine with the same frequent-set counts as a
// straight-through run.
func TestRunCheckpointResume(t *testing.T) {
	old := os.Stdout
	devnull, _ := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	os.Stdout = devnull
	defer func() { os.Stdout = old; devnull.Close() }()

	ckpt := filepath.Join(t.TempDir(), "run.ckpt")
	o := base()
	o.Checkpoint = ckpt
	o.MaxK = 2
	if err := run(o); err != nil {
		t.Fatalf("bounded run: %v", err)
	}
	if _, err := os.Stat(ckpt); err != nil {
		t.Fatalf("checkpoint not written: %v", err)
	}
	o.MaxK = 0
	o.Resume = true
	if err := run(o); err != nil {
		t.Fatalf("resume: %v", err)
	}
}

func TestRunTraceAndMetrics(t *testing.T) {
	old := os.Stdout
	devnull, _ := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	os.Stdout = devnull
	defer func() { os.Stdout = old; devnull.Close() }()

	dir := t.TempDir()
	tracePath := filepath.Join(dir, "trace.json")
	metricsPath := filepath.Join(dir, "metrics.txt")
	o := base()
	o.GenSpec = "T5.I2.D500"
	o.Procs = 4
	o.DBPart = "stealing"
	o.Counter = "atomic"
	o.ChunkSize = 16
	o.TracePath = tracePath
	o.MetricsTo = metricsPath
	if err := run(o); err != nil {
		t.Fatal(err)
	}

	raw, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph  string `json:"ph"`
			Tid int    `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("-trace output is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("-trace output has no events")
	}

	metrics, err := os.ReadFile(metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"armine_chunks_claimed_total", "armine_frequent{k="} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("-metrics output missing %q", want)
		}
	}

	// Tracing a non-parallel algorithm is a usage error.
	o = base()
	o.Algo = "seq"
	o.TracePath = tracePath
	if err := run(o); err == nil {
		t.Error("-trace with -algo seq should fail")
	}
}

// TestRunTraceVBit drives the observability surface through the vertical
// engine: -algo vbit must produce a valid trace with events and a metrics
// snapshot through the unchanged obs plumbing.
func TestRunTraceVBit(t *testing.T) {
	old := os.Stdout
	devnull, _ := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	os.Stdout = devnull
	defer func() { os.Stdout = old; devnull.Close() }()

	dir := t.TempDir()
	tracePath := filepath.Join(dir, "trace.json")
	metricsPath := filepath.Join(dir, "metrics.txt")
	o := base()
	o.Algo = "vbit"
	o.GenSpec = "T5.I2.D500"
	o.Procs = 4
	o.TracePath = tracePath
	o.MetricsTo = metricsPath
	o.Verbose = true
	if err := run(o); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("-trace output is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("-trace output has no events")
	}
	metrics, err := os.ReadFile(metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(metrics), "armine_frequent{k=") {
		t.Error("-metrics output missing armine_frequent series")
	}
	// -algo auto resolves to a parallel engine, so tracing it is legal.
	o = base()
	o.Algo = "auto"
	o.TracePath = filepath.Join(dir, "trace2.json")
	if err := run(o); err != nil {
		t.Fatal(err)
	}
}
