package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunSingleTableAndFigure(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, 0.002, 0, 1, false, false, false, 20, "", "", 4, ""); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Table 1") {
		t.Errorf("missing Table 1:\n%s", buf.String())
	}
	buf.Reset()
	if err := run(&buf, 0.002, 4, 0, false, false, false, 20, "", "", 4, ""); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Figure 4") {
		t.Errorf("missing Figure 4:\n%s", buf.String())
	}
}

func TestRunErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, 0.002, 99, 0, false, false, false, 20, "", "", 4, ""); err == nil {
		t.Error("unknown figure should fail")
	}
	if err := run(&buf, 0.002, 0, 9, false, false, false, 20, "", "", 4, ""); err == nil {
		t.Error("unknown table should fail")
	}
}

// TestRunValidation pins the flag-range contract: out-of-range -scale,
// -procs and -maxtrace are usage errors (exit 2 from main), and in-range
// boundary values are accepted.
func TestRunValidation(t *testing.T) {
	var buf bytes.Buffer
	cases := []struct {
		name     string
		scale    float64
		maxTrace int
		procs    int
	}{
		{"scale zero", 0, 20, 4},
		{"scale negative", -0.5, 20, 4},
		{"scale above one", 1.5, 20, 4},
		{"procs zero", 0.002, 20, 0},
		{"procs negative", 0.002, 20, -2},
		{"maxtrace negative", 0.002, -1, 4},
	}
	for _, c := range cases {
		err := run(&buf, c.scale, 0, 1, false, false, false, c.maxTrace, "", "", c.procs, "")
		if err == nil {
			t.Errorf("%s: run should fail", c.name)
			continue
		}
		var ue *usageError
		if !errors.As(err, &ue) {
			t.Errorf("%s: error %v is not a usage error (would exit 1, want 2)", c.name, err)
		}
	}
	// Boundary values inside the range pass validation (table 1 is cheap).
	if err := run(&buf, 1, 0, 1, false, false, false, 0, "", "", 1, ""); err != nil {
		t.Errorf("boundary values rejected: %v", err)
	}
}

func TestRunQuickFigures(t *testing.T) {
	// Exercise a fast real figure end-to-end (7 mines all eight datasets at
	// the tiniest scale).
	var buf bytes.Buffer
	if err := run(&buf, 0.002, 7, 0, false, false, false, 10, "", "", 4, ""); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Figure 7") {
		t.Error("figure 7 output missing")
	}
}

func TestRunSchedBalance(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, 0.002, 0, 0, false, true, false, 20, "", "", 4, ""); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Scheduler balance") || !strings.Contains(out, "stealing") {
		t.Errorf("scheduler balance output missing:\n%s", out)
	}
}

// TestRunOutOfCore drives the segmented-mining study end to end at the
// tiniest scale: the three modes must agree and the table must carry both
// pipeline modes.
func TestRunOutOfCore(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, 0.002, 0, 0, false, false, true, 20, "", "", 4, ""); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Out-of-core mining", "ooc sync", "ooc double-buffered", "identical"} {
		if !strings.Contains(out, want) {
			t.Errorf("out-of-core output missing %q:\n%s", want, out)
		}
	}
}

// TestRunDensitySweep drives the ccpd-vs-vbit crossover study end to end at
// the tiniest scale: the table must cover both sides of the planner's
// default crossover density, and an unknown sweep name is a usage error.
func TestRunDensitySweep(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, 0.002, 0, 0, false, false, false, 20, "", "", 4, "density"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Density sweep", "planner default crossover", "vbit", "ccpd"} {
		if !strings.Contains(out, want) {
			t.Errorf("density sweep output missing %q:\n%s", want, out)
		}
	}

	if err := run(&buf, 0.002, 0, 0, false, false, false, 20, "", "", 4, "nope"); err == nil {
		t.Error("unknown -sweep should fail")
	} else {
		var ue *usageError
		if !errors.As(err, &ue) {
			t.Errorf("unknown -sweep error %v is not a usage error", err)
		}
	}
}

func TestRunSkewTrace(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "skew.json")
	metricsPath := filepath.Join(dir, "skew.txt")
	var buf bytes.Buffer
	if err := run(&buf, 0.002, 0, 0, false, false, false, 20, tracePath, metricsPath, 4, ""); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("-trace output invalid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Error("skew trace has no events")
	}
	metrics, err := os.ReadFile(metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(metrics), "armine_chunks_claimed_total") {
		t.Error("metrics snapshot missing chunk claim counters")
	}
}
