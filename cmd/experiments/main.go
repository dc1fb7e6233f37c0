// Command experiments regenerates the tables and figures of the paper's
// evaluation (Section 6) on scaled-down synthetic databases.
//
// Usage:
//
//	experiments -all                   # every table and figure
//	experiments -figure 8              # one figure
//	experiments -table 2 -scale 0.1    # bigger databases
//	experiments -trace skew.json       # Perfetto trace of a skewed stealing run
//	experiments -sweep density         # ccpd-vs-vbit engine crossover study
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/expt"
)

// usageError marks a command-line validation failure; main exits with
// status 2 for these (the conventional usage-error code), versus 1 for
// runtime failures.
type usageError struct{ msg string }

func (e *usageError) Error() string { return e.msg }

func main() {
	scale := flag.Float64("scale", 0.02, "database scale factor (1.0 = paper sizes)")
	figure := flag.Int("figure", 0, "regenerate one figure (4, 6, 7, 8, 9, 10, 11, 12, 13)")
	table := flag.Int("table", 0, "regenerate one table (1, 2)")
	all := flag.Bool("all", false, "regenerate everything")
	sched := flag.Bool("sched", false, "run the static-vs-stealing scheduler balance study")
	sweep := flag.String("sweep", "", "run a parameter sweep: density (ccpd-vs-vbit engine crossover)")
	outofcore := flag.Bool("outofcore", false, "run the out-of-core segmented-mining study (in-RAM vs sync vs double-buffered)")
	maxTrace := flag.Int("maxtrace", 200, "transactions traced per processor in placement studies")
	trace := flag.String("trace", "", "mine the skewed stealing workload and write a Chrome trace JSON here")
	metrics := flag.String("metrics", "", "with -trace: also write a Prometheus-text metrics snapshot here")
	procs := flag.Int("procs", 4, "processors for the -trace run")
	flag.Parse()

	if !*all && *figure == 0 && *table == 0 && !*sched && !*outofcore && *sweep == "" && *trace == "" && *metrics == "" {
		flag.Usage()
		os.Exit(2)
	}
	if err := run(os.Stdout, *scale, *figure, *table, *all, *sched, *outofcore, *maxTrace, *trace, *metrics, *procs, *sweep); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		var ue *usageError
		if errors.As(err, &ue) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

func run(w io.Writer, scale float64, figure, table int, all, sched, outofcore bool, maxTrace int, trace, metrics string, procs int, sweep string) error {
	switch {
	case scale <= 0 || scale > 1:
		return &usageError{msg: fmt.Sprintf("-scale must be a fraction in (0, 1], got %g", scale)}
	case procs <= 0:
		return &usageError{msg: fmt.Sprintf("-procs must be positive, got %d", procs)}
	case maxTrace < 0:
		return &usageError{msg: fmt.Sprintf("-maxtrace must be >= 0, got %d", maxTrace)}
	case sweep != "" && sweep != "density":
		return &usageError{msg: fmt.Sprintf("unknown -sweep %q (want density)", sweep)}
	}
	r := expt.NewRunner(scale)
	r.MaxTraceTx = maxTrace

	if trace != "" || metrics != "" {
		return writeSkewTrace(r, trace, metrics, procs)
	}
	if sweep == "density" {
		return r.DensitySweep(w)
	}

	type step struct {
		name string
		fn   func(io.Writer) error
	}
	steps := map[string]step{
		"t1":  {"Table 1", func(w io.Writer) error { return expt.Table1(w) }},
		"t2":  {"Table 2", r.Table2},
		"f4":  {"Figure 4", func(w io.Writer) error { return expt.Figure4(w) }},
		"f6":  {"Figure 6", r.Figure6},
		"f7":  {"Figure 7", r.Figure7},
		"f8":  {"Figure 8", r.Figure8},
		"f9":  {"Figure 9", r.Figure9},
		"f10": {"Figure 10", r.Figure10},
		"f11": {"Figure 11", r.Figure11},
		"f12": {"Figure 12", r.Figure12},
		"f13": {"Figure 13", r.Figure13},
		"sb":  {"Scheduler balance", r.SchedBalance},
		"ooc": {"Out-of-core mining", r.OutOfCore},
	}
	order := []string{"t1", "t2", "f4", "f6", "f7", "f8", "f9", "f10", "f11", "f12", "f13", "sb", "ooc"}

	var selected []string
	switch {
	case all:
		selected = order
	case sched:
		selected = []string{"sb"}
	case outofcore:
		selected = []string{"ooc"}
	case table != 0:
		key := fmt.Sprintf("t%d", table)
		if _, ok := steps[key]; !ok {
			return fmt.Errorf("unknown table %d", table)
		}
		selected = []string{key}
	case figure != 0:
		key := fmt.Sprintf("f%d", figure)
		if _, ok := steps[key]; !ok {
			return fmt.Errorf("unknown figure %d", figure)
		}
		selected = []string{key}
	}

	for i, key := range selected {
		if i > 0 {
			fmt.Fprintln(w)
		}
		if err := steps[key].fn(w); err != nil {
			return fmt.Errorf("%s: %w", steps[key].name, err)
		}
	}
	return nil
}

// writeSkewTrace runs the canonical skewed stealing workload and exports its
// timeline and/or metrics snapshot to the given paths.
func writeSkewTrace(r *expt.Runner, tracePath, metricsPath string, procs int) error {
	open := func(path string) (*os.File, error) {
		if path == "" {
			return nil, nil
		}
		return os.Create(path)
	}
	tf, err := open(tracePath)
	if err != nil {
		return err
	}
	mf, err := open(metricsPath)
	if err != nil {
		return err
	}
	var tw, mw io.Writer
	if tf != nil {
		defer tf.Close()
		tw = tf
	}
	if mf != nil {
		defer mf.Close()
		mw = mf
	}
	return r.TraceSkewed(tw, mw, procs)
}
