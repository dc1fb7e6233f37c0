package expt

import (
	"fmt"
	"io"

	"repro/internal/ccpd"
	"repro/internal/db"
	"repro/internal/gen"
)

// schedParts lists the counting-phase partition modes in comparison order.
var schedParts = []ccpd.DBPartition{ccpd.PartitionBlock, ccpd.PartitionWorkload, ccpd.PartitionStealing}

// SchedBalance compares the static database partitions of Section 3.2.2
// against the work-stealing chunk scheduler on a uniform database and on a
// skew-planted variant (a heavy tail of ~8× transactions, the static
// splits' worst case). Reported per mode and processor count: modelled
// parallel time, max-over-processors counting work, the summed idle work
// Σ_p(max−work_p), and chunk steals. All figures are deterministic work
// units, so the table reproduces bit-identically on any host.
func (r *Runner) SchedBalance(w io.Writer) error {
	t := &Table{
		Title:  "Scheduler balance: static vs work-stealing counting partitions (0.5% support)",
		Header: []string{"Database", "Procs", "Partition", "ModelTime", "MaxCount", "IdleWork", "Steals"},
	}
	base := PaperDatasets[1] // T10.I4.D100K
	skewed := base
	skewed.SkewFrac, skewed.SkewMult = 0.05, 8

	for _, p := range []gen.Params{base, skewed} {
		var d *db.Database
		var name string
		var err error
		if p.SkewFrac > 0 {
			// Params.Name ignores the skew knob, so the runner cache
			// would alias the uniform dataset; generate directly.
			d, err = gen.Generate(Scaled(p, r.Scale))
			name = p.Name() + "+skew"
		} else {
			d, name, err = r.Dataset(p)
		}
		if err != nil {
			return err
		}
		for _, procs := range r.Procs {
			if procs < 2 {
				continue // a single processor has nothing to balance
			}
			for _, part := range schedParts {
				opts := ccpdOpts(absSupport(d.Len(), SupportHigh), procs, true, true, true)
				opts.DBPart = part
				// A heavy transaction dominates a default-size chunk;
				// finer chunks keep the greedy schedule's imbalance
				// bound at one transaction's work.
				opts.ChunkSize = 16
				// Heavy tails make deep levels combinatorially dense.
				opts.MaxK = 4
				_, st, err := ccpd.Mine(d, opts)
				if err != nil {
					return err
				}
				var maxCount int64
				for i := range st.PerIter {
					maxCount += maxWork(st.PerIter[i].CountWork)
				}
				t.AddRow(name, fmt.Sprintf("%d", procs), part.String(),
					fmt.Sprintf("%d", st.ModelTime()),
					fmt.Sprintf("%d", maxCount),
					fmt.Sprintf("%d", st.CountIdleWork()),
					fmt.Sprintf("%d", st.TotalSteals()))
			}
		}
	}
	t.Fprint(w)
	return nil
}
