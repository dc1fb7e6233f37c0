package expt

import (
	"fmt"
	"io"

	"repro/internal/ccpd"
	"repro/internal/gen"
	"repro/internal/obs"
)

// TraceSkewed mines the skew-planted T10.I4.D100K variant (the SchedBalance
// worst case for static partitions) under the stealing scheduler with a
// recorder attached, and writes the resulting Chrome trace JSON to traceW
// and a Prometheus metrics snapshot to metricsW (either may be nil to skip).
// The run uses fine chunks so steals actually happen — the exported trace is
// the harness's canonical "watch work-stealing rebalance a skewed counting
// phase in Perfetto" artifact (see EXPERIMENTS.md).
func (r *Runner) TraceSkewed(traceW, metricsW io.Writer, procs int) error {
	if procs < 2 {
		procs = 4
	}
	p := PaperDatasets[1] // T10.I4.D100K
	p.SkewFrac, p.SkewMult = 0.05, 8
	d, err := gen.Generate(Scaled(p, r.Scale))
	if err != nil {
		return err
	}

	rec := r.Obs
	if rec == nil {
		rec = obs.NewRecorder(procs)
	}
	opts := ccpdOpts(absSupport(d.Len(), SupportHigh), procs, true, true, true)
	opts.DBPart = ccpd.PartitionStealing
	opts.ChunkSize = 16
	opts.MaxK = 4
	opts.Obs = rec
	if _, _, err := ccpd.Mine(d, opts); err != nil {
		return fmt.Errorf("expt: skewed trace run: %w", err)
	}

	if traceW != nil {
		if err := rec.WriteTrace(traceW); err != nil {
			return err
		}
	}
	if metricsW != nil {
		if err := rec.WriteMetrics(metricsW); err != nil {
			return err
		}
	}
	return nil
}
