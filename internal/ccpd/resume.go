package ccpd

import (
	"context"
	"fmt"
	"time"

	"repro/internal/apriori"
	"repro/internal/db"
	"repro/internal/itemset"
	"repro/internal/robust/ckpt"
)

// checkpoint writes the run's current state to Options.Checkpoint (a no-op
// when checkpointing is disabled). nextK is the iteration a resume starts
// at; done marks the natural fixpoint.
func (m *miner) checkpoint(nextK int, done bool) error {
	if m.opts.Checkpoint == "" {
		return nil
	}
	c := &ckpt.Checkpoint{
		MinCount:   m.minCount,
		DBLen:      int64(m.d.Len()),
		NumItems:   int64(m.d.NumItems()),
		TotalItems: m.d.TotalItems(),
		Procs:      m.opts.Procs,
		OptsHash:   m.opts.fingerprint(),
		NextK:      nextK,
		Done:       done,
		ByK:        m.res.ByK,
		Iters:      make([]ckpt.IterSnapshot, len(m.stats.PerIter)),
	}
	for i := range m.stats.PerIter {
		c.Iters[i] = snapshotOf(&m.stats.PerIter[i])
	}
	if err := c.WriteFile(m.opts.Checkpoint); err != nil {
		return fmt.Errorf("ccpd: checkpoint %q: %w", m.opts.Checkpoint, err)
	}
	m.ckpts++
	m.rec.SetGauge("armine_checkpoints_written_total", float64(m.ckpts))
	return nil
}

// snapshotOf extracts the deterministic work-model slice of a PhaseTiming —
// the part a resumed run must carry forward bit-identically. Wall-clock
// durations stay behind: a resumed run only clocks the work it performs.
func snapshotOf(pt *PhaseTiming) ckpt.IterSnapshot {
	return ckpt.IterSnapshot{
		K:             pt.K,
		Candidates:    pt.Candidates,
		Frequent:      pt.Frequent,
		GenSequential: pt.GenSequential,
		Batches:       pt.Batches,
		BuildWork:     pt.BuildWork,
		ReduceWork:    pt.ReduceWork,
		GenWork:       pt.GenWork,
		CountWork:     pt.CountWork,
		ChunksClaimed: pt.ChunksClaimed,
		Steals:        pt.Steals,
	}
}

// timingOf rebuilds the PhaseTiming of a checkpointed iteration (durations
// zero — the resumed process did not perform that work).
func timingOf(s *ckpt.IterSnapshot) PhaseTiming {
	return PhaseTiming{
		K:             s.K,
		Candidates:    s.Candidates,
		Frequent:      s.Frequent,
		GenSequential: s.GenSequential,
		Batches:       s.Batches,
		BuildWork:     s.BuildWork,
		ReduceWork:    s.ReduceWork,
		GenWork:       s.GenWork,
		CountWork:     s.CountWork,
		ChunksClaimed: s.ChunksClaimed,
		Steals:        s.Steals,
	}
}

// Resume continues a checkpointed CCPD run bit-identically: the frequent
// sets and work-model stats of the completed iterations come from the
// snapshot, and mining restarts at the recorded iteration against the same
// database. The offered options must match the checkpointed run (same
// support, tree shape, balance/partition modes, Procs — everything the
// options fingerprint covers) except MaxK, which may grow: resuming a
// MaxK-bounded run with a larger bound extends it. Resuming a run that
// reached its fixpoint returns the reconstructed result immediately.
//
// Cancellation and panic containment behave exactly as in MineCtx, and the
// resumed run keeps checkpointing to the same path when Options.Checkpoint
// is set.
func Resume(ctx context.Context, path string, d *db.Database, opts Options) (*apriori.Result, *Stats, error) {
	opts = opts.withDefaults()
	start := time.Now()
	c, err := ckpt.ReadCheckpointFile(path)
	if err != nil {
		return nil, nil, err
	}
	if err := validateCheckpoint(c, d, opts); err != nil {
		return nil, nil, err
	}

	m, cleanup := newMiner(d, opts)
	defer cleanup()
	m.res = &apriori.Result{MinCount: m.minCount, ByK: c.ByK}
	m.stats = &Stats{Procs: opts.Procs, PerIter: make([]PhaseTiming, len(c.Iters))}
	for i := range c.Iters {
		m.stats.PerIter[i] = timingOf(&c.Iters[i])
	}
	if c.Done {
		// The checkpointed run reached its fixpoint; nothing to mine.
		m.stats.Total = time.Since(start)
		return m.res, m.stats, nil
	}
	m.labels = apriori.LabelsFromF1(c.ByK[1], d.NumItems())

	last := c.ByK[len(c.ByK)-1]
	prev := make([]itemset.Itemset, len(last))
	for i, f := range last {
		prev[i] = f.Items
	}
	m.rebuildResidue(ctx, c)
	err = m.loop(ctx, c.NextK, prev)
	m.stats.Total = time.Since(start)
	return m.finish(err)
}

// validateCheckpoint refuses snapshots that do not belong to (d, opts): a
// resume against the wrong database or different mining options would not be
// a continuation of the original run.
func validateCheckpoint(c *ckpt.Checkpoint, d *db.Database, opts Options) error {
	minCount := opts.MinCount(d.Len())
	switch {
	case c.DBLen != int64(d.Len()) || c.NumItems != int64(d.NumItems()) || c.TotalItems != d.TotalItems():
		return fmt.Errorf("ccpd: resume: checkpoint is for a different database (len=%d items=%d total=%d, have len=%d items=%d total=%d)",
			c.DBLen, c.NumItems, c.TotalItems, d.Len(), d.NumItems(), d.TotalItems())
	case c.MinCount != minCount:
		return fmt.Errorf("ccpd: resume: checkpoint min count %d differs from options' %d", c.MinCount, minCount)
	case c.Procs != opts.Procs:
		return fmt.Errorf("ccpd: resume: checkpoint recorded Procs=%d, options have %d", c.Procs, opts.Procs)
	case c.OptsHash != opts.fingerprint():
		return fmt.Errorf("ccpd: resume: options fingerprint mismatch (checkpoint %#x, options %#x)", c.OptsHash, opts.fingerprint())
	case len(c.ByK) < 2:
		return fmt.Errorf("ccpd: resume: checkpoint has no iteration-1 result")
	case !c.Done && c.NextK != len(c.ByK):
		return fmt.Errorf("ccpd: resume: inconsistent checkpoint (nextK=%d with %d recorded levels)", c.NextK, len(c.ByK))
	}
	return nil
}
