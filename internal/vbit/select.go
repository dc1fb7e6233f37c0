package vbit

import "repro/internal/db"

// DBStats are the database statistics engine.Planner decides on — the
// same shape internal/gen parameterizes its synthetic workloads with:
// transaction count D, item universe N, mean transaction length T, and the
// density T/N (the probability a random item appears in a random row).
type DBStats struct {
	Transactions int
	NumItems     int
	AvgLen       float64
	Density      float64
}

// Characterize computes the planner's statistics in O(1) from the
// database's stored aggregates (no scan).
func Characterize(d *db.Database) DBStats {
	s := DBStats{
		Transactions: d.Len(),
		NumItems:     d.NumItems(),
		AvgLen:       d.AvgLen(),
	}
	if s.NumItems > 0 {
		s.Density = s.AvgLen / float64(s.NumItems)
	}
	return s
}

// DefaultCrossoverDensity is the density at which the vertical engine
// starts beating the horizontal hash-tree engine, and the -algo auto
// default. It comes from the two cost models: a vertical pair probe costs
// about D/64 word ops when columns are bitmaps, or ~2·density·D tid ops as
// tidlists, while the hash tree pays per transaction-row regardless of the
// probed pair's density — its per-pair share only amortizes when rows are
// long. Below about one occurrence per 128 universe items the vertical
// columns are so sparse that even the tidlist path degenerates to pointer
// chasing over near-empty lists while the hash tree still streams the
// whole database once per iteration, and the hash tree wins; above it the
// vertical engine's popcount kernels win and keep winning (the dense
// BENCH_counting rows). The density-sweep experiment (cmd/experiments
// -sweep density) reproduces this crossover from the deterministic work
// models; adjust the constant if the sweep moves.
const DefaultCrossoverDensity = 1.0 / 128
