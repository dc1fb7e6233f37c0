// Density sweep: the engine-selection study behind the cost-based planner.
// The paper's horizontal CCPD kernel and the vertical bitmap engine trade
// places as the database gets denser; this sweep holds the transaction shape
// fixed and shrinks the item universe so the density T/N walks across the
// planner's crossover, recording both engines' wall clock at every point.
package expt

import (
	"context"
	"fmt"
	"io"
	"time"

	"repro/internal/apriori"
	"repro/internal/engine"
	"repro/internal/gen"
)

// densityUniverses are the item-universe sizes the sweep walks through: at
// T=10 they span densities from 0.2 (every column a bitmap) down to ~0.003
// (every column a tidlist), bracketing engine.DefaultCrossoverDensity = 1/128.
var densityUniverses = []int{50, 100, 200, 400, 800, 1600, 3200}

// DensitySweep mines one database per universe size with both the
// horizontal CCPD engine and the vertical bitmap engine — dispatched through
// the unified Miner interface — printing density, per-engine wall clock
// (best of three), the engine the cost-based planner picks, and the engine
// that actually won, then reports the measured crossover next to the
// configured default. The two results are cross-checked for agreement at
// every point — the sweep doubles as an equivalence probe across the density
// range.
func (r *Runner) DensitySweep(w io.Writer) error {
	base := gen.Params{T: 10, I: 4, D: 100000}
	procs := r.Procs[len(r.Procs)-1]

	tab := &Table{
		Title: "Density sweep: ccpd vs vbit (cost-based planner study)",
		Header: []string{"N", "density", "F", "ccpd ms", "vbit ms",
			"vbit/ccpd", "planned", "winner"},
	}
	// measuredCross is the smallest density at which vbit still won; the
	// rows walk dense → sparse, so it tracks where the advantage runs out.
	measuredCross := -1.0
	for _, n := range densityUniverses {
		p := base
		p.N = n
		p.L = n / 2
		sp := Scaled(p, r.Scale)
		sp.Seed += int64(n) // distinct universe, distinct database
		d, err := gen.Generate(sp)
		if err != nil {
			return err
		}
		sup := absSupport(d.Len(), 0.01)
		spec := engine.Spec{
			Mining: apriori.Options{AbsSupport: sup, ShortCircuit: true},
			Procs:  procs,
		}

		walls := map[string]time.Duration{}
		results := map[string]*apriori.Result{}
		for try := 0; try < 3; try++ {
			for _, name := range []string{"ccpd", "vbit"} {
				m, ok := engine.Lookup(name)
				if !ok {
					return fmt.Errorf("engine %q not registered", name)
				}
				t0 := time.Now()
				res, _, err := m.MineCtx(context.Background(), d, spec)
				if err != nil {
					return fmt.Errorf("%s N=%d: %w", name, n, err)
				}
				if el := time.Since(t0); try == 0 || el < walls[name] {
					walls[name] = el
				}
				results[name] = res
			}
		}
		cres, vres := results["ccpd"], results["vbit"]
		if cres.NumFrequent() != vres.NumFrequent() {
			return fmt.Errorf("N=%d: engines disagree (%d vs %d frequent)",
				n, cres.NumFrequent(), vres.NumFrequent())
		}

		info := engine.Characterize(d)
		plan := engine.Planner{Procs: procs}.Plan(info)
		winner := "ccpd"
		if walls["vbit"] < walls["ccpd"] {
			winner = "vbit"
			if measuredCross < 0 || info.Density < measuredCross {
				measuredCross = info.Density
			}
		}
		tab.AddRow(
			fmt.Sprintf("%d", n),
			fmt.Sprintf("%.4f", info.Density),
			fmt.Sprintf("%d", cres.NumFrequent()),
			f2s(float64(walls["ccpd"].Microseconds())/1000),
			f2s(float64(walls["vbit"].Microseconds())/1000),
			f2s(float64(walls["vbit"])/float64(walls["ccpd"])),
			plan.Engine,
			winner,
		)
	}
	tab.Fprint(w)
	fmt.Fprintf(w, "\nplanner default crossover: density >= %.4f (1/128) -> vbit\n",
		engine.DefaultCrossoverDensity)
	if measuredCross >= 0 {
		fmt.Fprintf(w, "measured on this host: vbit still wins down to density %.4f\n", measuredCross)
	} else {
		fmt.Fprintf(w, "measured on this host: vbit never won (contended or tiny-scale run)\n")
	}
	return nil
}
