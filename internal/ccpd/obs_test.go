package ccpd

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/apriori"
	"repro/internal/hashtree"
	"repro/internal/obs"
)

// TestObsEquivalence is the observer-effect gate: mining with a recorder
// attached must yield bit-identical frequent sets and work models to mining
// without one, with the paper's counting and with Options.Project (whose
// later passes read the residue). The recorder may measure; it must not
// perturb.
func TestObsEquivalence(t *testing.T) {
	d := testDB(t)
	for _, c := range []struct {
		part    DBPartition
		project bool
	}{
		{PartitionBlock, false}, {PartitionWorkload, false}, {PartitionStealing, false},
		{PartitionBlock, true}, {PartitionWorkload, true}, {PartitionStealing, true},
	} {
		part := c.part
		base := Options{
			Options: apriori.Options{MinSupport: 0.01, ShortCircuit: true},
			Procs:   4, Counter: hashtree.CounterAtomic,
			Balance: BalanceBitonic, DBPart: part, ChunkSize: 16,
			Project: c.project,
		}
		plainRes, plainStats, err := Mine(d, base)
		if err != nil {
			t.Fatal(err)
		}
		obsOpts := base
		obsOpts.Obs = obs.NewRecorder(base.Procs)
		obsRes, obsStats, err := Mine(d, obsOpts)
		if err != nil {
			t.Fatal(err)
		}
		assertSameResult(t, part.String()+"/obs", obsRes, plainRes)
		if g, w := obsStats.ModelTime(), plainStats.ModelTime(); g != w {
			t.Errorf("%s: ModelTime with obs = %d, without = %d", part, g, w)
		}
		if len(obsStats.PerIter) != len(plainStats.PerIter) {
			t.Fatalf("%s: iteration counts differ", part)
		}
		for i := range plainStats.PerIter {
			g, w := obsStats.PerIter[i], plainStats.PerIter[i]
			if !reflect.DeepEqual(g.CountWork, w.CountWork) || !reflect.DeepEqual(g.GenWork, w.GenWork) {
				t.Errorf("%s k=%d: work vectors differ with obs attached", part, w.K)
			}
		}
		if obsOpts.Obs.NumEvents() == 0 {
			t.Errorf("%s: recorder attached but recorded nothing", part)
		}
	}
}

// TestObsConcurrentRecording exercises concurrent per-worker event recording
// under the stealing partition with shared counters — the densest recording
// pattern — so the race detector can vet the single-writer-per-track design.
func TestObsConcurrentRecording(t *testing.T) {
	d := testDB(t)
	rec := obs.NewRecorder(4)
	for run := 0; run < 3; run++ {
		rec.Reset()
		_, _, err := Mine(d, Options{
			Options: apriori.Options{MinSupport: 0.01, ShortCircuit: true},
			Procs:   4, Counter: hashtree.CounterAtomic,
			Balance: BalanceBitonic, DBPart: PartitionStealing, ChunkSize: 8,
			Obs: rec,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := rec.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if err := rec.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
}

// TestTraceMatchesStats cross-checks the two reporting paths: the per-track
// chunk spans in the exported trace must agree with the PhaseTiming
// ChunksClaimed/Steals counters and the metrics snapshot, per processor,
// with the paper's counting and with Options.Project, whose passes from k=4
// on claim chunks of the residue.
func TestTraceMatchesStats(t *testing.T) {
	for _, project := range []bool{false, true} {
		t.Run(fmt.Sprintf("project=%v", project), func(t *testing.T) { traceMatchesStats(t, project) })
	}
}

func traceMatchesStats(t *testing.T, project bool) {
	d := testDB(t)
	const procs = 4
	rec := obs.NewRecorder(procs)
	_, stats, err := Mine(d, Options{
		Options: apriori.Options{MinSupport: 0.01, ShortCircuit: true},
		Procs:   procs, Counter: hashtree.CounterAtomic,
		Balance: BalanceBitonic, DBPart: PartitionStealing, ChunkSize: 16,
		Obs: rec, Project: project,
	})
	if err != nil {
		t.Fatal(err)
	}

	wantClaimed := make([]int64, procs)
	wantSteals := make([]int64, procs)
	for _, it := range stats.PerIter {
		for p, c := range it.ChunksClaimed {
			wantClaimed[p] += c
		}
		for p, s := range it.Steals {
			wantSteals[p] += s
		}
	}

	snap := rec.Snapshot()
	var buf bytes.Buffer
	if err := rec.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Cat string `json:"cat"`
			Ph  string `json:"ph"`
			Tid int    `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace JSON invalid: %v", err)
	}
	gotChunks := make([]int64, procs)
	gotSteals := make([]int64, procs)
	for _, ev := range doc.TraceEvents {
		if ev.Cat == "chunk" && ev.Ph == "B" {
			gotChunks[ev.Tid]++
		}
		if ev.Cat == "steal" && ev.Ph == "f" {
			gotSteals[ev.Tid]++
		}
	}
	for p := 0; p < procs; p++ {
		if gotChunks[p] != wantClaimed[p] {
			t.Errorf("proc %d: %d chunk spans in trace, Stats says %d claimed", p, gotChunks[p], wantClaimed[p])
		}
		if gotSteals[p] != wantSteals[p] {
			t.Errorf("proc %d: %d steal flows in trace, Stats says %d steals", p, gotSteals[p], wantSteals[p])
		}
		if snap.Workers[p].Claimed != wantClaimed[p] {
			t.Errorf("proc %d: snapshot claims %d, Stats says %d", p, snap.Workers[p].Claimed, wantClaimed[p])
		}
	}
}

// TestSplitRangeBounds pins the int64 reduce fan-out math: ranges must tile
// [0, n) exactly even when n is at the top of the int32 range, where the
// former int32(p*n/procs) expression overflowed int before converting.
func TestSplitRangeBounds(t *testing.T) {
	for _, n := range []int{0, 1, 7, 1 << 20, math.MaxInt32 - 3, math.MaxInt32} {
		for _, procs := range []int{1, 2, 3, 7, 64} {
			prevHi := 0
			for p := 0; p < procs; p++ {
				lo, hi := splitRange(p, procs, n)
				if lo != prevHi {
					t.Fatalf("n=%d procs=%d p=%d: lo=%d, want %d (gap or overlap)", n, procs, p, lo, prevHi)
				}
				if hi < lo {
					t.Fatalf("n=%d procs=%d p=%d: hi=%d < lo=%d", n, procs, p, hi, lo)
				}
				// Reference computed fully in int64.
				wantLo := int(int64(p) * int64(n) / int64(procs))
				wantHi := int(int64(p+1) * int64(n) / int64(procs))
				if lo != wantLo || hi != wantHi {
					t.Fatalf("n=%d procs=%d p=%d: [%d,%d), want [%d,%d)", n, procs, p, lo, hi, wantLo, wantHi)
				}
				prevHi = hi
			}
			if prevHi != n {
				t.Fatalf("n=%d procs=%d: ranges end at %d, want %d", n, procs, prevHi, n)
			}
		}
	}
}
