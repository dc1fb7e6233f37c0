package ccpd

import (
	"context"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/apriori"
	"repro/internal/gen"
	"repro/internal/robust"
	"repro/internal/robust/ckpt"
	"repro/internal/robust/faultinj"
)

// TestPairPassFitsTransactionBound: a triangle cell counts each transaction
// at most once in an int32, so a source past 2³¹−1 transactions (only a
// segmented store can be one) keeps the hash tree at k=2.
func TestPairPassFitsTransactionBound(t *testing.T) {
	m := &miner{opts: Options{Procs: 2, Project: true}.withDefaults(), numTx: math.MaxInt32}
	if !m.pairPassFits(100) {
		t.Fatal("2³¹−1 transactions: pair pass refused")
	}
	m.numTx++
	if m.pairPassFits(100) {
		t.Error("2³¹ transactions: pair pass chosen, its int32 cells could overflow")
	}
}

// TestPairPassMatchesHashTree: under Options.Project, iteration 2 through
// the pair pass and every projected hash-tree iteration give results deeply
// equal to the paper's counting in every partition mode, processor count
// and MaxK. The pass steps aside for the projected hash tree when the
// triangles would not fit the byte ceiling or the candidates would not fit
// MaxCandidatesInMemory, and a budget that fits C(|F1|,2) but not C3 keeps
// the pair pass and batches the projected k ≥ 3 trees.
func TestPairPassMatchesHashTree(t *testing.T) {
	d := testDB(t)
	for _, part := range []DBPartition{PartitionBlock, PartitionWorkload, PartitionStealing} {
		for _, procs := range []int{1, 2, 4} {
			for _, maxK := range []int{0, 2, 3} {
				opts := robustOpts()
				opts.DBPart, opts.Procs, opts.MaxK = part, procs, maxK
				want, wantSt, err := Mine(d, opts)
				if err != nil {
					t.Fatal(err)
				}
				opts.Project = true
				got, gotSt, err := Mine(d, opts)
				if err != nil {
					t.Fatal(err)
				}
				label := part.String()
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s P=%d MaxK=%d: pair pass result differs from the hash tree", label, procs, maxK)
				}
				it, ref := gotSt.PerIter[1], wantSt.PerIter[1]
				if !it.Paired() || ref.Paired() {
					t.Errorf("%s P=%d: Paired = %v with the pass, %v without", label, procs, it.Paired(), ref.Paired())
				}
				if it.Candidates != ref.Candidates || it.Frequent != ref.Frequent {
					t.Errorf("%s P=%d: k=2 cands/freq %d/%d, hash tree %d/%d",
						label, procs, it.Candidates, it.Frequent, ref.Candidates, ref.Frequent)
				}
			}
		}
	}

	// A candidate budget below C(|F1|,2) keeps the batched hash tree at
	// k=2; one above it runs the pair pass. Either way k=3 is batched.
	for _, budget := range []int{500, 1000} {
		opts := robustOpts()
		opts.MaxCandidatesInMemory = budget
		want, _, err := Mine(d, opts)
		if err != nil {
			t.Fatal(err)
		}
		opts.Project = true
		got, st, err := Mine(d, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("budget %d: result differs", budget)
		}
		it2, it3 := st.PerIter[1], st.PerIter[2]
		if paired := it2.Candidates <= budget; it2.Paired() != paired || (!paired && it2.Batches < 2) {
			t.Errorf("budget %d with C(n,2)=%d: Paired=%v Batches=%d", budget, it2.Candidates, it2.Paired(), it2.Batches)
		}
		if it3.Batches < 2 {
			t.Errorf("budget %d with %d candidates at k=3: Batches=%d, want batched", budget, it3.Candidates, it3.Batches)
		}
	}

	// Procs triangles one byte over the ceiling keep the (projected) hash
	// tree at k=2; at the ceiling the pass runs.
	opts := robustOpts()
	opts.Procs = 2
	want, wantSt, err := Mine(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	triangles := int64(opts.Procs) * int64(wantSt.PerIter[1].Candidates) * 4
	opts.Project = true
	for _, maxBytes := range []int64{triangles - 1, triangles} {
		opts.pairMaxBytes = maxBytes
		got, st, err := Mine(d, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("ceiling %d: result differs", maxBytes)
		}
		if paired := st.PerIter[1].Paired(); paired != (maxBytes == triangles) {
			t.Errorf("ceiling %d for %d bytes of triangles: Paired=%v", maxBytes, triangles, paired)
		}
	}
}

// TestPairPassCancel cancels from inside the pair pass and from inside a
// projected hash-tree count at k=3: the run returns the levels completed
// before the cancelled phase, identical to a straight run's, with a
// CanceledError naming that phase.
func TestPairPassCancel(t *testing.T) {
	d := testDB(t)
	want, _, err := Mine(d, robustOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, at := range []struct {
		phase string
		k     int
	}{{"pairs", 2}, {"count", 3}} {
		for _, part := range []DBPartition{PartitionBlock, PartitionStealing} {
			label := fmt.Sprintf("%s %s/%d", part, at.phase, at.k)
			ctx, cancel := context.WithCancel(context.Background())
			opts := robustOpts()
			opts.DBPart, opts.Project = part, true
			opts.FaultInj = faultinj.New(faultinj.Rule{
				Phase: at.phase, K: at.k, Worker: faultinj.Wildcard, Chunk: faultinj.Wildcard,
				Action: faultinj.Call, Do: cancel, Once: true,
			})
			res, _, err := MineCtx(ctx, d, opts)
			cancel()
			var ce *robust.CanceledError
			if !errors.As(err, &ce) || ce.Phase != at.phase || ce.K != at.k {
				t.Fatalf("%s: MineCtx = %v, want CanceledError at %s/%d", label, err, at.phase, at.k)
			}
			if res == nil || len(res.ByK) != at.k {
				t.Fatalf("%s: partial result %v, want levels below %d", label, res, at.k)
			}
			assertIdenticalByK(t, label, res.ByK, want.ByK[:at.k])
		}
	}
}

// Options fingerprints of robustOpts().withDefaults() from before residue
// passes cut their own stealing chunks: off; on, when the option was
// pair-pass-only; on, when projected counting read the whole source every
// pass; and on, when residue passes kept the source's chunk grid.
const (
	goldenFingerprintOff        = 0xdfa054ad796b4a1c
	goldenFingerprintPaired     = 0xfe9b1bb6845a943d
	goldenFingerprintFullScans  = 0x1d95e2bf8f49de5e
	goldenFingerprintWideChunks = 0x3c90a9c89a39287f
)

// TestPairPassResume: Project is part of the options fingerprint, and a
// checkpointed run resumed before k=2, between k=2 and the projected k=3,
// or after any later iteration reproduces the straight run bit for bit,
// work model included: a run stopped at k ≥ 3 rebuilds the residue its
// first pass reads. The fingerprint with the option off is unchanged, so
// paper-configuration checkpoints still resume; a checkpoint written under
// the pair-pass-only option (k ≥ 3 work unprojected), under projected
// full scans (k ≥ 4 work over the whole source) or with residue passes on
// the source's chunk grid (a different stealing work model) is refused.
func TestPairPassResume(t *testing.T) {
	off := robustOpts().withDefaults()
	on := off
	on.Project = true
	if got := off.fingerprint(); got != goldenFingerprintOff {
		t.Errorf("fingerprint with Project off = %#x, want %#x (paper-configuration checkpoints would stop resuming)", got, uint64(goldenFingerprintOff))
	}
	if got := on.fingerprint(); got == goldenFingerprintPaired || got == goldenFingerprintOff ||
		got == goldenFingerprintFullScans || got == goldenFingerprintWideChunks {
		t.Errorf("fingerprint with Project on = %#x collides with an earlier fingerprint", got)
	}

	d := testDB(t)
	for _, stopAt := range []int{1, 2, 3, 4, 5, 6} {
		opts := robustOpts()
		opts.DBPart, opts.Project = PartitionStealing, true
		want, wantSt, err := Mine(d, opts)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "run.ckpt")
		bounded := opts
		bounded.Checkpoint, bounded.MaxK = path, stopAt
		if _, _, err := Mine(d, bounded); err != nil {
			t.Fatal(err)
		}
		resumed := bounded
		resumed.MaxK = 0
		got, st, err := Resume(context.Background(), path, d, resumed)
		if err != nil {
			t.Fatalf("stop at k=%d: resume: %v", stopAt, err)
		}
		assertIdenticalByK(t, "resume", got.ByK, want.ByK)
		if st.ModelTime() != wantSt.ModelTime() || !st.PerIter[1].Paired() {
			t.Errorf("stop at k=%d: ModelTime %d (paired %v), straight %d",
				stopAt, st.ModelTime(), st.PerIter[1].Paired(), wantSt.ModelTime())
		}
		for i := stopAt; i < len(wantSt.PerIter); i++ {
			g, w := st.PerIter[i], wantSt.PerIter[i]
			if g.ModelTime(opts.Procs) != w.ModelTime(opts.Procs) || g.Rows != w.Rows {
				t.Errorf("stop at k=%d: resumed k=%d ModelTime %d over %d rows, straight %d over %d",
					stopAt, w.K, g.ModelTime(opts.Procs), g.Rows, w.ModelTime(opts.Procs), w.Rows)
			}
		}
		resumed.Project = false
		if _, _, err := Resume(context.Background(), path, d, resumed); err == nil {
			t.Errorf("stop at k=%d: resume without Project accepted a projected checkpoint", stopAt)
		}
	}

	// A checkpoint stamped with an earlier fingerprint under the option is
	// refused.
	for _, old := range []uint64{goldenFingerprintPaired, goldenFingerprintFullScans, goldenFingerprintWideChunks} {
		opts := robustOpts()
		opts.Checkpoint, opts.MaxK = filepath.Join(t.TempDir(), "old.ckpt"), 2
		if _, _, err := Mine(d, opts); err != nil {
			t.Fatal(err)
		}
		c, err := ckpt.ReadCheckpointFile(opts.Checkpoint)
		if err != nil {
			t.Fatal(err)
		}
		c.OptsHash = old
		if err := c.WriteFile(opts.Checkpoint); err != nil {
			t.Fatal(err)
		}
		opts.MaxK, opts.Project = 0, true
		if _, _, err := Resume(context.Background(), opts.Checkpoint, d, opts); err == nil || !strings.Contains(err.Error(), "fingerprint") {
			t.Errorf("resume under Project of a checkpoint stamped %#x = %v, want a fingerprint mismatch", old, err)
		}
	}
}

// TestModelTimePinnedProject pins the work model with Options.Project on,
// on TestModelTimePinned's dataset (whose own pins stay with the option
// off), as ModelTime per iteration k=1..8 and in total. k=1 and k=2 keep
// their figures from before projected counting: k=2 is the pair pass, whose
// CountWork is in item scans and triangle increments, with no generation or
// build work and one ReduceWork unit per triangle cell. From k=3 on every
// hash-tree walk is projected: it charges one WorkItemScan per item of each
// transaction of at least k items and walks only the candidate items. The
// pair-pass-only option gave 4,653,087 at P=1 (block: 2,150,522 at k=3,
// 1,381,117 at k=4). From k=4 on each pass reads the residue the previous
// one kept, whose partitions and stealing chunks cover its rows only. The
// full scans before it gave 1,033,990 at P=1 (k=4..7: 128,325, 30,743,
// 21,681, 18,332) and 519,337, 517,707 and 521,547 at P=4 (block,
// workload, stealing). On the source's 256-row grid, stealing's P=4 k=4
// and k=5 rose (35,654 → 38,481, 8,726 → 12,262): a residue of a few
// hundred rows filled only one or two chunks, so one processor counted
// most of the pass. A residue pass now cuts its grid with sched.ChunkFor,
// which took k=4..6 from 38,481, 12,262 and 2,809 to 29,309, 3,445 and
// 1,162, and the total from 520,492 to 500,856.
func TestModelTimePinnedProject(t *testing.T) {
	d, err := gen.Generate(gen.Params{T: 10, I: 4, D: 2000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	type pin struct {
		total int64
		iters []int64
	}
	want := map[DBPartition]map[int]pin{
		PartitionBlock: {
			1: {963746, []int64{20873, 442243, 371793, 113010, 12654, 2911, 262, 0}},
			4: {498277, []int64{6122, 359862, 98121, 29589, 3673, 829, 81, 0}},
		},
		PartitionWorkload: {
			1: {963746, []int64{20873, 442243, 371793, 113010, 12654, 2911, 262, 0}},
			4: {498537, []int64{5972, 358811, 98583, 30322, 3611, 1157, 81, 0}},
		},
		PartitionStealing: {
			1: {963746, []int64{20873, 442243, 371793, 113010, 12654, 2911, 262, 0}},
			4: {500856, []int64{6115, 360122, 100446, 29309, 3445, 1162, 257, 0}},
		},
	}
	for part, byProcs := range want {
		for procs, w := range byProcs {
			_, st, err := Mine(d, Options{
				Options: apriori.Options{AbsSupport: 10, ShortCircuit: true},
				Procs:   procs, Balance: BalanceBitonic, AdaptiveMinUnits: 1,
				DBPart: part, Project: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			if got := st.ModelTime(); got != w.total {
				t.Errorf("%s procs=%d: ModelTime = %d, want %d (work model changed)",
					part, procs, got, w.total)
			}
			if len(st.PerIter) != len(w.iters) {
				t.Fatalf("%s procs=%d: %d iterations, want %d", part, procs, len(st.PerIter), len(w.iters))
			}
			for i := range st.PerIter {
				if got := st.PerIter[i].ModelTime(procs); got != w.iters[i] {
					t.Errorf("%s procs=%d k=%d: ModelTime = %d, want %d",
						part, procs, st.PerIter[i].K, got, w.iters[i])
				}
			}
		}
	}
}
