package db

import (
	"bytes"
	"math/rand"
	"path/filepath"
	"testing"
	"testing/quick"

	"repro/internal/itemset"
)

func sample() *Database {
	// The Section 2.1.3 example database.
	d := New(6)
	d.Append(1, itemset.New(1, 4, 5))
	d.Append(2, itemset.New(1, 2))
	d.Append(3, itemset.New(3, 4, 5))
	d.Append(4, itemset.New(1, 2, 4, 5))
	return d
}

func TestAppendAndAccess(t *testing.T) {
	d := sample()
	if d.Len() != 4 {
		t.Fatalf("Len = %d", d.Len())
	}
	if d.TID(2) != 3 {
		t.Errorf("TID(2) = %d", d.TID(2))
	}
	if got := d.Items(3); !got.Equal(itemset.New(1, 2, 4, 5)) {
		t.Errorf("Items(3) = %v", got)
	}
	if d.TotalItems() != 12 {
		t.Errorf("TotalItems = %d", d.TotalItems())
	}
	if d.AvgLen() != 3 {
		t.Errorf("AvgLen = %f", d.AvgLen())
	}
	if d.NumItems() != 6 {
		t.Errorf("NumItems = %d", d.NumItems())
	}
	if err := d.Validate(); err != nil {
		t.Error(err)
	}
}

// TestValidateOffsetPastArena: columns whose end offsets agree but whose
// middle offset points past the arena (a malformed store segment the
// segmented-store fuzzer produced) fail validation instead of panicking in
// Items.
func TestValidateOffsetPastArena(t *testing.T) {
	d, err := FromColumns([]int64{0, 1}, []int32{0, 5, 2}, []itemset.Item{1, 2}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Validate(); err == nil {
		t.Error("offsets [0 5 2] over a 2-item arena validated")
	}
}

func TestAppendGrowsUniverse(t *testing.T) {
	d := New(2)
	d.Append(1, itemset.New(10))
	if d.NumItems() != 11 {
		t.Errorf("NumItems = %d, want 11", d.NumItems())
	}
}

func TestAppendPanicsOnUnsorted(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Append of unsorted transaction should panic")
		}
	}()
	d := New(10)
	d.Append(1, itemset.Itemset{5, 3})
}

func TestEmptyDatabase(t *testing.T) {
	d := New(10)
	if d.Len() != 0 || d.AvgLen() != 0 || d.TotalItems() != 0 {
		t.Error("empty database accessors wrong")
	}
	parts := d.BlockPartition(4)
	for _, s := range parts {
		if s.Len() != 0 {
			t.Error("empty db partition should be empty")
		}
	}
}

func TestBlockPartitionCoversExactly(t *testing.T) {
	d := New(100)
	for i := 0; i < 37; i++ {
		d.Append(int64(i), itemset.New(itemset.Item(i%100)))
	}
	for _, p := range []int{1, 2, 3, 5, 37, 50} {
		parts := d.BlockPartition(p)
		if len(parts) != p {
			t.Fatalf("p=%d: got %d parts", p, len(parts))
		}
		total, prev := 0, 0
		for _, s := range parts {
			if s.Lo != prev {
				t.Errorf("p=%d: gap at %d", p, s.Lo)
			}
			total += s.Len()
			prev = s.Hi
		}
		if total != 37 || prev != 37 {
			t.Errorf("p=%d: covered %d rows ending %d", p, total, prev)
		}
	}
	if got := d.BlockPartition(0); got != nil {
		t.Error("p=0 should return nil")
	}
}

func TestSliceForEach(t *testing.T) {
	d := sample()
	s := Slice{DB: d, Lo: 1, Hi: 3}
	var tids []int64
	s.ForEach(func(tid int64, items itemset.Itemset) {
		tids = append(tids, tid)
	})
	if len(tids) != 2 || tids[0] != 2 || tids[1] != 3 {
		t.Errorf("ForEach tids = %v", tids)
	}
}

func TestWorkloadPartitionBalancesSkew(t *testing.T) {
	// Front-loaded long transactions: block partition by row count is badly
	// imbalanced for k=3 work; workload partition should be much better.
	d := New(200)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 400; i++ {
		l := 3
		if i < 100 {
			l = 20 // long rows clustered at the front
		}
		items := map[itemset.Item]bool{}
		for len(items) < l {
			items[itemset.Item(rng.Intn(200))] = true
		}
		flat := make(itemset.Itemset, 0, l)
		for it := range items {
			flat = append(flat, it)
		}
		d.Append(int64(i), itemset.New(flat...))
	}
	const p, k = 4, 3
	imbalance := func(parts []Slice) float64 {
		var max, sum int64
		for _, s := range parts {
			w := s.EstimatedWork(k)
			sum += w
			if w > max {
				max = w
			}
		}
		return float64(max) * float64(p) / float64(sum)
	}
	bi := imbalance(d.BlockPartition(p))
	wi := imbalance(d.WorkloadPartition(p, 6))
	if wi >= bi {
		t.Errorf("workload partition (%.2f) not better than block (%.2f)", wi, bi)
	}
	if wi > 1.5 {
		t.Errorf("workload partition still very imbalanced: %.2f", wi)
	}
}

func TestWorkloadPartitionCoversExactly(t *testing.T) {
	d := sample()
	for _, p := range []int{1, 2, 3, 4, 7} {
		parts := d.WorkloadPartition(p, 3)
		if len(parts) != p {
			t.Fatalf("p=%d: %d parts", p, len(parts))
		}
		prev := 0
		for _, s := range parts {
			if s.Lo != prev {
				t.Errorf("p=%d: gap/overlap at %d", p, s.Lo)
			}
			prev = s.Hi
		}
		if prev != d.Len() {
			t.Errorf("p=%d: ends at %d", p, prev)
		}
	}
}

func TestRoundTripBinary(t *testing.T) {
	d := sample()
	var buf bytes.Buffer
	if err := d.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != d.Len() || got.NumItems() != d.NumItems() {
		t.Fatalf("round trip shape: %d/%d vs %d/%d", got.Len(), got.NumItems(), d.Len(), d.NumItems())
	}
	for i := 0; i < d.Len(); i++ {
		if got.TID(i) != d.TID(i) || !got.Items(i).Equal(d.Items(i)) {
			t.Errorf("transaction %d differs: %d%v vs %d%v", i, got.TID(i), got.Items(i), d.TID(i), d.Items(i))
		}
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte("not a database file....."))); err == nil {
		t.Error("Read should reject bad magic")
	}
	if _, err := Read(bytes.NewReader(nil)); err == nil {
		t.Error("Read should reject truncated input")
	}
	// Valid header but truncated body.
	d := sample()
	var buf bytes.Buffer
	if err := d.Write(&buf); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-3]
	if _, err := Read(bytes.NewReader(trunc)); err == nil {
		t.Error("Read should reject truncated body")
	}
}

func TestFileRoundTrip(t *testing.T) {
	d := sample()
	path := filepath.Join(t.TempDir(), "x.ardb")
	if err := d.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 4 {
		t.Errorf("file round trip Len = %d", got.Len())
	}
	if err := got.Validate(); err != nil {
		t.Error(err)
	}
}

func TestReadFileMissing(t *testing.T) {
	if _, err := ReadFile(filepath.Join(t.TempDir(), "missing.ardb")); err == nil {
		t.Error("ReadFile of missing path should fail")
	}
}

func TestSizeBytes(t *testing.T) {
	d := sample()
	// 12 items ×4 + 4 transactions ×12 = 96.
	if got := d.SizeBytes(); got != 96 {
		t.Errorf("SizeBytes = %d, want 96", got)
	}
	// SizeBytes must match actual serialized size minus the 20-byte header.
	var buf bytes.Buffer
	if err := d.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if int64(buf.Len())-20 != d.SizeBytes() {
		t.Errorf("serialized %d bytes, SizeBytes+20 = %d", buf.Len(), d.SizeBytes()+20)
	}
}

// Property: serialization round-trips arbitrary databases.
func TestRoundTripProperty(t *testing.T) {
	f := func(rows [][]uint16) bool {
		d := New(1)
		for i, raw := range rows {
			items := make([]itemset.Item, len(raw))
			for j, v := range raw {
				items[j] = itemset.Item(v % 512)
			}
			d.Append(int64(i), itemset.New(items...))
		}
		var buf bytes.Buffer
		if err := d.Write(&buf); err != nil {
			return false
		}
		got, err := Read(&buf)
		if err != nil {
			return false
		}
		if got.Len() != d.Len() {
			return false
		}
		for i := 0; i < d.Len(); i++ {
			if !got.Items(i).Equal(d.Items(i)) {
				return false
			}
		}
		return got.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// checkPartitionInvariants asserts p contiguous slices covering [0, Len).
func checkPartitionInvariants(t *testing.T, d *Database, parts []Slice, p int) {
	t.Helper()
	if len(parts) != p {
		t.Fatalf("%d parts, want %d", len(parts), p)
	}
	prev := 0
	for i, s := range parts {
		if s.Lo != prev || s.Hi < s.Lo {
			t.Fatalf("slice %d = [%d,%d), expected Lo=%d", i, s.Lo, s.Hi, prev)
		}
		prev = s.Hi
	}
	if prev != d.Len() {
		t.Fatalf("partition covers %d of %d rows", prev, d.Len())
	}
}

func maxSliceWork(parts []Slice, k int) int64 {
	var max int64
	for _, s := range parts {
		if w := s.EstimatedWork(k); w > max {
			max = w
		}
	}
	return max
}

func TestWorkloadPartitionEmptyDatabase(t *testing.T) {
	d := New(4)
	for _, p := range []int{1, 3, 8} {
		parts := d.WorkloadPartition(p, 3)
		checkPartitionInvariants(t, d, parts, p)
		for _, s := range parts {
			if s.Len() != 0 {
				t.Errorf("empty db produced non-empty slice %+v", s)
			}
		}
	}
}

func TestWorkloadPartitionMoreProcsThanRows(t *testing.T) {
	d := New(10)
	for i := 0; i < 3; i++ {
		d.Append(int64(i), itemset.New(itemset.Item(i), itemset.Item(i+1)))
	}
	parts := d.WorkloadPartition(8, 2)
	checkPartitionInvariants(t, d, parts, 8)
	// Every row should sit alone: no slice may hold more than one of the
	// three equal-cost transactions.
	for i, s := range parts {
		if s.Len() > 1 {
			t.Errorf("slice %d holds %d rows; with P > N each should be alone", i, s.Len())
		}
	}
}

func TestWorkloadPartitionUniformCosts(t *testing.T) {
	d := New(50)
	for i := 0; i < 12; i++ {
		d.Append(int64(i), itemset.New(1, 2, 3, 4))
	}
	parts := d.WorkloadPartition(4, 3)
	checkPartitionInvariants(t, d, parts, 4)
	// Uniform costs must split like a block partition: 3 rows each.
	for i, s := range parts {
		if s.Len() != 3 {
			t.Errorf("slice %d has %d rows, want 3", i, s.Len())
		}
	}
}

func TestWorkloadPartitionOneGiantTransaction(t *testing.T) {
	const k = 3
	build := func(giantAt int) *Database {
		d := New(64)
		big := make(itemset.Itemset, 0, 40)
		for it := 0; it < 40; it++ {
			big = append(big, itemset.Item(it))
		}
		for i := 0; i < 30; i++ {
			if i == giantAt {
				d.Append(int64(i), big)
				continue
			}
			d.Append(int64(i), itemset.New(60, 61, 62))
		}
		return d
	}
	for _, giantAt := range []int{0, 15, 29} {
		d := build(giantAt)
		parts := d.WorkloadPartition(4, 6)
		checkPartitionInvariants(t, d, parts, 4)
		giantWork := Slice{DB: d, Lo: giantAt, Hi: giantAt + 1}.EstimatedWork(k)
		// The giant dominates total work, so the best possible max slice is
		// the giant alone; the degenerate pre-fix behaviour lumped trailing
		// (or, for a tail giant, all) small rows in with it.
		if got := maxSliceWork(parts, k); got != giantWork {
			t.Errorf("giantAt=%d: max slice work %d, want giant alone (%d)", giantAt, got, giantWork)
		}
	}
}

func TestWorkloadPartitionNoOverloadedLastSlice(t *testing.T) {
	// Decreasing costs: the old fixed target total/p made every early slice
	// overshoot, starving or overloading the tail. The remaining-work target
	// keeps the last slice no worse than ~the largest single transaction
	// above the ideal share.
	d := New(64)
	row := 0
	addRows := func(n, l int) {
		for i := 0; i < n; i++ {
			tx := make(itemset.Itemset, l)
			for j := range tx {
				tx[j] = itemset.Item(j)
			}
			d.Append(int64(row), tx)
			row++
		}
	}
	addRows(8, 20)
	addRows(40, 4)
	const p, k = 4, 3
	parts := d.WorkloadPartition(p, k)
	checkPartitionInvariants(t, d, parts, p)
	var total int64
	for _, s := range parts {
		total += s.EstimatedWork(k)
	}
	ideal := total / int64(p)
	if got := maxSliceWork(parts, k); float64(got) > 1.5*float64(ideal) {
		t.Errorf("max slice work %d vs ideal %d — partition still degenerate", got, ideal)
	}
}
