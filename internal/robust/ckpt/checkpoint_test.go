package ckpt

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/apriori"
	"repro/internal/itemset"
)

func sampleCheckpoint() *Checkpoint {
	return &Checkpoint{
		MinCount:   3,
		DBLen:      300,
		NumItems:   40,
		TotalItems: 2400,
		Procs:      4,
		OptsHash:   0xdeadbeefcafe,
		NextK:      3,
		Done:       false,
		ByK: [][]apriori.FrequentItemset{
			nil, // k=0 placeholder
			{
				{Items: itemset.Itemset{0}, Count: 120},
				{Items: itemset.Itemset{3}, Count: 77},
			},
			{
				{Items: itemset.Itemset{0, 3}, Count: 41},
			},
		},
		Iters: []IterSnapshot{
			{K: 1, Candidates: 40, Frequent: 2, Batches: 1,
				CountWork: []int64{10, 11, 12, 13}},
			{K: 2, Candidates: 1, Frequent: 1, GenSequential: true, Batches: 2,
				BuildWork: 5, ReduceWork: 9,
				GenWork:       []int64{1, 2, 3, 4},
				CountWork:     []int64{20, 21, 22, 23},
				ChunksClaimed: []int64{2, 2, 2, 2},
				Steals:        []int64{0, 1, 0, 0}},
		},
	}
}

func TestRoundTrip(t *testing.T) {
	c := sampleCheckpoint()
	var buf bytes.Buffer
	if err := c.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCheckpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// The reader materializes empty ByK levels as empty (non-nil) slices;
	// normalize before the deep comparison.
	want := sampleCheckpoint()
	want.ByK[0] = []apriori.FrequentItemset{}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("roundtrip mismatch:\ngot  %+v\nwant %+v", got, want)
	}
}

func TestRoundTripFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "a.ckpt")
	c := sampleCheckpoint()
	c.Done = true
	if err := c.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	// The atomic write must not leave its temp file behind.
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Errorf("temp file left behind: %v", err)
	}
	got, err := ReadCheckpointFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Done || got.NextK != 3 || len(got.ByK) != 3 {
		t.Errorf("file roundtrip lost fields: %+v", got)
	}
}

func TestBadMagic(t *testing.T) {
	var buf bytes.Buffer
	if err := sampleCheckpoint().Write(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[0] = 'X'
	if _, err := ReadCheckpoint(bytes.NewReader(raw)); err == nil ||
		!strings.Contains(err.Error(), "magic") {
		t.Errorf("corrupt magic not rejected: %v", err)
	}
}

// TestTruncated checks every prefix of a valid checkpoint fails cleanly —
// no panic, no silent partial load.
func TestTruncated(t *testing.T) {
	var buf bytes.Buffer
	if err := sampleCheckpoint().Write(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	for n := 0; n < len(raw); n++ {
		if _, err := ReadCheckpoint(bytes.NewReader(raw[:n])); err == nil {
			t.Fatalf("truncation at %d/%d bytes read without error", n, len(raw))
		}
	}
}

// TestImplausibleLengths corrupts length fields so they decode as huge or
// negative values; the reader must reject them without a giant allocation.
func TestImplausibleLengths(t *testing.T) {
	base := func() []byte {
		var buf bytes.Buffer
		if err := sampleCheckpoint().Write(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	// Offsets of the length fields in the fixed-layout header region:
	// magic(8) + 5×i64 + u64 + nextK i64 + done byte = 65; numK at 65.
	const numKOff = 8 + 5*8 + 8 + 8 + 1
	cases := []struct {
		name string
		off  int
		val  byte
	}{
		{"huge numK", numKOff + 7, 0x7f},          // top byte of numK → ~2^62
		{"negative numK", numKOff + 7, 0xff},      // sign bit set
		{"huge set count", numKOff + 8 + 7, 0x7f}, // ByK[0] count
	}
	for _, c := range cases {
		raw := base()
		raw[c.off] = c.val
		if _, err := ReadCheckpoint(bytes.NewReader(raw)); err == nil ||
			!strings.Contains(err.Error(), "implausible") {
			t.Errorf("%s: not rejected as implausible: %v", c.name, err)
		}
	}
}

func TestWriteFileOverwriteIsAtomicShape(t *testing.T) {
	// Writing over an existing checkpoint replaces it wholesale.
	path := filepath.Join(t.TempDir(), "a.ckpt")
	c := sampleCheckpoint()
	if err := c.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	c.NextK = 4
	c.ByK = append(c.ByK, []apriori.FrequentItemset{})
	if err := c.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCheckpointFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.NextK != 4 || len(got.ByK) != 4 {
		t.Errorf("overwrite lost the newer snapshot: NextK=%d len(ByK)=%d", got.NextK, len(got.ByK))
	}
}
