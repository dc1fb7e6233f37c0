package vbit

import (
	"math/rand"
	"testing"
)

// randBitmap returns a bitmap over n tids with roughly density d, plus the
// equivalent sorted tidlist.
func randBitmap(rng *rand.Rand, n int, d float64) ([]uint64, []int32) {
	words := make([]uint64, (n+63)/64)
	var list []int32
	for t := 0; t < n; t++ {
		if rng.Float64() < d {
			SetBit(words, int32(t))
			list = append(list, int32(t))
		}
	}
	return words, list
}

func TestKernelsAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(300)
		aw, al := randBitmap(rng, n, rng.Float64())
		bw, bl := randBitmap(rng, n, rng.Float64())

		inter := map[int32]bool{}
		diff := map[int32]bool{}
		for _, tid := range al {
			if Bit(bw, tid) {
				inter[tid] = true
			} else {
				diff[tid] = true
			}
		}

		if got := AndCount(aw, bw); got != int64(len(inter)) {
			t.Fatalf("trial %d: AndCount = %d, want %d", trial, got, len(inter))
		}
		dst := make([]uint64, len(aw))
		if got := AndInto(dst, aw, bw); got != int64(len(inter)) {
			t.Fatalf("trial %d: AndInto card = %d, want %d", trial, got, len(inter))
		}
		if got := AndNotInto(dst, aw, bw); got != int64(len(diff)) {
			t.Fatalf("trial %d: AndNotInto card = %d, want %d", trial, got, len(diff))
		}
		if got := PopCount(aw); got != int64(len(al)) {
			t.Fatalf("trial %d: PopCount = %d, want %d", trial, got, len(al))
		}

		// Extraction round-trips the diff bitmap into a sorted tidlist.
		ext := make([]int32, n)
		m := ExtractInto(ext, dst)
		if m != len(diff) {
			t.Fatalf("trial %d: ExtractInto n = %d, want %d", trial, m, len(diff))
		}
		for i := 0; i < m; i++ {
			if !diff[ext[i]] || (i > 0 && ext[i-1] >= ext[i]) {
				t.Fatalf("trial %d: ExtractInto produced bad tid %d at %d", trial, ext[i], i)
			}
		}

		// Tidlist kernels agree with the bitmap kernels.
		out := make([]int32, n)
		if got := IntersectInto(out, al, bl); got != len(inter) {
			t.Fatalf("trial %d: IntersectInto = %d, want %d", trial, got, len(inter))
		}
		if got := DiffInto(out, al, bl); got != len(diff) {
			t.Fatalf("trial %d: DiffInto = %d, want %d", trial, got, len(diff))
		}
		if got := FilterInto(out, al, bw, true); got != len(inter) {
			t.Fatalf("trial %d: FilterInto keep = %d, want %d", trial, got, len(inter))
		}
		if got := FilterInto(out, al, bw, false); got != len(diff) {
			t.Fatalf("trial %d: FilterInto drop = %d, want %d", trial, got, len(diff))
		}

		// ClearList(a, b∩a-list) drops exactly the intersection.
		cp := make([]uint64, len(aw))
		copy(cp, aw)
		if got := ClearList(cp, bl); got != int64(len(inter)) {
			t.Fatalf("trial %d: ClearList = %d, want %d", trial, got, len(inter))
		}
		if got := PopCount(cp); got != int64(len(al)-len(inter)) {
			t.Fatalf("trial %d: ClearList residue = %d, want %d", trial, got, len(al)-len(inter))
		}

		cw, _ := randBitmap(rng, n, rng.Float64())
		want3 := int64(0)
		for _, tid := range al {
			if Bit(bw, tid) && Bit(cw, tid) {
				want3++
			}
		}
		if got := AndCount3(aw, bw, cw); got != want3 {
			t.Fatalf("trial %d: AndCount3 = %d, want %d", trial, got, want3)
		}
	}
}

func TestKernelsEmpty(t *testing.T) {
	// Zero-length bitmaps and tidlists (an empty database) must no-op.
	if AndCount(nil, nil) != 0 || PopCount(nil) != 0 || AndCount3(nil, nil, nil) != 0 {
		t.Fatal("empty bitmap kernels returned nonzero")
	}
	if IntersectInto(nil, nil, nil) != 0 || DiffInto(nil, nil, nil) != 0 {
		t.Fatal("empty tidlist kernels returned nonzero")
	}
}

// TestKernelAllocs is the runtime face of the armlint noalloc gate: every
// counting kernel, and the Layout candidate-support path above them, runs
// with zero allocations per op once the scratch buffers exist.
func TestKernelAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 1024
	aw, al := randBitmap(rng, n, 0.3)
	bw, bl := randBitmap(rng, n, 0.3)
	cw, _ := randBitmap(rng, n, 0.3)
	dst := make([]uint64, len(aw))
	out := make([]int32, n)
	var sink int64
	cases := map[string]func(){
		"AndCount":    func() { sink += AndCount(aw, bw) },
		"AndCount3":   func() { sink += AndCount3(aw, bw, cw) },
		"AndInto":     func() { sink += AndInto(dst, aw, bw) },
		"AndNotInto":  func() { sink += AndNotInto(dst, aw, bw) },
		"ExtractInto": func() { sink += int64(ExtractInto(out, aw)) },
		"IntersectInto": func() {
			sink += int64(IntersectInto(out, al, bl))
		},
		"DiffInto": func() { sink += int64(DiffInto(out, al, bl)) },
		"FilterInto": func() {
			sink += int64(FilterInto(out, al, bw, true))
		},
	}
	for name, fn := range cases {
		if allocs := testing.AllocsPerRun(100, fn); allocs != 0 {
			t.Errorf("%s: %v allocs/op, want 0", name, allocs)
		}
	}
	_ = sink
}
