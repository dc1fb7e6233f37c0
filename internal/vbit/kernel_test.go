package vbit

import (
	"math/rand"
	"testing"
)

// bit reports whether tid's bit is set in words.
func bit(words []uint64, tid int32) bool { return words[tid>>6]&(1<<uint(tid&63)) != 0 }

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
			if bit(bw, tid) {
				inter[tid] = true
			} else {
				diff[tid] = true
			}
		}

		dst := make([]uint64, len(aw))
		if got := AndNotInto(dst, aw, bw); got != int64(len(diff)) {
			t.Fatalf("trial %d: AndNotInto card = %d, want %d", trial, got, len(diff))
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
		if got := FilterInto(out, al, bw); got != len(diff) {
			t.Fatalf("trial %d: FilterInto = %d, want %d", trial, got, len(diff))
		}

		// ClearList(a, b∩a-list) drops exactly the intersection.
		cp := make([]uint64, len(aw))
		copy(cp, aw)
		if got := ClearList(cp, bl); got != int64(len(inter)) {
			t.Fatalf("trial %d: ClearList = %d, want %d", trial, got, len(inter))
		}
		if got := ExtractInto(ext, cp); got != len(al)-len(inter) {
			t.Fatalf("trial %d: ClearList residue = %d, want %d", trial, got, len(al)-len(inter))
		}
	}
}

func TestKernelsEmpty(t *testing.T) {
	// Zero-length bitmaps and tidlists (an empty database) must no-op.
	if AndNotInto(nil, nil, nil) != 0 || ExtractInto(nil, nil) != 0 {
		t.Fatal("empty bitmap kernels returned nonzero")
	}
	if IntersectInto(nil, nil, nil) != 0 || DiffInto(nil, nil, nil) != 0 {
		t.Fatal("empty tidlist kernels returned nonzero")
	}
}

// TestKernelAllocs is the runtime face of the armlint noalloc gate: every
// kernel runs with zero allocations per op once the scratch buffers exist.
func TestKernelAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 1024
	aw, al := randBitmap(rng, n, 0.3)
	bw, bl := randBitmap(rng, n, 0.3)
	dst := make([]uint64, len(aw))
	out := make([]int32, n)
	var sink int64
	cases := map[string]func(){
		"AndNotInto":  func() { sink += AndNotInto(dst, aw, bw) },
		"ExtractInto": func() { sink += int64(ExtractInto(out, aw)) },
		"IntersectInto": func() {
			sink += int64(IntersectInto(out, al, bl))
		},
		"DiffInto": func() { sink += int64(DiffInto(out, al, bl)) },
		"FilterInto": func() {
			sink += int64(FilterInto(out, al, bw))
		},
	}
	for name, fn := range cases {
		if allocs := testing.AllocsPerRun(100, fn); allocs != 0 {
			t.Errorf("%s: %v allocs/op, want 0", name, allocs)
		}
	}
	_ = sink
}
