package db

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/itemset"
)

// stubArenaLimit shrinks the int32-offset arena cap for the duration of a
// test, so the overflow guard is exercised without allocating gigabytes.
func stubArenaLimit(t *testing.T, limit int64) {
	t.Helper()
	old := maxArenaItems
	maxArenaItems = limit
	t.Cleanup(func() { maxArenaItems = old })
}

// TestTryAppendArenaFull pins the int32-overflow guard: appending past the
// arena cap returns ErrArenaFull and leaves the database untouched, while an
// append landing exactly on the cap succeeds.
func TestTryAppendArenaFull(t *testing.T) {
	stubArenaLimit(t, 10)
	d := New(8)
	d.Append(0, itemset.New(0, 1, 2, 3))
	d.Append(1, itemset.New(0, 1, 2, 3))

	if err := d.TryAppend(2, itemset.New(0, 1, 2)); !errors.Is(err, ErrArenaFull) {
		t.Fatalf("TryAppend over the cap = %v, want ErrArenaFull", err)
	}
	// The failed append must not have mutated anything.
	if d.Len() != 2 || d.TotalItems() != 8 {
		t.Fatalf("failed append mutated the db: len=%d total=%d", d.Len(), d.TotalItems())
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("db invalid after refused append: %v", err)
	}
	// Exactly filling the arena is allowed.
	if err := d.TryAppend(2, itemset.New(0, 1)); err != nil {
		t.Fatalf("TryAppend to exactly the cap: %v", err)
	}
	if d.TotalItems() != 10 {
		t.Fatalf("TotalItems = %d, want 10", d.TotalItems())
	}
	// And one more item is refused again.
	if err := d.TryAppend(3, itemset.New(0)); !errors.Is(err, ErrArenaFull) {
		t.Fatalf("TryAppend past a full arena = %v, want ErrArenaFull", err)
	}
}

// TestAppendPanicsOnFullArena: the panicking wrapper (used by trusted
// in-process builders like the generator) surfaces the same error.
func TestAppendPanicsOnFullArena(t *testing.T) {
	stubArenaLimit(t, 3)
	d := New(4)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Append past the arena cap did not panic")
		}
		err, ok := r.(error)
		if !ok || !errors.Is(err, ErrArenaFull) {
			t.Fatalf("panic value %v, want ErrArenaFull", r)
		}
	}()
	d.Append(0, itemset.New(0, 1, 2, 3))
}

// TestReadRefusesArenaOverflow: the binary reader (untrusted input) must
// propagate the guard as an error naming the offending transaction instead
// of corrupting offsets.
func TestReadRefusesArenaOverflow(t *testing.T) {
	d := New(6)
	d.Append(0, itemset.New(0, 1, 2, 3))
	d.Append(1, itemset.New(0, 1, 2, 3))
	d.Append(2, itemset.New(4, 5))
	path := filepath.Join(t.TempDir(), "d.ardb")
	if err := d.WriteFile(path); err != nil {
		t.Fatal(err)
	}

	stubArenaLimit(t, 9) // the file carries 10 item occurrences
	_, err := ReadFile(path)
	if !errors.Is(err, ErrArenaFull) {
		t.Fatalf("ReadFile = %v, want ErrArenaFull", err)
	}
	if !strings.Contains(err.Error(), "transaction 2") {
		t.Errorf("error does not name the offending transaction: %v", err)
	}

	// With the real cap the same file loads fine.
	maxArenaItems = 10
	if _, err := ReadFile(path); err != nil {
		t.Fatalf("ReadFile under sufficient cap: %v", err)
	}
}

// TestReadFileRefusesLyingCount: a header claiming 2⁴⁰ transactions in a
// file that holds two fails with a read error at the first missing record,
// and the presizing that ReadFile does from the header allocates nothing
// near 2⁴⁰ rows first.
func TestReadFileRefusesLyingCount(t *testing.T) {
	d := New(6)
	d.Append(0, itemset.New(0, 1, 2, 3))
	d.Append(1, itemset.New(4, 5))
	var buf bytes.Buffer
	if err := d.Write(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	binary.LittleEndian.PutUint64(data[12:], 1<<40)
	path := filepath.Join(t.TempDir(), "lying.ardb")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadFile(path)
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "transaction 2 header") {
		t.Fatalf("ReadFile = %v, want a read error at transaction 2", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Errorf("ReadFile allocated %d bytes for a %d-byte file", grew, len(data))
	}
}

// TestReadFilePresizes: a well-formed file is read into columns allocated
// once at their final size.
func TestReadFilePresizes(t *testing.T) {
	d := New(10)
	for i := 0; i < 100; i++ {
		d.Append(int64(i), itemset.New(itemset.Item(i%10), itemset.Item(i%7+1)))
	}
	path := filepath.Join(t.TempDir(), "d.ardb")
	if err := d.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if cap(got.tids) != d.Len() || cap(got.offsets) != d.Len()+1 || cap(got.arena) != int(d.TotalItems()) {
		t.Errorf("column capacities %d/%d/%d, want %d/%d/%d", cap(got.tids), cap(got.offsets), cap(got.arena),
			d.Len(), d.Len()+1, d.TotalItems())
	}
}
