package db

import (
	"bytes"
	"testing"

	"repro/internal/itemset"
)

// FuzzRead throws arbitrary bytes at the binary reader: it must never
// panic, and everything it accepts must round-trip identically. The sized
// path ReadFile takes (columns presized from the header and the input
// length) must accept exactly what the unsized path accepts, with the same
// transactions.
func FuzzRead(f *testing.F) {
	// Seed with a valid database, a truncation of it, and garbage.
	d := New(6)
	d.Append(1, itemset.New(1, 4, 5))
	d.Append(2, itemset.New(0, 2))
	var buf bytes.Buffer
	if err := d.Write(&buf); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)-5])
	f.Add([]byte("ARDBxxxx"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := Read(bytes.NewReader(data))
		sized, sizedErr := read(bytes.NewReader(data), int64(len(data)))
		if (err == nil) != (sizedErr == nil) {
			t.Fatalf("unsized read error %v, sized read error %v", err, sizedErr)
		}
		if err != nil {
			return
		}
		if sized.Len() != got.Len() {
			t.Fatalf("sized read has %d transactions, unsized %d", sized.Len(), got.Len())
		}
		for i := 0; i < got.Len(); i++ {
			if sized.TID(i) != got.TID(i) || !sized.Items(i).Equal(got.Items(i)) {
				t.Fatalf("sized read differs at transaction %d", i)
			}
		}
		if err := got.Validate(); err != nil {
			t.Fatalf("accepted database fails validation: %v", err)
		}
		var out bytes.Buffer
		if err := got.Write(&out); err != nil {
			t.Fatalf("rewrite failed: %v", err)
		}
		back, err := Read(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("re-read failed: %v", err)
		}
		if back.Len() != got.Len() {
			t.Fatalf("round trip changed length: %d vs %d", back.Len(), got.Len())
		}
		for i := 0; i < got.Len(); i++ {
			if !back.Items(i).Equal(got.Items(i)) {
				t.Fatalf("round trip changed transaction %d", i)
			}
		}
	})
}
