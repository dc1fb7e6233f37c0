package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/itemset"
)

// ValidateBatch bounds-checks one ingest batch decoded by encoding/json
// against the configured limits: batch size, per-transaction length (before
// deduplication) and item range. It returns the normalized (sorted,
// deduplicated) itemsets. It is the reference decodeBatch is checked
// against, and the tests' way to build a batch for Ingest.
func (s *Server) ValidateBatch(txs [][]int64) ([]itemset.Itemset, error) {
	if len(txs) == 0 {
		return nil, errEmptyBatch
	}
	if len(txs) > s.cfg.MaxBatch {
		return nil, fmt.Errorf("%w: %d > %d", errBatchTooLarge, len(txs), s.cfg.MaxBatch)
	}
	out := make([]itemset.Itemset, len(txs))
	for i, tx := range txs {
		if len(tx) == 0 {
			return nil, &txError{i, errors.New("no items")}
		}
		if len(tx) > s.cfg.MaxTxItems {
			return nil, &txError{i, fmt.Errorf("%d items > limit %d", len(tx), s.cfg.MaxTxItems)}
		}
		items := make([]itemset.Item, len(tx))
		for j, v := range tx {
			if v < 0 || v >= s.cfg.MaxItem {
				return nil, &txError{i, fmt.Errorf("item %d outside universe [0,%d)", v, s.cfg.MaxItem)}
			}
			items[j] = itemset.Item(v) // bounds-checked above: New caps MaxItem at 2³¹
		}
		out[i] = itemset.New(items...) // sorts + dedups
	}
	return out, nil
}

// referenceBatch is the reference /ingest decoder: the body read whole under
// MaxBodyBytes as the handler reads it, then encoding/json with unknown
// fields refused, then ValidateBatch. It returns the batch and the HTTP
// status the body earns: 202, 400 or 413.
func (s *Server) referenceBatch(body []byte) ([]itemset.Itemset, int) {
	if int64(len(body)) > s.cfg.MaxBodyBytes {
		return nil, http.StatusRequestEntityTooLarge
	}
	var req struct {
		Transactions [][]int64 `json:"transactions"`
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return nil, http.StatusBadRequest
	}
	batch, err := s.ValidateBatch(req.Transactions)
	if err != nil {
		return nil, http.StatusBadRequest
	}
	return batch, http.StatusAccepted
}

// wireBody renders rows as an /ingest body, as every client in the repo
// does: json.Marshal of the documented shape.
func wireBody(t testing.TB, rows [][]int64) []byte {
	t.Helper()
	body, err := json.Marshal(map[string][][]int64{"transactions": rows})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// divergentBodies are accepted by encoding/json plus ValidateBatch, and
// refused by decodeBatch on purpose.
var divergentBodies = []string{
	`{"transactions":[[1,null,3]]}`,                   // null decodes as item 0
	`{"transactions":[[1]]}{"transactions":[[2]]}`,    // the second object is ignored
	`{"transactions":[[9]],"transactions":[[1,2]]}`,   // the last member wins
	`{"Transactions":[[1]]}`,                          // member names match case-insensitively
	`{"\u0074ransactions":[[1]]}`,                     // escapes in the member name
	`{"transactions":[[-0]]}`,                         // a sign
	`{"transactions":[[1]]} x`,                        // trailing bytes
	"\t{ \"transactions\" : [ [ 3 , 1 , 3 ] ] }\r\n[", // whitespace, then more
}

// TestDecodeBatch pins the accepted grammar, the normalization and the
// error values of the one-pass decoder.
func TestDecodeBatch(t *testing.T) {
	cfg := testConfig()
	cfg.MaxBatch = 3
	cfg.MaxTxItems = 4
	cfg.MaxItem = 100
	s := New(cfg)
	accept := []struct {
		body string
		want [][]itemset.Item
	}{
		{`{"transactions":[[1,2,3]]}`, [][]itemset.Item{{1, 2, 3}}},
		{`{"transactions":[[3,1,3,0],[99],[5,5,5,5]]}`, [][]itemset.Item{{0, 1, 3}, {99}, {5}}},
		{"\n {\t\"transactions\" :\r[ [ 2 ,1 ] , [0]\n]\n}\n ", [][]itemset.Item{{1, 2}, {0}}},
		{"{\n  \"transactions\": [[1,2,3],[1,2],[2,3,4]]\n}", [][]itemset.Item{{1, 2, 3}, {1, 2}, {2, 3, 4}}},
	}
	for _, tc := range accept {
		batch, err := s.decodeBatch([]byte(tc.body))
		if err != nil {
			t.Errorf("%q: %v", tc.body, err)
			continue
		}
		if len(batch) != len(tc.want) {
			t.Errorf("%q: %d rows, want %d", tc.body, len(batch), len(tc.want))
			continue
		}
		for i, row := range batch {
			if !row.Equal(itemset.Itemset(tc.want[i])) {
				t.Errorf("%q: row %d = %v, want %v", tc.body, i, row, tc.want[i])
			}
		}
	}

	var tx *txError
	refuse := []struct {
		body string
		is   func(error) bool
	}{
		{`{"transactions":[]}`, func(err error) bool { return errors.Is(err, errEmptyBatch) }},
		{`{"transactions":[[1],[2],[3],[4]]}`, func(err error) bool { return errors.Is(err, errBatchTooLarge) }},
		{`{"transactions":[[1],[]]}`, func(err error) bool { return errors.As(err, &tx) && tx.Index == 1 }},
		{`{"transactions":[[1],[1,1,1,1,1]]}`, func(err error) bool { return errors.As(err, &tx) && tx.Index == 1 }},
		{`{"transactions":[[1],[2],[100]]}`, func(err error) bool { return errors.As(err, &tx) && tx.Index == 2 }},
		{`{"transactions":[[99999999999999999999999999]]}`, func(err error) bool { return errors.As(err, &tx) && tx.Index == 0 }},
	}
	for _, tc := range refuse {
		if batch, err := s.decodeBatch([]byte(tc.body)); !tc.is(err) {
			t.Errorf("%q: got (%v, %v), want a limit error", tc.body, batch, err)
		}
	}
	for _, body := range append(divergentBodies,
		``, `{}`, `null`, `{"transactions":null}`, `{"transactions":[[01]]}`, `{"transactions":[[1.0]]}`,
		`{"transactions":[[1e0]]}`, `{"transactions":[[1,]]}`, `{"transactions":[[1],]}`, `{"transactions":[[1]]`,
		`{"transactions":[[1]}`, `{"transactions":[1]}`, `{"transactions":[["1"]]}`, `{"transactions":[[+1]]}`,
		`{"transactions":[[1 2]]}`, "\xef\xbb\xbf{\"transactions\":[[1]]}", `{"transactions"[[1]]}`) {
		if batch, err := s.decodeBatch([]byte(body)); err == nil || !strings.HasPrefix(err.Error(), "decode: ") {
			t.Errorf("%q: got (%v, %v), want a syntax error", body, batch, err)
		}
	}

	// At the widest universe an id past 2³¹ is refused, not wrapped, and
	// 2³¹−1 is the largest item.
	wide := New(Config{Support: 0.1, MaxItem: MaxItemLimit})
	if _, err := wide.decodeBatch([]byte(`{"transactions":[[4294967297,4294967298]]}`)); !errors.As(err, &tx) {
		t.Errorf("items 2³²+1 and 2³²+2: err = %v, want a txError", err)
	}
	batch, err := wide.decodeBatch([]byte(`{"transactions":[[2147483647]]}`))
	if err != nil || !batch[0].Equal(itemset.New(math.MaxInt32)) {
		t.Errorf("item 2³¹−1 decoded as (%v, %v)", batch, err)
	}
}

// TestDecodeBatchAllocs pins the decoder's allocations: a fixed number a
// body, whatever its size.
func TestDecodeBatchAllocs(t *testing.T) {
	s := New(testConfig())
	var allocs []float64
	for _, d := range []int{250, 2500} {
		txs, _ := genBatch(t, gen.Params{T: 10, I: 4, D: d, N: 1000, Seed: 1})
		body := wireBody(t, txs)
		allocs = append(allocs, testing.AllocsPerRun(20, func() {
			if _, err := s.decodeBatch(body); err != nil {
				t.Fatal(err)
			}
		}))
	}
	if allocs[0] != allocs[1] || allocs[1] > 4 {
		t.Errorf("decoding 250 and 2,500 rows took %v and %v allocations, want the same count, at most 4", allocs[0], allocs[1])
	}
}

// BenchmarkIngestHandler times one 250-row POST /ingest through the
// handler: body read, decode, append and the JSON reply.
func BenchmarkIngestHandler(b *testing.B) {
	txs, _ := genBatch(b, gen.Params{T: 10, I: 4, D: 250, N: 1000, Seed: 1})
	body := wireBody(b, txs)
	s := New(testConfig())
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if n%1024 == 1023 {
			// Keep the live database small: a long run would otherwise
			// hold every appended row.
			b.StopTimer()
			s = New(testConfig())
			b.StartTimer()
		}
		rec := httptest.NewRecorder()
		s.ingestHandler(rec, httptest.NewRequest(http.MethodPost, "/ingest", bytes.NewReader(body)))
		if rec.Code != http.StatusAccepted {
			b.Fatalf("HTTP %d: %s", rec.Code, rec.Body)
		}
	}
}

// FuzzIngestDecode checks the one-pass decoder against the reference,
// encoding/json plus ValidateBatch, on arbitrary bodies:
//   - a body the decoder accepts, the reference accepts as the same batch;
//   - a body the reference refuses, the decoder refuses with the same status;
//   - a body json.Marshal makes from fuzz-derived rows is accepted by both
//     or by neither.
//
// The seed corpus holds the bodies where the two differ on purpose.
func FuzzIngestDecode(f *testing.F) {
	for _, body := range divergentBodies {
		f.Add([]byte(body), []byte(nil))
	}
	f.Add([]byte(`{"transactions":[[3,1,3],[2]]}`), []byte{1, 2, 3, 0xff, 2, 2})
	f.Add([]byte("{\n  \"transactions\": [[1,2,3],[1,2],[2,3,4],[1,2,3]]\n}"), []byte{0xff, 0xff})
	f.Add([]byte(`{"transactions":[[01],[1.0],[1e0]]}`), []byte{0x80, 0x7f, 0x70})
	f.Add([]byte(`{"transactions":[[1]]}`+strings.Repeat(" ", 512)), []byte{})
	cfg := testConfig()
	cfg.MaxBatch = 8
	cfg.MaxTxItems = 6
	cfg.MaxItem = 1000
	cfg.MaxBodyBytes = 512
	s := New(cfg)
	f.Fuzz(func(t *testing.T, body, raw []byte) {
		decodeBoth(t, s, body)

		// Rows from raw: 0xff starts a new row, 0x7f is the item 2⁶³−1, any
		// other byte an item in [-1152, 1143]: negative, inside [0, MaxItem)
		// or past it.
		var rows [][]int64
		if len(raw) > 0 {
			rows = [][]int64{{}}
		}
		for _, c := range raw {
			switch c {
			case 0xff:
				rows = append(rows, []int64{})
			case 0x7f:
				rows[len(rows)-1] = append(rows[len(rows)-1], math.MaxInt64)
			default:
				rows[len(rows)-1] = append(rows[len(rows)-1], int64(int8(c))*9)
			}
		}
		marshaled := wireBody(t, rows)
		if got, want := decodeBoth(t, s, marshaled); got != want {
			t.Fatalf("%s: decoder accepted=%v, reference accepted=%v", marshaled, got, want)
		}
	})
}

// decodeBoth runs body through the handler's read-and-decode path and the
// reference, fails t on a broken property, and reports whether each
// accepted it.
func decodeBoth(t *testing.T, s *Server, body []byte) (got, want bool) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/ingest", bytes.NewReader(body))
	batch, err := s.readBatch(httptest.NewRecorder(), req)
	ref, status := s.referenceBatch(body)
	switch {
	case err == nil && status != http.StatusAccepted:
		t.Fatalf("%q: decoder accepted %v, reference refused it with %d", body, batch, status)
	case err == nil && !reflect.DeepEqual(batch, ref):
		t.Fatalf("%q: decoder batch %v, reference %v", body, batch, ref)
	case err != nil && status != http.StatusAccepted && ingestStatus(err) != status:
		t.Fatalf("%q: decoder refused with %d (%v), reference with %d", body, ingestStatus(err), err, status)
	}
	return err == nil, status == http.StatusAccepted
}
