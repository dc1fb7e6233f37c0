package serve

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"

	"repro/internal/itemset"
)

// readBatch reads one /ingest body whole under the MaxBodyBytes cap and
// decodes it with decodeBatch.
func (s *Server) readBatch(w http.ResponseWriter, r *http.Request) ([]itemset.Itemset, error) {
	body, err := readBody(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes), r.ContentLength, s.cfg.MaxBodyBytes)
	if err != nil {
		return nil, fmt.Errorf("read body: %w", err)
	}
	return s.decodeBatch(body)
}

// ingestStatus is the HTTP status of a refused /ingest body: 413 for a body
// over MaxBodyBytes, 400 for every other decode or limit error.
func ingestStatus(err error) int {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// readBody reads the body r whole. A declared size within limit presizes
// the buffer, so a body with a Content-Length is read with one allocation.
func readBody(r io.Reader, size, limit int64) ([]byte, error) {
	if size < 0 || size > limit {
		return io.ReadAll(r)
	}
	buf := make([]byte, size)
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// decodeBatch parses an /ingest body in one pass and returns its
// transactions normalized (sorted, deduplicated), ready for Ingest. The
// accepted grammar is exactly
//
//	ws '{' ws "transactions" ws ':' ws '[' row (ws ',' ws row)* ws ']' ws '}' ws
//	row  = '[' ws item (ws ',' ws item)* ws ']'
//	item = '0' | [1-9][0-9]*
//
// with ws the JSON whitespace characters: one member spelled exactly so,
// non-empty rows of non-negative integers without sign, fraction, exponent
// or leading zero, and nothing after the object. Anything else is an error,
// so a null item, a repeated member or a second object cannot be ingested
// silently. The limits are checked while parsing: MaxBatch rows, MaxTxItems
// raw items a row (counted before deduplication), items below MaxItem, whose
// digits stop being read once the value reaches it, so it cannot overflow.
//
// The rows are sorted and deduplicated in place in one item arena, sized
// from the body's separators: every item but the first follows its own
// comma, and every row its own '['. A valid body therefore decodes with two
// allocations, whatever its size.
func (s *Server) decodeBatch(body []byte) ([]itemset.Itemset, error) {
	maxBatch, maxTx, maxItem := s.cfg.MaxBatch, s.cfg.MaxTxItems, s.cfg.MaxItem
	i, err := expect(body, 0, '{')
	if err != nil {
		return nil, err
	}
	const member = `"transactions"`
	i = skipSpace(body, i)
	if !bytes.HasPrefix(body[i:], []byte(member)) {
		return nil, syntaxError(body, i, member)
	}
	if i, err = expect(body, i+len(member), ':'); err != nil {
		return nil, err
	}
	if i, err = expect(body, i, '['); err != nil {
		return nil, err
	}
	rest := body[i:]
	rows := make([]itemset.Itemset, 0, min(bytes.Count(rest, []byte("[")), maxBatch))
	arena := make([]itemset.Item, 0, bytes.Count(rest, []byte(","))+1)
	if i = skipSpace(body, i); i < len(body) && body[i] == ']' {
		return nil, errEmptyBatch
	}
	for {
		if len(rows) == maxBatch {
			return nil, fmt.Errorf("%w: more than %d transactions", errBatchTooLarge, maxBatch)
		}
		if i, err = expect(body, i, '['); err != nil {
			return nil, err
		}
		start := len(arena)
		sorted := true
		if i = skipSpace(body, i); i < len(body) && body[i] == ']' {
			return nil, &txError{len(rows), errors.New("no items")}
		}
		for {
			if len(arena)-start == maxTx {
				return nil, &txError{len(rows), fmt.Errorf("more than %d items", maxTx)}
			}
			j := i
			var v int64
			for ; j < len(body) && body[j]-'0' <= 9; j++ {
				v = v*10 + int64(body[j]-'0')
				if v >= maxItem {
					return nil, &txError{len(rows), fmt.Errorf("item at offset %d outside universe [0,%d)", i, maxItem)}
				}
			}
			if j == i {
				return nil, syntaxError(body, i, "a non-negative integer item")
			}
			if body[i] == '0' && j > i+1 {
				return nil, syntaxError(body, i, "an item without a leading zero")
			}
			item := itemset.Item(v) // v < MaxItem ≤ MaxItemLimit, so it fits
			if len(arena) > start && item <= arena[len(arena)-1] {
				sorted = false
			}
			arena = append(arena, item)
			if i = skipSpace(body, j); i < len(body) && body[i] == ',' {
				i = skipSpace(body, i+1)
				continue
			}
			if i < len(body) && body[i] == ']' {
				i++
				break
			}
			return nil, syntaxError(body, i, "',' or ']'")
		}
		if !sorted {
			slices.Sort(arena[start:])
			arena = arena[:start+len(slices.Compact(arena[start:]))]
		}
		rows = append(rows, arena[start:len(arena):len(arena)])
		if i = skipSpace(body, i); i < len(body) && body[i] == ',' {
			i++
			continue
		}
		if i < len(body) && body[i] == ']' {
			i++
			break
		}
		return nil, syntaxError(body, i, "',' or ']'")
	}
	if i, err = expect(body, i, '}'); err != nil {
		return nil, err
	}
	if i = skipSpace(body, i); i != len(body) {
		return nil, syntaxError(body, i, "end of body")
	}
	return rows, nil
}

// expect skips whitespace from i and consumes the byte c, returning the
// position after it.
func expect(body []byte, i int, c byte) (int, error) {
	i = skipSpace(body, i)
	if i < len(body) && body[i] == c {
		return i + 1, nil
	}
	return 0, syntaxError(body, i, fmt.Sprintf("%q", c))
}

// skipSpace returns the position of the first byte from i that is not JSON
// whitespace. Every whitespace byte is at most ' ', which ends the common
// case, a digit or punctuation, after one comparison.
func skipSpace(body []byte, i int) int {
	for i < len(body) && body[i] <= ' ' && (body[i] == ' ' || body[i] == '\n' || body[i] == '\r' || body[i] == '\t') {
		i++
	}
	return i
}

func syntaxError(body []byte, i int, want string) error {
	if i >= len(body) {
		return fmt.Errorf("decode: body ends at offset %d, want %s", i, want)
	}
	return fmt.Errorf("decode: offset %d: found %q, want %s", i, body[i], want)
}
