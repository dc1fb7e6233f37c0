package db

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"

	"repro/internal/itemset"
)

// Binary file format (little endian):
//
//	magic   uint32  'ARDB'
//	version uint32  1
//	numItem uint32
//	count   uint64  number of transactions
//	repeat count times:
//	    tid   uint64
//	    len   uint32
//	    items len × uint32
//
// The format mirrors the paper's <TID, i1…ik> rows and keeps reads fully
// sequential, matching the single-disk access pattern of the evaluation.

const (
	magic   = 0x41524442 // "ARDB"
	version = 1

	headerLen = 20 // magic, version, numItem, count
	rowLen    = 12 // tid and len of one transaction record
)

// Write streams the database to w in the binary format.
func (d *Database) Write(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	var hdr [headerLen]byte
	binary.LittleEndian.PutUint32(hdr[0:], magic)
	binary.LittleEndian.PutUint32(hdr[4:], version)
	binary.LittleEndian.PutUint32(hdr[8:], uint32(d.numItem))
	binary.LittleEndian.PutUint64(hdr[12:], uint64(d.Len()))
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	var buf [rowLen]byte
	for i := 0; i < d.Len(); i++ {
		items := d.Items(i)
		binary.LittleEndian.PutUint64(buf[0:], uint64(d.tids[i]))
		binary.LittleEndian.PutUint32(buf[8:], uint32(len(items)))
		if _, err := bw.Write(buf[:]); err != nil {
			return err
		}
		for _, it := range items {
			var ib [4]byte
			binary.LittleEndian.PutUint32(ib[:], uint32(it))
			if _, err := bw.Write(ib[:]); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// decodeWindow bounds the byte window the streaming decoder reads through:
// items are pulled from the source in at most this many bytes at a time, so
// decoding never holds more than one window plus one transaction in flight.
const decodeWindow = 1 << 16

// DecodeTransactions streams count records of the binary row layout
// (tid u64, len u32, items len×u32, little endian) from r, invoking emit for
// each after validating it (item range, sortedness). The itemset passed to
// emit aliases a reusable internal buffer that the next record overwrites;
// emit must copy anything it retains (Database.TryAppend copies).
//
// Items are decoded through a fixed decodeWindow-byte buffer in bulk rather
// than one 4-byte ReadFull per item, so arbitrarily long inputs stream in
// constant memory at memory-bandwidth speed. The database reader and the
// segment-store loaders share this path.
func DecodeTransactions(r io.Reader, count uint64, numItems int, emit func(tid int64, items itemset.Itemset) error) error {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReaderSize(r, decodeWindow)
	}
	var hdr [rowLen]byte
	raw := make([]byte, decodeWindow)
	items := make(itemset.Itemset, 0, 256)
	for t := uint64(0); t < count; t++ {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return fmt.Errorf("db: transaction %d header: %w", t, err)
		}
		tid := int64(binary.LittleEndian.Uint64(hdr[0:]))
		n := binary.LittleEndian.Uint32(hdr[8:])
		if n > 1<<20 {
			return fmt.Errorf("db: transaction %d has implausible length %d", t, n)
		}
		if cap(items) < int(n) {
			items = make(itemset.Itemset, 0, n)
		}
		items = items[:0]
		for rem := int(n); rem > 0; {
			chunk := rem
			if chunk > len(raw)/4 {
				chunk = len(raw) / 4
			}
			if _, err := io.ReadFull(br, raw[:4*chunk]); err != nil {
				return fmt.Errorf("db: transaction %d item %d: %w", t, len(items), err)
			}
			for i := 0; i < chunk; i++ {
				v := binary.LittleEndian.Uint32(raw[4*i:])
				if v >= uint32(numItems) {
					return fmt.Errorf("db: transaction %d item %d outside universe [0,%d)", t, v, numItems)
				}
				items = append(items, itemset.Item(v))
			}
			rem -= chunk
		}
		if !items.IsSorted() {
			return fmt.Errorf("db: transaction %d (tid %d) not sorted", t, tid)
		}
		if err := emit(tid, items); err != nil {
			return fmt.Errorf("db: transaction %d (tid %d): %w", t, tid, err)
		}
	}
	return nil
}

// Read parses a database from r.
func Read(r io.Reader) (*Database, error) { return read(r, -1) }

// read parses a database from r. size, when non-negative, is the byte length
// of the input, which lets the columns be allocated once instead of grown by
// doubling (see presize).
func read(r io.Reader, size int64) (*Database, error) {
	br := bufio.NewReaderSize(r, decodeWindow)
	var hdr [headerLen]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("db: reading header: %w", err)
	}
	if m := binary.LittleEndian.Uint32(hdr[0:]); m != magic {
		return nil, fmt.Errorf("db: bad magic %#x", m)
	}
	if v := binary.LittleEndian.Uint32(hdr[4:]); v != version {
		return nil, fmt.Errorf("db: unsupported version %d", v)
	}
	numItem := int(binary.LittleEndian.Uint32(hdr[8:]))
	if numItem > 1<<31-1 {
		return nil, fmt.Errorf("db: item universe %d overflows int32 items", numItem)
	}
	count := binary.LittleEndian.Uint64(hdr[12:])
	d := New(numItem)
	d.presize(count, size)
	// External files can legitimately exceed the int32-offset arena (2³¹−1
	// item occurrences); TryAppend surfaces that as a read error instead of
	// the silent offset wrap-around the unchecked append used to allow.
	if err := DecodeTransactions(br, count, numItem, d.TryAppend); err != nil {
		return nil, err
	}
	return d, nil
}

// presize allocates the columns of a database of count transactions read
// from a size-byte file: the tids and offsets hold count rows, and the arena
// holds every item the records after the row headers can carry. It does
// nothing when size is unknown (negative) or when count rows of rowLen bytes
// would not fit the file, so a header cannot force an allocation larger than
// the file; the arena is left to grow when it would exceed the arena cap,
// so the decoder reports ErrArenaFull at the offending transaction.
func (d *Database) presize(count uint64, size int64) {
	if size < headerLen || count > uint64(size-headerLen)/rowLen {
		return
	}
	d.tids = make([]int64, 0, count)
	d.offsets = make([]int32, 1, count+1)
	if items := (uint64(size-headerLen) - rowLen*count) / 4; items <= uint64(maxArenaItems) {
		d.arena = make([]itemset.Item, 0, items)
	}
}

// WriteFile writes the database to path.
func (d *Database) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := d.Write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadFile loads a database from path, allocating its columns once from the
// header's transaction count and the file size.
func ReadFile(path string) (*Database, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	// A pipe or device reports size 0, which presizes nothing.
	return read(f, st.Size())
}
