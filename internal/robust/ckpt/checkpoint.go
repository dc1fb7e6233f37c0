// Package ckpt implements the versioned binary checkpoint format behind
// ccpd.Resume: after each completed k-iteration a mining run can serialize
// its frequent sets and deterministic work model, and a later process can
// continue bit-identically from that point. It lives apart from the base
// robust package (which hashtree imports for its panic error type) because
// the snapshot payload is apriori data.
package ckpt

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"

	"repro/internal/apriori"
	"repro/internal/itemset"
)

// Checkpoint format (little endian), version 1:
//
//	magic      [8]byte  "ARMCKPT1"
//	minCount   int64
//	dbLen      int64
//	numItems   int64
//	totalItems int64    Σ|t| of the source database
//	procs      int64
//	optsHash   uint64   fingerprint of the determinism-relevant options
//	nextK      int64    iteration a resumed run starts at
//	done       uint8    1 when the run reached its natural fixpoint
//	numK       int64    len(ByK)
//	numK ×:    count int64, then count × { klen int32, klen × int32, support int64 }
//	numIters   int64
//	numIters ×: K int64, Candidates int64, Frequent int64, GenSequential uint8,
//	            Batches int64, BuildWork int64, ReduceWork int64,
//	            4 × (len int64, len × int64)   GenWork, CountWork, ChunksClaimed, unused
//
// The fourth vector held per-processor chunk steals while the stealing
// partition claimed from work-stealing deques. It is written empty and
// skipped on read, so the layout stays version 1 and older files load.
//
// Wall-clock phase durations are deliberately absent, so a resumed run's
// pinned work-model totals (TestModelTimePinned) are bit-identical to a
// straight-through run while its wall clock reflects only the work it
// actually performed. Everything serialized is deterministic-model state
// except ChunksClaimed: the claims are observed and vary from run to run,
// and are carried only so a resumed run reports the claims of every
// iteration.

const ckptMagic = "ARMCKPT1"

// sanity bounds for the reader: a corrupt or truncated file must produce an
// error, never a huge allocation or a silent partial load.
const (
	maxCkptSets     = 1 << 31 // frequent itemsets per k
	maxCkptSetLen   = 1 << 20 // items per itemset (mirrors the db reader's cap)
	maxCkptIters    = 1 << 20
	maxCkptPerProcs = 1 << 20
)

// IterSnapshot is the deterministic slice of one iteration's PhaseTiming:
// the work-model fields the pinned tests gate on, plus the observed chunk
// claims, without the wall-clock durations (which a resumed run cannot and
// should not reproduce).
type IterSnapshot struct {
	K             int
	Candidates    int
	Frequent      int
	GenSequential bool
	// Batches is how many candidate batches the iteration used (1 when the
	// candidate set fit in the memory budget).
	Batches    int
	BuildWork  int64
	ReduceWork int64
	GenWork    []int64
	CountWork  []int64
	// ChunksClaimed is nil for static partition modes.
	ChunksClaimed []int64
}

// Checkpoint is one versioned snapshot of a mining run after a completed
// iteration: the frequent sets found so far, the deterministic per-iteration
// work model, and the fingerprint a resume validates against.
type Checkpoint struct {
	MinCount   int64
	DBLen      int64
	NumItems   int64
	TotalItems int64
	Procs      int
	// OptsHash fingerprints the options that determine the run's output and
	// work model (support, tree shape, balance, partition mode, …). Resume
	// refuses a checkpoint whose hash differs from the offered options.
	OptsHash uint64
	// NextK is the iteration a resumed run continues with.
	NextK int
	// Done marks a run that reached its natural fixpoint: resuming returns
	// the reconstructed result without running any further iteration.
	Done  bool
	ByK   [][]apriori.FrequentItemset
	Iters []IterSnapshot
}

// Write serializes the checkpoint to w.
func (c *Checkpoint) Write(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.WriteString(ckptMagic); err != nil {
		return err
	}
	wi := func(v int64) { writeI64(bw, v) }
	wi(c.MinCount)
	wi(c.DBLen)
	wi(c.NumItems)
	wi(c.TotalItems)
	wi(int64(c.Procs))
	writeU64(bw, c.OptsHash)
	wi(int64(c.NextK))
	writeBool(bw, c.Done)
	wi(int64(len(c.ByK)))
	for _, fk := range c.ByK {
		wi(int64(len(fk)))
		for _, f := range fk {
			writeI32(bw, int32(len(f.Items)))
			for _, it := range f.Items {
				writeI32(bw, int32(it))
			}
			wi(f.Count)
		}
	}
	wi(int64(len(c.Iters)))
	for i := range c.Iters {
		it := &c.Iters[i]
		wi(int64(it.K))
		wi(int64(it.Candidates))
		wi(int64(it.Frequent))
		writeBool(bw, it.GenSequential)
		wi(int64(it.Batches))
		wi(it.BuildWork)
		wi(it.ReduceWork)
		for _, vec := range [][]int64{it.GenWork, it.CountWork, it.ChunksClaimed, nil} {
			wi(int64(len(vec)))
			for _, v := range vec {
				wi(v)
			}
		}
	}
	return bw.Flush()
}

// ReadCheckpoint parses a checkpoint from r, validating the magic, version
// and every length field.
func ReadCheckpoint(r io.Reader) (*Checkpoint, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var m [8]byte
	if _, err := io.ReadFull(br, m[:]); err != nil {
		return nil, fmt.Errorf("ckpt: checkpoint magic: %w", err)
	}
	if string(m[:]) != ckptMagic {
		return nil, fmt.Errorf("ckpt: bad checkpoint magic %q (want %q)", m[:], ckptMagic)
	}
	c := &Checkpoint{}
	var err error
	ri := func() int64 {
		if err != nil {
			return 0
		}
		var v int64
		v, err = readI64(br)
		return v
	}
	c.MinCount = ri()
	c.DBLen = ri()
	c.NumItems = ri()
	c.TotalItems = ri()
	c.Procs = int(ri())
	if err == nil {
		c.OptsHash, err = readU64(br)
	}
	c.NextK = int(ri())
	if err == nil {
		c.Done, err = readBool(br)
	}
	numK := ri()
	if err != nil {
		return nil, fmt.Errorf("ckpt: checkpoint header: %w", err)
	}
	if numK < 0 || numK > maxCkptIters {
		return nil, fmt.Errorf("ckpt: checkpoint: implausible ByK length %d", numK)
	}
	c.ByK = make([][]apriori.FrequentItemset, numK)
	for k := range c.ByK {
		n := ri()
		if err != nil {
			return nil, fmt.Errorf("ckpt: checkpoint ByK[%d]: %w", k, err)
		}
		if n < 0 || n > maxCkptSets {
			return nil, fmt.Errorf("ckpt: checkpoint ByK[%d]: implausible count %d", k, n)
		}
		// Cap the preallocation: the length field is untrusted until the
		// entries actually parse, and a corrupt count must fail with a read
		// error, not a multi-gigabyte allocation.
		fk := make([]apriori.FrequentItemset, 0, int(min(n, 1<<16)))
		for i := int64(0); i < n; i++ {
			klen, e := readI32(br)
			if e != nil {
				return nil, fmt.Errorf("ckpt: checkpoint ByK[%d][%d]: %w", k, i, e)
			}
			if klen < 1 || klen > maxCkptSetLen {
				return nil, fmt.Errorf("ckpt: checkpoint ByK[%d][%d]: implausible itemset length %d", k, i, klen)
			}
			items := make(itemset.Itemset, klen)
			for j := range items {
				v, e := readI32(br)
				if e != nil {
					return nil, fmt.Errorf("ckpt: checkpoint ByK[%d][%d] item %d: %w", k, i, j, e)
				}
				items[j] = itemset.Item(v)
			}
			count := ri()
			if err != nil {
				return nil, fmt.Errorf("ckpt: checkpoint ByK[%d][%d] count: %w", k, i, err)
			}
			fk = append(fk, apriori.FrequentItemset{Items: items, Count: count})
		}
		c.ByK[k] = fk
	}
	numIters := ri()
	if err != nil {
		return nil, fmt.Errorf("ckpt: checkpoint iters: %w", err)
	}
	if numIters < 0 || numIters > maxCkptIters {
		return nil, fmt.Errorf("ckpt: checkpoint: implausible iteration count %d", numIters)
	}
	c.Iters = make([]IterSnapshot, numIters)
	for i := range c.Iters {
		it := &c.Iters[i]
		it.K = int(ri())
		it.Candidates = int(ri())
		it.Frequent = int(ri())
		if err == nil {
			it.GenSequential, err = readBool(br)
		}
		it.Batches = int(ri())
		it.BuildWork = ri()
		it.ReduceWork = ri()
		var unused []int64
		for v, dst := range []*[]int64{&it.GenWork, &it.CountWork, &it.ChunksClaimed, &unused} {
			n := ri()
			if err != nil {
				return nil, fmt.Errorf("ckpt: checkpoint iter %d vec %d: %w", i, v, err)
			}
			if n < 0 || n > maxCkptPerProcs {
				return nil, fmt.Errorf("ckpt: checkpoint iter %d vec %d: implausible length %d", i, v, n)
			}
			if n == 0 {
				continue
			}
			vec := make([]int64, n)
			for j := range vec {
				vec[j] = ri()
			}
			*dst = vec
		}
		if err != nil {
			return nil, fmt.Errorf("ckpt: checkpoint iter %d: %w", i, err)
		}
	}
	return c, nil
}

// WriteFile writes the checkpoint atomically: a temp file in the same
// directory, fsynced, then renamed over path — a kill mid-write leaves the
// previous checkpoint intact rather than a truncated one.
func (c *Checkpoint) WriteFile(path string) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := c.Write(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// ReadCheckpointFile loads and validates a checkpoint from path.
func ReadCheckpointFile(path string) (*Checkpoint, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadCheckpoint(f)
}

// --- little-endian primitives ---

func writeI64(w *bufio.Writer, v int64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(v))
	w.Write(b[:])
}

func writeU64(w *bufio.Writer, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	w.Write(b[:])
}

func writeI32(w *bufio.Writer, v int32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], uint32(v))
	w.Write(b[:])
}

func writeBool(w *bufio.Writer, v bool) {
	if v {
		w.WriteByte(1)
	} else {
		w.WriteByte(0)
	}
}

func readI64(r *bufio.Reader) (int64, error) {
	var b [8]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return 0, err
	}
	return int64(binary.LittleEndian.Uint64(b[:])), nil
}

func readU64(r *bufio.Reader) (uint64, error) {
	var b [8]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b[:]), nil
}

func readI32(r *bufio.Reader) (int32, error) {
	var b [4]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return 0, err
	}
	return int32(binary.LittleEndian.Uint32(b[:])), nil
}

func readBool(r *bufio.Reader) (bool, error) {
	b, err := r.ReadByte()
	if err != nil {
		return false, err
	}
	return b != 0, nil
}
