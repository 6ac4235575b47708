package transform

import (
	"encoding/binary"
	"fmt"
	"sort"

	"mainline/internal/storage"
	"mainline/internal/txn"
	"mainline/internal/util"
)

// Mode selects the gather phase's target format (§4.4 Alternative Formats).
type Mode int

// Gather targets.
const (
	// ModeGather copies variable-length values into a contiguous buffer —
	// canonical Arrow.
	ModeGather Mode = iota
	// ModeDictionary builds a sorted dictionary and an int32 code array —
	// the Parquet/ORC-style compressed layout; an order of magnitude more
	// expensive than the plain gather.
	ModeDictionary
)

// String names the mode.
func (m Mode) String() string {
	if m == ModeDictionary {
		return "dictionary"
	}
	return "gather"
}

// GatherBlock runs the Phase-2 critical section on a block already in the
// Freezing state: it copies varlen values into contiguous Arrow buffers (or
// a dictionary), rewrites every VarlenEntry to reference the new storage,
// serializes validity bitmaps into the block, computes null counts, and
// marks the block Frozen. Reads may proceed concurrently — only physical
// value locations change, never logical content (§4.3). The hot arena's
// slabs are released through d's deferred actions; a nil d releases them
// at once, for callers that know no reader is active.
func GatherBlock(block *storage.Block, mode Mode, d txn.Deferrer) error {
	if block.State() != storage.StateFreezing {
		return fmt.Errorf("transform: gather on %s block", block.State())
	}
	layout := block.Layout
	rows := block.FilledSlots()
	// Compaction left tuples logically contiguous; verify before trusting
	// slot order.
	for s := uint32(0); s < uint32(rows); s++ {
		if !block.Allocated(s) {
			return fmt.Errorf("transform: gap at slot %d of %d; block not compacted", s, rows)
		}
	}

	nullCounts := make([]int, layout.NumColumns())
	frozen := make([]*storage.FrozenVarlen, layout.NumColumns())
	for c := 0; c < layout.NumColumns(); c++ {
		col := storage.ColumnID(c)
		valid := 0
		for s := uint32(0); s < uint32(rows); s++ {
			if block.IsValid(col, s) {
				valid++
			}
		}
		nullCounts[c] = rows - valid
		if !layout.IsVarlen(col) {
			block.WriteFrozenValidity(col, rows)
			continue
		}
		var err error
		if mode == ModeDictionary {
			frozen[c], err = gatherDictionary(block, col, rows)
		} else {
			frozen[c], err = gatherContiguous(block, col, rows)
		}
		if err != nil {
			return err
		}
		block.WriteFrozenValidity(col, rows)
	}
	block.SetFrozenMeta(rows, frozen, nullCounts)
	// Freeze-time statistics must be published before the state flips so a
	// scan that observes Frozen can trust any zone map it then loads (see
	// storage.ZoneMap).
	block.SetZoneMap(buildZoneMap(block, rows, nullCounts))
	// New readers no longer reach the pre-gather arena, but a hot reader
	// may have copied an entry just before it was rewritten: retire the
	// slabs now and release them once every transaction active now has
	// finished.
	retired := block.RetireArena()
	block.SetState(storage.StateFrozen)
	if d != nil {
		d.RegisterAction(retired.Release)
	} else {
		retired.Release()
	}
	return nil
}

// gatherContiguous builds the offsets+values pair for one varlen column and
// rewrites the column's entries to point into it. Every value is snapshotted
// through the column's CURRENT resolution (inline, arena, or previous frozen
// epoch) before anything is republished: on a re-freeze — a block that was
// frozen, possibly evicted and re-thawed, then thawed and modified — the
// unmodified entries are frozen handles, and resolving them after the alias
// swap would read the not-yet-filled replacement buffer. The new buffer is
// filled completely before the alias is published and any entry rewritten,
// so a concurrent reader resolving either entry epoch sees finished bytes.
func gatherContiguous(block *storage.Block, col storage.ColumnID, rows int) (*storage.FrozenVarlen, error) {
	vals := make([][]byte, rows)
	total := 0
	for s := uint32(0); s < uint32(rows); s++ {
		if block.IsValid(col, s) {
			vals[s] = block.ReadVarlen(col, s)
			total += len(vals[s])
		}
	}
	values := make([]byte, util.Align8(total))
	offsets := make([]byte, 0, util.Align8((rows+1)*4))
	offs := make([]int, rows)
	off := 0
	for s := 0; s < rows; s++ {
		offsets = binary.LittleEndian.AppendUint32(offsets, uint32(off))
		offs[s] = off
		if !block.IsValid(col, uint32(s)) {
			continue
		}
		off += copy(values[off:], vals[s])
	}
	offsets = binary.LittleEndian.AppendUint32(offsets, uint32(off))
	fv := &storage.FrozenVarlen{Values: values, Offsets: pad8(offsets)}
	block.SetFrozenVarlenAlias(col, fv)
	for s := 0; s < rows; s++ {
		if !block.IsValid(col, uint32(s)) {
			continue
		}
		// Rewrite against the new, stable buffer so the entry's
		// prefix/inline bytes alias immutable frozen memory.
		n := len(vals[s])
		block.RewriteVarlenEntry(col, uint32(s), values[offs[s]:offs[s]+n:offs[s]+n], offs[s])
	}
	return fv, nil
}

// gatherDictionary builds the sorted dictionary + code array for one varlen
// column (§4.4): one scan to collect the sorted value set, a second to emit
// codes and rewrite entries against dictionary storage. It returns the
// values-buffer alias installed for frozen-handle resolution.
func gatherDictionary(block *storage.Block, col storage.ColumnID, rows int) (*storage.FrozenVarlen, error) {
	// Scan 1: sorted set of distinct values, snapshotted through the
	// column's CURRENT resolution — scan 2 must not re-resolve entries
	// after the alias swap below, since on a re-freeze the old entries are
	// frozen handles whose offsets address the previous epoch's buffer.
	vals := make([][]byte, rows)
	set := make(map[string]struct{}, rows)
	for s := uint32(0); s < uint32(rows); s++ {
		if block.IsValid(col, s) {
			vals[s] = block.ReadVarlen(col, s)
			set[string(vals[s])] = struct{}{}
		}
	}
	words := make([]string, 0, len(set))
	for w := range set {
		words = append(words, w)
	}
	sort.Strings(words)

	dictValues := make([]byte, 0)
	dictOffsets := make([]byte, 0, util.Align8((len(words)+1)*4))
	codeOf := make(map[string]int32, len(words))
	valueOff := make(map[string]int, len(words))
	for i, w := range words {
		dictOffsets = binary.LittleEndian.AppendUint32(dictOffsets, uint32(len(dictValues)))
		codeOf[w] = int32(i)
		valueOff[w] = len(dictValues)
		dictValues = append(dictValues, w...)
	}
	dictOffsets = binary.LittleEndian.AppendUint32(dictOffsets, uint32(len(dictValues)))
	dictValues = pad8(dictValues)

	d := &storage.FrozenDict{
		DictOffsets: pad8(dictOffsets),
		DictValues:  dictValues,
		NumEntries:  len(words),
	}
	// ReadVarlen resolves frozen handles through FrozenVarlenCol: alias the
	// dictionary values buffer there before rewriting any entry.
	alias := &storage.FrozenVarlen{Values: dictValues}
	block.SetFrozenVarlenAlias(col, alias)

	// Scan 2: codes + entry rewrite against the dictionary buffer.
	codes := make([]byte, 0, util.Align8(rows*4))
	for s := uint32(0); s < uint32(rows); s++ {
		if !block.IsValid(col, s) {
			codes = binary.LittleEndian.AppendUint32(codes, 0)
			continue
		}
		w := string(vals[s])
		code, ok := codeOf[w]
		if !ok {
			return nil, fmt.Errorf("transform: value appeared during dictionary build")
		}
		codes = binary.LittleEndian.AppendUint32(codes, uint32(code))
		off := valueOff[w]
		block.RewriteVarlenEntry(col, s, dictValues[off:off+len(w):off+len(w)], off)
	}
	d.Codes = pad8(codes)
	block.SetFrozenDict(col, d)
	return alias, nil
}

func pad8(b []byte) []byte {
	for len(b)%8 != 0 {
		b = append(b, 0)
	}
	return b
}
