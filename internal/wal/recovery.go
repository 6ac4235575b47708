package wal

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"mainline/internal/core"
	"mainline/internal/storage"
	"mainline/internal/txn"
)

// maxFrameSize bounds one framed record. A frame length beyond this is
// treated as a torn tail (garbage bytes after a crash can masquerade as a
// huge length prefix; believing it would allocate unboundedly).
const maxFrameSize = 1 << 28

// RecoveryResult summarizes a replay.
type RecoveryResult struct {
	// TxnsApplied counts committed transactions replayed.
	TxnsApplied int
	// TxnsDiscarded counts transactions without commit records (in-flight
	// at the crash) whose redo records were ignored.
	TxnsDiscarded int
	// TxnsSkipped counts committed transactions filtered out because their
	// commit timestamp is at or below ReplayOptions.AfterTs — the
	// checkpoint already holds their effects.
	TxnsSkipped int
	// RecordsApplied counts redo records applied.
	RecordsApplied int
	// TornTail reports whether the log ended mid-record or with a
	// checksum-corrupt record (expected after a crash; everything before
	// the tear is recovered).
	TornTail bool
	// CleanPrefix is the byte offset of the end of the last fully decoded
	// frame — the length recovery can truncate a torn log to so the
	// garbage tail does not masquerade as a mid-history hole on the next
	// startup.
	CleanPrefix int64
	// MaxTs is the largest commit timestamp observed among decoded records
	// (applied, skipped, or read-only). Recovery re-seeds the engine's
	// timestamp counter above it so post-recovery commits never collide
	// with retained log records.
	MaxTs uint64
}

// ReplayOptions filters and anchors a replay.
type ReplayOptions struct {
	// AfterTs skips committed transactions with commit timestamp <=
	// AfterTs: the checkpoint at that snapshot timestamp already contains
	// their effects. Zero replays everything.
	AfterTs uint64
	// SlotMap seeds the logged-slot -> rebuilt-slot remapping, letting
	// post-checkpoint updates and deletes resolve tuples whose inserts
	// were replayed from a checkpoint rather than from the log. The map is
	// extended in place as inserts replay; nil allocates a fresh map.
	SlotMap map[storage.TupleSlot]storage.TupleSlot
}

// ReplayFile streams the log file at path through ReplayStream. A missing
// file yields an empty result.
func ReplayFile(path string, mgr *txn.Manager, tables map[uint32]*core.DataTable, opts *ReplayOptions) (*RecoveryResult, error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return &RecoveryResult{}, nil
		}
		return nil, fmt.Errorf("wal: opening log: %w", err)
	}
	defer f.Close()
	return ReplayStream(f, mgr, tables, opts)
}

// Replay applies a serialized log image (exposed for tests and
// crash-injection harnesses). Equivalent to ReplayStream over the bytes.
func Replay(data []byte, mgr *txn.Manager, tables map[uint32]*core.DataTable) (*RecoveryResult, error) {
	return ReplayStream(bytes.NewReader(data), mgr, tables, nil)
}

// ReplayStream decodes records incrementally from r and applies each
// committed transaction the moment its commit record appears, so recovery
// memory is bounded by the redo records of in-flight transactions — with
// group commit's contiguous per-transaction chunks, at most one — rather
// than by total log size.
//
// Applying at commit-record position (file order) instead of sorting by
// commit timestamp is sound because the log manager keeps the written
// prefix dependency-closed: any transaction a later one could have read
// from reaches the log strictly earlier. Transactions whose commit record
// never appears (in-flight at the crash, or torn off the tail) are
// discarded. Each applied transaction re-executes under a fresh
// transaction from mgr; logged slots are remapped through opts.SlotMap
// (seeded by checkpoint restore) as inserts replay.
func ReplayStream(r io.Reader, mgr *txn.Manager, tables map[uint32]*core.DataTable, opts *ReplayOptions) (*RecoveryResult, error) {
	if opts == nil {
		opts = &ReplayOptions{}
	}
	slotMap := opts.SlotMap
	if slotMap == nil {
		slotMap = make(map[storage.TupleSlot]storage.TupleSlot)
	}
	res := &RecoveryResult{}
	br := bufio.NewReaderSize(r, 1<<16)
	pending := make(map[uint64][]*LogRecord)
	var payload []byte
	for {
		rec, consumed, status, err := readRecord(br, &payload)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if status != frameOK {
			// Mid-frame end of stream or checksum mismatch: the crash
			// tail. Everything before it is the recoverable prefix.
			res.TornTail = true
			break
		}
		res.CleanPrefix += consumed
		if rec.CommitTs > res.MaxTs {
			res.MaxTs = rec.CommitTs
		}
		switch rec.Type {
		case recRedo:
			pending[rec.CommitTs] = append(pending[rec.CommitTs], rec)
		case recCommit:
			if rec.ReadOnly {
				continue
			}
			recs := pending[rec.CommitTs]
			if len(recs) == 0 {
				continue
			}
			delete(pending, rec.CommitTs)
			if rec.CommitTs <= opts.AfterTs {
				res.TxnsSkipped++
				continue
			}
			if err := applyTxn(rec.CommitTs, recs, mgr, tables, slotMap); err != nil {
				return nil, err
			}
			res.TxnsApplied++
			res.RecordsApplied += len(recs)
		}
	}
	res.TxnsDiscarded = len(pending)
	return res, nil
}

// Frame decode outcomes.
const (
	frameOK      = iota // a whole, checksum-valid frame
	frameTorn           // stream ended mid-frame (or absurd length prefix)
	frameCorrupt        // whole frame present but checksum mismatch
)

// readRecord decodes one framed record from br, reporting the bytes the
// frame occupied and its status. It is the single decode path for both
// streaming replay (which treats frameTorn and frameCorrupt alike as the
// crash tail) and DecodeNext (which distinguishes them). A clean end of
// stream returns io.EOF.
func readRecord(br *bufio.Reader, payload *[]byte) (rec *LogRecord, consumed int64, status int, err error) {
	var hdr [8]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		if err == io.EOF {
			return nil, 0, frameTorn, io.EOF
		}
		if err == io.ErrUnexpectedEOF {
			return nil, 0, frameTorn, nil
		}
		return nil, 0, frameTorn, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	crc := binary.LittleEndian.Uint32(hdr[4:])
	if n > maxFrameSize {
		return nil, 0, frameTorn, nil
	}
	if cap(*payload) < int(n) {
		*payload = make([]byte, n)
	}
	buf := (*payload)[:n]
	if _, err := io.ReadFull(br, buf); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil, 0, frameTorn, nil
		}
		return nil, 0, frameTorn, err
	}
	if crc32.Checksum(buf, crcTable) != crc {
		return nil, 0, frameCorrupt, nil
	}
	rec, err = decodePayload(buf)
	if err != nil {
		return nil, 0, frameTorn, err
	}
	return rec, int64(8 + n), frameOK, nil
}

// applyTxn re-executes one committed transaction's redo records under a
// fresh transaction.
func applyTxn(ts uint64, recs []*LogRecord, mgr *txn.Manager, tables map[uint32]*core.DataTable, slotMap map[storage.TupleSlot]storage.TupleSlot) error {
	tx := mgr.Begin()
	for _, rec := range recs {
		if err := applyRecord(tx, rec, tables, slotMap); err != nil {
			mgr.Abort(tx)
			return fmt.Errorf("wal: replay of txn %d failed: %w", ts, err)
		}
	}
	mgr.Commit(tx, nil)
	return nil
}

func applyRecord(tx *txn.Transaction, rec *LogRecord, tables map[uint32]*core.DataTable, slotMap map[storage.TupleSlot]storage.TupleSlot) error {
	table, ok := tables[rec.TableID]
	if !ok {
		return fmt.Errorf("wal: unknown table %d", rec.TableID)
	}
	switch rec.Kind {
	case storage.KindInsert:
		row, err := rowFromRecord(table, rec)
		if err != nil {
			return err
		}
		newSlot, err := table.Insert(tx, row)
		if err != nil {
			return err
		}
		slotMap[rec.Slot] = newSlot
	case storage.KindUpdate:
		row, err := rowFromRecord(table, rec)
		if err != nil {
			return err
		}
		slot, ok := slotMap[rec.Slot]
		if !ok {
			return fmt.Errorf("wal: update of unknown slot %v", rec.Slot)
		}
		if err := table.Update(tx, slot, row); err != nil {
			return err
		}
	case storage.KindDelete:
		slot, ok := slotMap[rec.Slot]
		if !ok {
			return fmt.Errorf("wal: delete of unknown slot %v", rec.Slot)
		}
		if err := table.Delete(tx, slot); err != nil {
			return err
		}
	}
	return nil
}

func rowFromRecord(table *core.DataTable, rec *LogRecord) (*storage.ProjectedRow, error) {
	cols := make([]storage.ColumnID, len(rec.Cols))
	for i, c := range rec.Cols {
		cols[i] = c.Col
	}
	proj, err := storage.NewProjection(table.Layout(), cols)
	if err != nil {
		return nil, err
	}
	row := proj.NewRow()
	for i, c := range rec.Cols {
		switch {
		case c.Null:
			row.SetNull(i)
		case c.Varlen:
			row.SetVarlen(i, c.Value)
		default:
			copy(row.FixedBytes(i), c.Value)
			row.Nulls.Clear(i)
		}
	}
	return row, nil
}
