// Package wal implements the paper's logging and recovery components
// (§3.4): transactions encode physical after-images into redo buffers as
// they write; at commit the transaction joins the flush queue; the log manager batches
// fsyncs (group commit) and invokes durability callbacks afterwards.
// Records are ordered implicitly by commit timestamp — there are no log
// sequence numbers.
//
// # Group-commit protocol
//
// The pipeline has two halves joined by sharded pending queues:
//
//  1. Enqueue (committing goroutines, parallel): each committer frames
//     its own already-encoded redo buffer with its commit timestamp and
//     CRCs into a pooled chunk — encoding cost is paid on the core that
//     ran the transaction, not by the single flusher — and appends the
//     chunk to one of the enqueue shards.
//  2. Flush (one goroutine): FlushOnce drains every shard, concatenates
//     the chunks, issues ONE sink write and ONE fsync for the whole group,
//     and only then fires each transaction's durability callback.
//
// Durability guarantees: a transaction's durable callback fires only after
// the fsync covering its commit record returns; if the write or sync
// fails, no callback in that group fires. The engine treats transactions
// as logically committed at Commit (their versions are visible), but
// clients should be answered only from the durable callback — the paper's
// "results are not returned until durable" rule.
//
// Ordering invariants: chunks reach the log in arbitrary interleaving
// across transactions (commits race on different latch shards), but each
// transaction's records are contiguous, its commit record last. Recovery
// therefore groups redo records by commit timestamp, applies only
// timestamps whose commit record survived, and replays groups in
// commit-timestamp order — byte order in the file carries no meaning
// beyond the torn-tail cutoff.
//
// Chunks race into the queue out of timestamp order, but the DISK prefix
// must stay dependency-closed: if T2 read T1's writes (so commitTs(T1) <
// commitTs(T2)) and T2 reached disk without T1, a crash would recover T2
// alone — recovery either fails on the missing slot or materializes a
// state that never existed. When attached to a transaction manager
// (LogManager.Attach), the flusher writes only chunks below the write
// frontier — min of the manager's CommitFrontier and the oldest
// enqueued-but-unwritten commit — re-queues the rest, and sorts each
// group by timestamp so torn tails stay closed too; see FlushOnce.
package wal

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"mainline/internal/storage"
	"mainline/internal/txn"
)

// Record type tags in the on-disk format.
const (
	recRedo   byte = 2
	recCommit byte = 1
)

// Errors returned by log deserialization.
var (
	// ErrCorrupt indicates a checksum mismatch. DecodeNext surfaces it to
	// callers; the streaming replay path (ReplayStream) instead treats the
	// mismatch as the crash tail — everything before it is recovered,
	// everything from it on is discarded.
	ErrCorrupt = errors.New("wal: corrupt record")
)

// Framing: every record is [u32 payloadLen][u32 crc32c(payload)][payload].
//
// Redo payload:    [recRedo][u64 commitTs][body]
// Commit payload:  [recCommit][u64 commitTs][u8 readOnly]
//
// body is [u32 tableID][u64 slot][u8 kind][row], encoded by the writing
// transaction at write time (txn.AppendRedoBody, which documents the row
// encoding; txn.DecodeRedoBody reads it back); the log manager only adds
// the commit timestamp and the frame.

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// beginFrame reserves the length and CRC words of a frame at the end of
// dst; sealFrame fills them in once the payload after them is appended.
func beginFrame(dst []byte) ([]byte, int) {
	return append(dst, 0, 0, 0, 0, 0, 0, 0, 0), len(dst)
}

func sealFrame(dst []byte, at int) []byte {
	payload := dst[at+8:]
	binary.LittleEndian.PutUint32(dst[at:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[at+4:], crc32.Checksum(payload, crcTable))
	return dst
}

// AppendRedo frames one encoded redo body (txn.AppendRedoBody) for a
// transaction committed at ts.
func AppendRedo(dst []byte, ts uint64, body []byte) []byte {
	dst, at := beginFrame(dst)
	dst = append(dst, recRedo)
	dst = binary.LittleEndian.AppendUint64(dst, ts)
	dst = append(dst, body...)
	return sealFrame(dst, at)
}

// AppendCommit serializes a commit record.
func AppendCommit(dst []byte, ts uint64, readOnly bool) []byte {
	dst, at := beginFrame(dst)
	dst = append(dst, recCommit)
	dst = binary.LittleEndian.AppendUint64(dst, ts)
	var ro byte
	if readOnly {
		ro = 1
	}
	dst = append(dst, ro)
	return sealFrame(dst, at)
}

// LogRecord is a decoded log entry.
type LogRecord struct {
	Type     byte
	CommitTs uint64
	ReadOnly bool

	TableID uint32
	Slot    storage.TupleSlot
	Kind    storage.RecordKind
	// Columns of the after-image (nil for deletes/commits).
	Cols []LogColumn
}

// LogColumn is one column value of a logged after-image.
type LogColumn = txn.RedoColumn

// DecodeNext decodes one framed record from buf, returning the record and
// the remaining bytes. io semantics: (nil, buf, nil) when buf holds a
// partial frame — the torn tail after a crash — and ErrCorrupt when a
// whole frame fails its checksum. It shares readRecord with the streaming
// replay path so the frame format has exactly one decoder.
func DecodeNext(buf []byte) (*LogRecord, []byte, error) {
	var payload []byte
	rec, consumed, status, err := readRecord(bufio.NewReader(bytes.NewReader(buf)), &payload)
	if err == io.EOF {
		return nil, buf, nil
	}
	if err != nil {
		return nil, buf, err
	}
	switch status {
	case frameTorn:
		return nil, buf, nil
	case frameCorrupt:
		return nil, buf, ErrCorrupt
	}
	return rec, buf[consumed:], nil
}

func decodePayload(p []byte) (*LogRecord, error) {
	if len(p) < 9 {
		return nil, fmt.Errorf("wal: short payload")
	}
	rec := &LogRecord{Type: p[0], CommitTs: binary.LittleEndian.Uint64(p[1:9])}
	p = p[9:]
	switch rec.Type {
	case recCommit:
		if len(p) < 1 {
			return nil, fmt.Errorf("wal: short commit record")
		}
		rec.ReadOnly = p[0] == 1
		return rec, nil
	case recRedo:
		var err error
		rec.TableID, rec.Slot, rec.Kind, rec.Cols, err = txn.DecodeRedoBody(p)
		if err != nil {
			return nil, err
		}
		return rec, nil
	default:
		return nil, fmt.Errorf("wal: unknown record type %d", rec.Type)
	}
}
