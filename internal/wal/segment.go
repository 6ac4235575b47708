package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"mainline/internal/fault"
)

// Segment file naming: wal-<8-digit-seq>.log inside the WAL directory.
const segmentPattern = "wal-%08d.log"

// DefaultSegmentSize is the rotation threshold when none is configured:
// groups are appended to the active segment until it exceeds this many
// bytes, then a fresh segment is opened. Log retention is therefore
// bounded by checkpoint cadence, not by total history.
const DefaultSegmentSize = 4 << 20

// SegmentInfo describes one sealed (no longer written) WAL segment.
type SegmentInfo struct {
	// Seq is the segment's position in the log order.
	Seq uint64
	// Path is the segment file location.
	Path string
	// Size is the segment length in bytes.
	Size int64
	// MaxTs is the largest commit timestamp recorded in the segment (0
	// when the segment holds no records). Because the log manager keeps the
	// written prefix dependency-closed and each group lands wholly inside
	// one segment, a segment with MaxTs <= a checkpoint's snapshot
	// timestamp is wholly covered by that checkpoint and safe to delete.
	MaxTs uint64
}

// SegmentName returns the file name of segment seq.
func SegmentName(seq uint64) string { return fmt.Sprintf(segmentPattern, seq) }

// ParseSegmentName extracts the sequence number from a segment file name.
func ParseSegmentName(name string) (uint64, bool) {
	var seq uint64
	if _, err := fmt.Sscanf(name, segmentPattern, &seq); err != nil {
		return 0, false
	}
	if name != SegmentName(seq) {
		return 0, false
	}
	return seq, true
}

// ListSegments enumerates the WAL segments in dir in ascending sequence
// order. MaxTs is left zero — callers that need it (truncation planning)
// learn it by replaying or from the running sink. A missing directory
// yields an empty list.
func ListSegments(dir string) ([]SegmentInfo, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("wal: listing segments: %w", err)
	}
	var segs []SegmentInfo
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		seq, ok := ParseSegmentName(e.Name())
		if !ok {
			continue
		}
		info, err := e.Info()
		if err != nil {
			return nil, err
		}
		segs = append(segs, SegmentInfo{Seq: seq, Path: filepath.Join(dir, e.Name()), Size: info.Size()})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].Seq < segs[j].Seq })
	return segs, nil
}

// GroupSink is a Sink that wants to know each group's maximum commit
// timestamp, so it can rotate between groups and attribute timestamps to
// segments. The log manager prefers WriteGroup over Write when the sink
// implements it.
type GroupSink interface {
	Sink
	// WriteGroup appends one whole flush group. maxTs is the largest
	// commit timestamp among the group's transactions.
	WriteGroup(p []byte, maxTs uint64) (int, error)
}

// Truncator is a Sink that can discard sealed segments wholly covered by a
// checkpoint. LogManager.Truncate forwards to it under the flush lock.
type Truncator interface {
	// TruncateThrough seals the active segment (if it holds data) and
	// deletes every sealed segment whose MaxTs <= ts, returning how many
	// were removed.
	TruncateThrough(ts uint64) (int, error)
}

// SegmentedSink is a Sink backed by a directory of rotating segment files
// (wal-<seq>.log). Rotation happens only between flush groups, so every
// framed record — and every dependency-closed group — lives wholly inside
// one segment; per-segment maximum commit timestamps then make truncation
// an exact, crash-safe operation (delete whole files, no rewriting).
type SegmentedSink struct {
	fsys        fault.FS
	dir         string
	segmentSize int64

	mu     sync.Mutex
	f      fault.File
	seq    uint64 // active segment sequence
	size   int64  // active segment bytes written
	maxTs  uint64 // active segment max commit ts
	sealed []SegmentInfo

	truncated atomic.Int64 // lifetime segments deleted
}

// OpenSegmentedSink opens a segmented WAL in dir against the real
// filesystem; see OpenSegmentedSinkFS.
func OpenSegmentedSink(dir string, segmentSize int64, sealed []SegmentInfo) (*SegmentedSink, error) {
	return OpenSegmentedSinkFS(fault.OS{}, dir, segmentSize, sealed)
}

// OpenSegmentedSinkFS opens a segmented WAL in dir through fsys, creating
// the directory if needed. sealed describes pre-existing segments (from a
// recovery scan) that remain eligible for truncation; the active segment
// starts after the highest pre-existing sequence so old bytes are never
// appended to. segmentSize <= 0 selects DefaultSegmentSize.
func OpenSegmentedSinkFS(fsys fault.FS, dir string, segmentSize int64, sealed []SegmentInfo) (*SegmentedSink, error) {
	if fsys == nil {
		fsys = fault.OS{}
	}
	if segmentSize <= 0 {
		segmentSize = DefaultSegmentSize
	}
	if err := fsys.MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("wal: creating segment dir: %w", err)
	}
	next := uint64(1)
	for _, s := range sealed {
		if s.Seq >= next {
			next = s.Seq + 1
		}
	}
	// Skip over any segment files the sealed list does not mention (e.g. a
	// crashed process's empty active segment) rather than appending to them.
	existing, err := ListSegments(dir)
	if err != nil {
		return nil, err
	}
	for _, s := range existing {
		if s.Seq >= next {
			next = s.Seq + 1
		}
	}
	ss := &SegmentedSink{
		fsys:        fsys,
		dir:         dir,
		segmentSize: segmentSize,
		sealed:      append([]SegmentInfo(nil), sealed...),
	}
	if err := ss.openSegment(next); err != nil {
		return nil, err
	}
	return ss, nil
}

// openSegment creates and activates segment seq. Caller holds mu (or is the
// constructor).
func (ss *SegmentedSink) openSegment(seq uint64) error {
	path := filepath.Join(ss.dir, SegmentName(seq))
	f, err := ss.fsys.Append(path)
	if err != nil {
		return fmt.Errorf("wal: opening segment: %w", err)
	}
	// The new segment's directory entry must itself be durable before any
	// group is acked against the segment: a crash could otherwise drop
	// the whole file, synced bytes and all. A failed directory sync
	// therefore fails the open (and, mid-rotation, wedges the log).
	if err := ss.fsys.SyncDir(ss.dir); err != nil {
		f.Close()
		return fmt.Errorf("wal: syncing segment dir: %w", err)
	}
	ss.f = f
	ss.seq = seq
	ss.size = 0
	ss.maxTs = 0
	return nil
}

// rotateLocked seals the active segment and opens the next one. Caller
// holds mu.
func (ss *SegmentedSink) rotateLocked() error {
	if err := ss.f.Sync(); err != nil {
		return err
	}
	if err := ss.f.Close(); err != nil {
		return err
	}
	ss.sealed = append(ss.sealed, SegmentInfo{
		Seq:   ss.seq,
		Path:  filepath.Join(ss.dir, SegmentName(ss.seq)),
		Size:  ss.size,
		MaxTs: ss.maxTs,
	})
	return ss.openSegment(ss.seq + 1)
}

// Write appends to the active segment (Sink compatibility path; no
// timestamp attribution, so truncation treats the segment conservatively
// by keeping it until a later group raises its MaxTs).
func (ss *SegmentedSink) Write(p []byte) (int, error) { return ss.WriteGroup(p, 0) }

// WriteGroup appends one flush group, rotating first when the active
// segment is over the size threshold. The whole group lands in a single
// segment.
func (ss *SegmentedSink) WriteGroup(p []byte, maxTs uint64) (int, error) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if ss.size > 0 && ss.size+int64(len(p)) > ss.segmentSize {
		if err := ss.rotateLocked(); err != nil {
			return 0, err
		}
	}
	n, err := ss.f.Write(p)
	ss.size += int64(n)
	if maxTs > ss.maxTs {
		ss.maxTs = maxTs
	}
	return n, err
}

// Sync fsyncs the active segment.
func (ss *SegmentedSink) Sync() error {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	return ss.f.Sync()
}

// Close syncs and closes the active segment.
func (ss *SegmentedSink) Close() error {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if err := ss.f.Sync(); err != nil {
		ss.f.Close()
		return err
	}
	return ss.f.Close()
}

// TruncateThrough implements Truncator: it seals the active segment when it
// holds data (so a checkpoint immediately bounds the replayable tail), then
// deletes every sealed segment whose MaxTs <= ts. Segments written without
// timestamp attribution (MaxTs 0 but non-empty) are kept conservatively.
func (ss *SegmentedSink) TruncateThrough(ts uint64) (int, error) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if ss.size > 0 {
		if err := ss.rotateLocked(); err != nil {
			return 0, fmt.Errorf("%w: %w", errSeal, err)
		}
	}
	removed := 0
	kept := ss.sealed[:0]
	var firstErr error
	for _, s := range ss.sealed {
		coverable := s.MaxTs <= ts && (s.MaxTs > 0 || s.Size == 0)
		if !coverable {
			kept = append(kept, s)
			continue
		}
		if err := ss.fsys.Remove(s.Path); err != nil && !os.IsNotExist(err) {
			if firstErr == nil {
				firstErr = err
			}
			kept = append(kept, s)
			continue
		}
		removed++
	}
	ss.sealed = kept
	if removed > 0 {
		// Removal durability is load-bearing: an un-synced unlink can
		// resurrect a deleted segment after a crash, and recovery would
		// replay records the checkpoint already owns against recycled
		// slots. Surface the error instead of swallowing it.
		if err := ss.fsys.SyncDir(ss.dir); err != nil && firstErr == nil {
			firstErr = err
		}
		ss.truncated.Add(int64(removed))
	}
	return removed, firstErr
}

// ActiveSegment reports the active segment's sequence and size.
func (ss *SegmentedSink) ActiveSegment() (seq uint64, size int64) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	return ss.seq, ss.size
}

// SealedSegments snapshots the sealed-segment list.
func (ss *SegmentedSink) SealedSegments() []SegmentInfo {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	return append([]SegmentInfo(nil), ss.sealed...)
}

// SegmentsTruncated reports the lifetime count of deleted segments.
func (ss *SegmentedSink) SegmentsTruncated() int64 { return ss.truncated.Load() }
