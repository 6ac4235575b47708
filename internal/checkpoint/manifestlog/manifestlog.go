// Package manifestlog is the append-only commit log of checkpoint
// versions: a durable, CRC-guarded sequence of version records over
// immutable content-addressed objects. It is the engine's only
// checkpoint metadata — recovery anchors on its newest version — and
// the history source of Engine.AsOf time travel.
//
// # Format
//
// MANIFEST.log lives at the root of the data directory. Each record is
// framed
//
//	[u32 payload length][u32 CRC-32C of payload][payload JSON]
//
// little-endian, appended with a single write + fsync. Records are
// either version records — one per checkpoint, referencing that
// snapshot's table content as content-addressed chunk and slot objects
// in the object store, with per-chunk zone maps for pre-fetch pruning —
// or prune records marking old versions as dropped. A checkpoint exists
// exactly when its version record is in the log.
//
// # Crash tolerance
//
// The log is read in full at Open. A torn tail (crash mid-append, at
// any byte boundary) and a corrupted mid-log record are both handled
// the same way: the longest valid prefix wins, everything after it is
// discarded and physically truncated so the next append extends valid
// history. Open never fails on log damage — the log is an index over
// immutable objects, so the worst outcome of truncation is losing
// access to newer versions, never corrupting data.
package manifestlog

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"sort"
	"sync"

	"mainline/internal/fault"
	"mainline/internal/objstore"
)

// LogName is the manifest log's filename inside a data directory.
const LogName = "MANIFEST.log"

// maxRecordLen bounds a single record; a framed length beyond it is
// treated as corruption (it would otherwise force a giant allocation).
const maxRecordLen = 64 << 20

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Typed resolution errors (wrapped by the engine's public AsOf).
var (
	// ErrNoVersion means no version's snapshot timestamp is at or below
	// the requested time — the time predates retained history.
	ErrNoVersion = errors.New("manifestlog: no version at or before the requested timestamp")
	// ErrVersionPruned means the version that would serve the requested
	// time has been pruned and its objects may be gone.
	ErrVersionPruned = errors.New("manifestlog: the version covering the requested timestamp was pruned")
)

// ObjectRef names one immutable object and guards its bytes.
type ObjectRef = objstore.Ref

// ZoneMap is the min/max/null summary of one integer column within one
// chunk. It lives in the manifest record, not the chunk, so time-travel
// range scans prune cold chunks before any object-store read.
type ZoneMap struct {
	// Col is the column's index in the table schema.
	Col int `json:"col"`
	// Min and Max bound the column's non-null values in this chunk
	// (meaningless when HasValues is false).
	Min int64 `json:"min"`
	Max int64 `json:"max"`
	// Nulls counts the chunk's null rows in this column.
	Nulls int `json:"nulls,omitempty"`
	// HasValues distinguishes an all-null chunk from a populated one.
	HasValues bool `json:"has_values"`
}

// ChunkRef names one chunk of a table: a standalone Arrow IPC stream
// (schema + one record batch, "chunk/<sha256>") and its slot object
// ("slots/<sha256>": each row's pre-checkpoint physical slot as a
// little-endian u64, in row order), which recovery needs to map WAL
// records onto rebuilt slots.
type ChunkRef struct {
	ObjectRef
	// Slots is the chunk's slot object.
	Slots ObjectRef `json:"slots"`
	// Rows is the chunk's row count.
	Rows int `json:"rows"`
	// Zones summarizes the integer columns for pruning.
	Zones []ZoneMap `json:"zones,omitempty"`
}

// FieldDef mirrors one Arrow schema field, so a version is
// self-describing even without the engine's catalog file.
type FieldDef struct {
	Name     string `json:"name"`
	Type     uint8  `json:"type"`
	Nullable bool   `json:"nullable,omitempty"`
}

// TableChunks describes one table's full content at a snapshot as an
// ordered list of chunks.
type TableChunks struct {
	ID     uint32     `json:"id"`
	Name   string     `json:"name"`
	Rows   int64      `json:"rows"`
	Fields []FieldDef `json:"fields"`
	Chunks []ChunkRef `json:"chunks"`
}

// MightMatchRange reports whether a chunk could hold rows with column
// col in [min, max], according to its zone maps. A chunk with no zone
// for the column (non-integer, or a record written before zones) must
// be read.
func (c *ChunkRef) MightMatchRange(col int, min, max int64) bool {
	for _, z := range c.Zones {
		if z.Col != col {
			continue
		}
		if !z.HasValues {
			return false // all null: no value can match
		}
		return z.Min <= max && min <= z.Max
	}
	return true
}

// VersionRecord describes one committed snapshot version: the tables'
// full content as chunk objects, the recovery anchor and the unit AsOf
// resolves to.
type VersionRecord struct {
	// Version orders records; the engine uses the checkpoint sequence.
	Version uint64 `json:"version"`
	// SnapshotTs is the version's consistency point: AsOf(ts) resolves
	// to the newest version with SnapshotTs <= ts.
	SnapshotTs uint64 `json:"snapshot_ts"`
	// LastTs is the engine clock when the snapshot finished.
	LastTs uint64 `json:"last_ts"`
	// CreatedUnixNano is the wall-clock creation time (informational).
	CreatedUnixNano int64 `json:"created_unix_nano"`
	// Tables is the snapshot's content, one chunk list per table.
	Tables []TableChunks `json:"tables"`
}

// record is the framed payload: exactly one of Version / Prune is set.
type record struct {
	Kind    string         `json:"kind"`
	Version *VersionRecord `json:"version,omitempty"`
	// Prune lists version numbers dropped by a prune record.
	Prune []uint64 `json:"prune,omitempty"`
}

// Log is the opened manifest log. Appends are serialized; reads of the
// in-memory index take the same lock and are cheap.
type Log struct {
	fsys fault.FS
	path string

	mu       sync.Mutex
	versions []*VersionRecord // append order; Version strictly increasing
	pruned   map[uint64]bool
	// size is the length of the valid log; dirty means a failed append
	// may have left bytes past it, cut before the next append.
	size  int64
	dirty bool
	// tornBytes is how much invalid tail Open truncated (0 = clean).
	tornBytes int64
}

// Open reads, validates, and (if damaged) repairs the manifest log at
// path. A missing file is an empty log. fsys routes the appends; nil
// means the real filesystem.
func Open(fsys fault.FS, path string) (*Log, error) {
	if fsys == nil {
		fsys = fault.OS{}
	}
	l := &Log{fsys: fsys, path: path, pruned: make(map[uint64]bool)}
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return l, nil
		}
		return nil, fmt.Errorf("manifestlog: reading %s: %w", path, err)
	}
	validEnd := 0
	for validEnd < len(data) {
		rec, next, ok := parseRecord(data, validEnd)
		if !ok {
			break
		}
		l.apply(rec)
		validEnd = next
	}
	l.size = int64(validEnd)
	if validEnd < len(data) {
		// Torn tail or corrupt mid-log record: the valid prefix is the
		// log. Truncate so the next append extends valid history instead
		// of burying records behind garbage.
		l.tornBytes = int64(len(data) - validEnd)
		if err := truncateFile(path, int64(validEnd)); err != nil {
			return nil, fmt.Errorf("manifestlog: repairing %s: %w", path, err)
		}
	}
	return l, nil
}

// parseRecord decodes one framed record at off. ok is false at any
// sign of damage: short header, absurd or overlong length, CRC
// mismatch, or undecodable JSON.
func parseRecord(data []byte, off int) (*record, int, bool) {
	if off+8 > len(data) {
		return nil, 0, false
	}
	n := binary.LittleEndian.Uint32(data[off:])
	crc := binary.LittleEndian.Uint32(data[off+4:])
	if n == 0 || n > maxRecordLen || off+8+int(n) > len(data) {
		return nil, 0, false
	}
	payload := data[off+8 : off+8+int(n)]
	if crc32.Checksum(payload, crcTable) != crc {
		return nil, 0, false
	}
	var rec record
	if err := json.Unmarshal(payload, &rec); err != nil {
		return nil, 0, false
	}
	return &rec, off + 8 + int(n), true
}

// apply folds one valid record into the in-memory index. Unknown kinds
// are skipped (forward compatibility), as are version records that do
// not advance the version counter.
func (l *Log) apply(rec *record) {
	switch rec.Kind {
	case "version":
		if rec.Version == nil {
			return
		}
		if n := len(l.versions); n > 0 && rec.Version.Version <= l.versions[n-1].Version {
			return
		}
		l.versions = append(l.versions, rec.Version)
	case "prune":
		for _, v := range rec.Prune {
			l.pruned[v] = true
		}
	}
}

// append frames, appends, and fsyncs one record, then applies it.
// Callers hold l.mu. A failed append may leave a partial or unsynced
// record behind; the next append first cuts the file back to the valid
// log, so a retry extends valid history instead of burying its record
// behind garbage that Open would stop at.
func (l *Log) append(rec *record) error {
	payload, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	framed := make([]byte, 8+len(payload))
	binary.LittleEndian.PutUint32(framed, uint32(len(payload)))
	binary.LittleEndian.PutUint32(framed[4:], crc32.Checksum(payload, crcTable))
	copy(framed[8:], payload)
	if l.dirty {
		if err := truncateFile(l.path, l.size); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("manifestlog: repairing %s: %w", l.path, err)
		}
		l.dirty = false
	}
	f, err := l.fsys.Append(l.path)
	if err != nil {
		return fmt.Errorf("manifestlog: opening %s: %w", l.path, err)
	}
	l.dirty = true
	if _, err := f.Write(framed); err != nil {
		f.Close()
		return fmt.Errorf("manifestlog: appending: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("manifestlog: syncing: %w", err)
	}
	if err := f.Close(); err != nil {
		return err
	}
	l.dirty = false
	l.size += int64(len(framed))
	l.apply(rec)
	return nil
}

// AppendVersion commits one version record. The version number must
// advance past every record already in the log.
func (l *Log) AppendVersion(v *VersionRecord) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if n := len(l.versions); n > 0 && v.Version <= l.versions[n-1].Version {
		return fmt.Errorf("manifestlog: version %d does not advance past %d", v.Version, l.versions[n-1].Version)
	}
	return l.append(&record{Kind: "version", Version: v})
}

// AppendPrune commits a prune record marking the given versions
// dropped. The record lands (and fsyncs) before any object deletion, so
// a crash mid-prune leaves versions that merely over-retain objects —
// never a live version pointing at deleted ones.
func (l *Log) AppendPrune(versions []uint64) error {
	if len(versions) == 0 {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.append(&record{Kind: "prune", Prune: versions})
}

// Resolve returns the version serving timestamp ts: the newest version
// with SnapshotTs <= ts. A match that has been pruned returns
// ErrVersionPruned; no match at all returns ErrNoVersion.
func (l *Log) Resolve(ts uint64) (*VersionRecord, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for i := len(l.versions) - 1; i >= 0; i-- {
		v := l.versions[i]
		if v.SnapshotTs > ts {
			continue
		}
		if l.pruned[v.Version] {
			return nil, fmt.Errorf("%w (version %d)", ErrVersionPruned, v.Version)
		}
		return v, nil
	}
	return nil, ErrNoVersion
}

// Versions returns the retained (unpruned) version records, ascending.
func (l *Log) Versions() []*VersionRecord {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]*VersionRecord, 0, len(l.versions))
	for _, v := range l.versions {
		if !l.pruned[v.Version] {
			out = append(out, v)
		}
	}
	return out
}

// NextVersion returns the number the next version record must carry:
// one past every version the log has ever held, pruned ones included.
func (l *Log) NextVersion() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if n := len(l.versions); n > 0 {
		return l.versions[n-1].Version + 1
	}
	return 1
}

// Latest returns the newest retained version (nil when none).
func (l *Log) Latest() *VersionRecord {
	vs := l.Versions()
	if len(vs) == 0 {
		return nil
	}
	return vs[len(vs)-1]
}

// TornBytes reports how much invalid tail Open truncated away.
func (l *Log) TornBytes() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.tornBytes
}

// UnreferencedKeys returns the object keys (chunk and slot objects)
// referenced by the given doomed versions but by no retained version —
// the set safe to delete after AppendPrune(doomed) commits. Content
// addressing makes the refcount trivial: identical objects share a key,
// so a key is safe to delete only when no retained version references
// it.
func (l *Log) UnreferencedKeys(doomed []uint64) []string {
	doomedSet := make(map[uint64]bool, len(doomed))
	for _, v := range doomed {
		doomedSet[v] = true
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	retained := make(map[string]bool)
	candidates := make(map[string]bool)
	for _, v := range l.versions {
		dead := doomedSet[v.Version] || l.pruned[v.Version]
		for _, t := range v.Tables {
			for _, c := range t.Chunks {
				set := retained
				if dead {
					set = candidates
				}
				set[c.Key] = true
				if c.Slots.Key != "" {
					set[c.Slots.Key] = true
				}
			}
		}
	}
	var keys []string
	for k := range candidates {
		if !retained[k] {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}

// truncateFile cuts path to size and fsyncs the result.
func truncateFile(path string, size int64) error {
	if err := os.Truncate(path, size); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
