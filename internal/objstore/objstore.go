// Package objstore is the cold-tier object store: an S3-shaped key/value
// interface (Store) over immutable, content-addressed objects, with a
// local-filesystem implementation (FSStore) whose write path rides the
// engine's fault.FS seam so the PR 9 injector covers the cold tier for
// free. Objects are written once (PutIfAbsent is the idiom for
// content-hash keys — a second writer of the same bytes is a no-op) and
// read back whole (Get) or by range (ReadRange). PutContent and
// GetVerified are the one content-addressed write and the one verified
// read every caller uses: the key is the SHA-256 of the bytes, and a Ref
// records the size and CRC-32C a read must find.
//
// The read path has no fault.FS analogue (fault.FS is write-only by
// design), so read-side chaos — fail-N-then-succeed Get, stalled
// ReadRange — is injected one level up by FaultStore, a Store wrapper
// with its own deterministic rule table. CountingStore wraps any Store
// with operation/byte counters; the oracle equivalence suite uses it to
// prove zone-map-pruned cold blocks are never fetched.
package objstore

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"mainline/internal/fault"
)

// ErrNotFound reports a Get/ReadRange/Delete of a key with no object.
var ErrNotFound = errors.New("objstore: object not found")

// ErrCorrupt reports an object whose bytes do not match the size and
// CRC-32C its Ref records.
var ErrCorrupt = errors.New("objstore: object corrupt")

// Ref names one immutable content-addressed object and guards its bytes.
type Ref struct {
	// Key is prefix + hex(sha256(bytes)).
	Key string `json:"key"`
	// Size and CRC (CRC-32C) guard the fetched bytes.
	Size int64  `json:"size"`
	CRC  uint32 `json:"crc"`
}

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// PutContent uploads data under prefix + hex(sha256(data)) unless the
// store already holds that key, and reports whether this call created the
// object.
func PutContent(s Store, prefix string, data []byte) (Ref, bool, error) {
	sum := sha256.Sum256(data)
	ref := Ref{Key: prefix + hex.EncodeToString(sum[:]), Size: int64(len(data)), CRC: crc32.Checksum(data, crcTable)}
	created, err := s.PutIfAbsent(ref.Key, data)
	if err != nil {
		return Ref{}, false, fmt.Errorf("objstore: writing %s: %w", ref.Key, err)
	}
	return ref, created, nil
}

// GetVerified reads the object ref names and checks its size and CRC-32C;
// a mismatch is an error wrapping ErrCorrupt.
func GetVerified(s Store, ref Ref) ([]byte, error) {
	data, err := s.Get(ref.Key)
	if err != nil {
		return nil, fmt.Errorf("objstore: reading %s: %w", ref.Key, err)
	}
	if int64(len(data)) != ref.Size || crc32.Checksum(data, crcTable) != ref.CRC {
		return nil, fmt.Errorf("%w: %s (size %d/%d)", ErrCorrupt, ref.Key, len(data), ref.Size)
	}
	return data, nil
}

// Store is the object-store surface the tiered storage layer needs.
// Implementations must be safe for concurrent use. Keys are opaque
// "/"-separated paths; objects are immutable once written.
type Store interface {
	// Put writes data at key, overwriting any existing object. The
	// object is durable when Put returns.
	Put(key string, data []byte) error
	// PutIfAbsent writes data at key only if no object exists there.
	// It reports whether this call created the object. With
	// content-hash keys this makes concurrent uploads of identical
	// bytes idempotent.
	PutIfAbsent(key string, data []byte) (created bool, err error)
	// Get reads the whole object at key. It returns ErrNotFound if no
	// object exists.
	Get(key string) ([]byte, error)
	// ReadRange reads n bytes starting at off from the object at key.
	// A range past the end of the object is an error.
	ReadRange(key string, off, n int64) ([]byte, error)
	// List returns the keys with the given prefix, sorted.
	List(prefix string) ([]string, error)
	// Delete removes the object at key. Deleting a missing key returns
	// ErrNotFound.
	Delete(key string) error
}

// FSStore is a Store rooted at a local directory. Key segments map to
// subdirectories; each Put is temp-file + fsync + rename + parent-dir
// fsync, so a crash mid-upload leaves at worst an orphan temp file,
// never a torn object under a live key. Writes go through the supplied
// fault.FS; reads use the os package directly (fault.FS has no read
// surface — wrap with FaultStore for read faults).
type FSStore struct {
	root string
	fsys fault.FS

	mu  sync.Mutex   // serializes PutIfAbsent existence-check + install
	seq atomic.Int64 // temp-file uniquifier
}

// NewFSStore opens (creating if needed) a Store rooted at dir. All
// writes are routed through fsys.
func NewFSStore(dir string, fsys fault.FS) (*FSStore, error) {
	if fsys == nil {
		fsys = fault.OS{}
	}
	if err := fsys.MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("objstore: creating root %s: %w", dir, err)
	}
	return &FSStore{root: dir, fsys: fsys}, nil
}

// Root returns the directory the store is rooted at.
func (s *FSStore) Root() string { return s.root }

func (s *FSStore) path(key string) (string, error) {
	if key == "" || strings.HasPrefix(key, "/") || strings.Contains(key, "..") {
		return "", fmt.Errorf("objstore: invalid key %q", key)
	}
	return filepath.Join(s.root, filepath.FromSlash(key)), nil
}

func (s *FSStore) install(key string, data []byte) error {
	p, err := s.path(key)
	if err != nil {
		return err
	}
	dir := filepath.Dir(p)
	if err := s.fsys.MkdirAll(dir); err != nil {
		return err
	}
	tmp := fmt.Sprintf("%s.tmp-%d", p, s.seq.Add(1))
	f, err := s.fsys.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		s.fsys.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		s.fsys.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		s.fsys.Remove(tmp)
		return err
	}
	if err := s.fsys.Rename(tmp, p); err != nil {
		s.fsys.Remove(tmp)
		return err
	}
	return s.fsys.SyncDir(dir)
}

// Put implements Store.
func (s *FSStore) Put(key string, data []byte) error { return s.install(key, data) }

// PutIfAbsent implements Store.
func (s *FSStore) PutIfAbsent(key string, data []byte) (bool, error) {
	p, err := s.path(key)
	if err != nil {
		return false, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	_, statErr := os.Stat(p)
	if statErr == nil {
		return false, nil
	}
	if !os.IsNotExist(statErr) {
		return false, statErr
	}
	if err := s.install(key, data); err != nil {
		return false, err
	}
	return true, nil
}

// Get implements Store.
func (s *FSStore) Get(key string) ([]byte, error) {
	p, err := s.path(key)
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(p)
	if os.IsNotExist(err) {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, key)
	}
	return data, err
}

// ReadRange implements Store.
func (s *FSStore) ReadRange(key string, off, n int64) ([]byte, error) {
	p, err := s.path(key)
	if err != nil {
		return nil, err
	}
	f, err := os.Open(p)
	if os.IsNotExist(err) {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, key)
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	buf := make([]byte, n)
	if _, err := f.ReadAt(buf, off); err != nil {
		return nil, fmt.Errorf("objstore: range [%d,%d) of %s: %w", off, off+n, key, err)
	}
	return buf, nil
}

// List implements Store.
func (s *FSStore) List(prefix string) ([]string, error) {
	var keys []string
	err := filepath.Walk(s.root, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			if os.IsNotExist(err) {
				return nil
			}
			return err
		}
		if info.IsDir() || strings.Contains(info.Name(), ".tmp-") {
			return nil
		}
		rel, err := filepath.Rel(s.root, path)
		if err != nil {
			return err
		}
		key := filepath.ToSlash(rel)
		if strings.HasPrefix(key, prefix) {
			keys = append(keys, key)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(keys)
	return keys, nil
}

// Delete implements Store.
func (s *FSStore) Delete(key string) error {
	p, err := s.path(key)
	if err != nil {
		return err
	}
	if _, err := os.Stat(p); os.IsNotExist(err) {
		return fmt.Errorf("%w: %s", ErrNotFound, key)
	}
	return s.fsys.Remove(p)
}
