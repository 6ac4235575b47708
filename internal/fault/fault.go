// Package fault is the storage fault-injection layer: a small filesystem
// interface (FS) adopted by every persistence touchpoint — WAL sinks,
// checkpoints, the schema catalog, fsutil's durability helpers — with two
// implementations. OS is the production passthrough (zero overhead beyond
// an interface call); Injector wraps any FS and produces fsync errors,
// short/torn writes, ENOSPC, per-op latency stalls, and
// fail-N-then-succeed schedules deterministically from a seed, so a
// failure found by the chaos harness replays byte-for-byte.
//
// FS also dedupes the open-flag triplets the persistence layers used to
// repeat: Create is O_CREATE|O_WRONLY|O_TRUNC (checkpoint data files,
// manifest, catalog temp files), Append is O_CREATE|O_WRONLY|O_APPEND
// (WAL segments).
package fault

import (
	"errors"
	"io"
	"os"
	"syscall"
)

// Op classifies one filesystem operation for rule matching.
type Op uint8

// Operations an Injector rule can target.
const (
	// OpAny matches every operation.
	OpAny Op = iota
	// OpCreate is a truncating create-for-write open (FS.Create).
	OpCreate
	// OpAppend is an appending create-for-write open (FS.Append).
	OpAppend
	// OpWrite is one File.Write call.
	OpWrite
	// OpSync is one File.Sync call.
	OpSync
	// OpRename is FS.Rename (matched against the destination path).
	OpRename
	// OpRemove is FS.Remove or FS.RemoveAll.
	OpRemove
	// OpMkdirAll is FS.MkdirAll.
	OpMkdirAll
	// OpSyncDir is FS.SyncDir.
	OpSyncDir
)

// String names the op for injected-error messages and fired-fault logs.
func (op Op) String() string {
	switch op {
	case OpAny:
		return "any"
	case OpCreate:
		return "create"
	case OpAppend:
		return "append"
	case OpWrite:
		return "write"
	case OpSync:
		return "sync"
	case OpRename:
		return "rename"
	case OpRemove:
		return "remove"
	case OpMkdirAll:
		return "mkdirall"
	case OpSyncDir:
		return "syncdir"
	default:
		return "unknown"
	}
}

// File is the writable-file surface the persistence layers need: append
// bytes, fsync, close. *os.File satisfies it.
type File interface {
	io.Writer
	// Sync fsyncs the file.
	Sync() error
	// Close closes the file.
	Close() error
	// Name returns the path the file was opened with.
	Name() string
}

// FS abstracts the durable filesystem operations of the persistence
// layers. Implementations: OS (production passthrough) and *Injector
// (deterministic fault injection around an inner FS).
type FS interface {
	// Create opens path for writing, truncating any existing content
	// (O_CREATE|O_WRONLY|O_TRUNC, 0644).
	Create(path string) (File, error)
	// Append opens path for appending, creating it if needed
	// (O_CREATE|O_WRONLY|O_APPEND, 0644).
	Append(path string) (File, error)
	// Rename atomically moves oldpath to newpath.
	Rename(oldpath, newpath string) error
	// Remove deletes one file.
	Remove(path string) error
	// RemoveAll deletes a tree.
	RemoveAll(path string) error
	// MkdirAll creates a directory and any missing parents (0755).
	MkdirAll(path string) error
	// SyncDir fsyncs a directory so file creations, removals, and renames
	// inside it are durable. Filesystems that reject directory fsync
	// (EINVAL/ENOTSUP) report success — that is the only tolerated
	// failure; real errors (EIO, ENOSPC) are returned.
	SyncDir(dir string) error
}

// OS is the production FS: direct passthrough to the os package.
type OS struct{}

// Create implements FS.
func (OS) Create(path string) (File, error) {
	return os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
}

// Append implements FS.
func (OS) Append(path string) (File, error) {
	return os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
}

// Rename implements FS.
func (OS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

// Remove implements FS.
func (OS) Remove(path string) error { return os.Remove(path) }

// RemoveAll implements FS.
func (OS) RemoveAll(path string) error { return os.RemoveAll(path) }

// MkdirAll implements FS.
func (OS) MkdirAll(path string) error { return os.MkdirAll(path, 0o755) }

// SyncDir implements FS. A directory that cannot be opened or fsynced
// surfaces the error — a swallowed ENOSPC/EIO here once let a checkpoint
// install report success while its rename was still volatile. Only
// EINVAL/ENOTSUP are treated as benign: some filesystems categorically
// reject directory fsync, and the callers' file fsyncs carry the data.
func (OS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	serr := d.Sync()
	cerr := d.Close()
	if serr != nil {
		if errors.Is(serr, syscall.EINVAL) || errors.Is(serr, syscall.ENOTSUP) {
			return nil
		}
		return serr
	}
	return cerr
}
