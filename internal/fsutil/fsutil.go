// Package fsutil holds the small durability helpers the persistence
// layers (WAL segments, catalog, data directory lock) share. Every helper takes a
// fault.FS so the fault-injection layer sees each operation; production
// callers pass fault.OS{}.
package fsutil

import (
	"fmt"
	"path/filepath"

	"mainline/internal/fault"
)

// WriteFileSync writes data to path (truncating), fsyncs the file, and —
// because the file may be newly created — fsyncs the parent directory
// too: a synced file whose directory entry was never synced can vanish
// whole across a crash, which for the catalog would silently drop a
// table.
func WriteFileSync(fsys fault.FS, path string, data []byte) error {
	f, err := fsys.Create(path)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return fsys.SyncDir(filepath.Dir(path))
}

// AtomicWriteFile installs data at path via temp file + fsync + rename +
// directory sync, so readers observe either the old content or the new,
// never a torn write. Every fsync error — the directory's included — is
// returned: a swallowed directory-sync failure would let the caller
// treat a still-volatile rename as durable (fault.FS already tolerates
// the benign EINVAL/ENOTSUP "directories don't fsync here" case).
func AtomicWriteFile(fsys fault.FS, path string, data []byte) error {
	tmp := path + ".tmp"
	if err := WriteFileSync(fsys, tmp, data); err != nil {
		return err
	}
	if err := fsys.Rename(tmp, path); err != nil {
		return fmt.Errorf("installing %s: %w", path, err)
	}
	return fsys.SyncDir(filepath.Dir(path))
}
