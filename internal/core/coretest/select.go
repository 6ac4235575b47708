// Package coretest holds the reference reader the scan-equivalence suites
// compare the batch scan against.
package coretest

import (
	"mainline/internal/core"
	"mainline/internal/storage"
	"mainline/internal/txn"
)

// SelectScan visits every tuple visible to tx one slot at a time: it walks
// each block of table.Blocks() and calls Select for every offset below the
// block's insert head, handing the rows found to fn. Select reads each
// slot through its own frozen, cold and versioned readers, never through
// the batch scan's column views, staging scratch or selection vectors, so
// this is an independent reference for every multi-row read. The row is
// reused; fn must not retain it. Returning false from fn stops the walk.
func SelectScan(table *core.DataTable, tx *txn.Transaction, proj *storage.Projection, fn func(slot storage.TupleSlot, row *storage.ProjectedRow) bool) error {
	row := proj.NewRow()
	for _, b := range table.Blocks() {
		head := b.InsertHead()
		for off := uint32(0); off < head; off++ {
			slot := storage.NewTupleSlot(b.ID, off)
			found, err := table.Select(tx, slot, row)
			if err != nil {
				return err
			}
			if found && !fn(slot, row) {
				return nil
			}
		}
	}
	return nil
}
