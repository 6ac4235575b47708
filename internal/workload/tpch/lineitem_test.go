package tpch

import (
	"testing"

	"mainline"
)

func TestLineItemSchemaShape(t *testing.T) {
	s := LineItemSchema()
	if s.NumFields() != 16 {
		t.Fatalf("LINEITEM has %d columns, want 16", s.NumFields())
	}
	if s.FieldIndex("l_orderkey") != 0 || s.FieldIndex("l_comment") != 15 {
		t.Fatal("column order wrong")
	}
}

func TestLoadGeneratesValidRows(t *testing.T) {
	eng, err := mainline.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	table, err := Load(eng, "lineitem", 2000, 500, 42)
	if err != nil {
		t.Fatal(err)
	}
	count := func() int {
		t.Helper()
		var n int
		if err := eng.View(func(tx *mainline.Txn) (err error) {
			n, err = table.CountVisible(tx)
			return err
		}); err != nil {
			t.Fatal(err)
		}
		return n
	}
	if got := count(); got != 2000 {
		t.Fatalf("rows = %d", got)
	}
	// Domains: quantity in [100, 5000] (cents of 1-50), linenumber >= 1,
	// receiptdate after shipdate.
	checked := 0
	err = eng.View(func(tx *mainline.Txn) error {
		return table.Scan(tx, []string{"l_linenumber", "l_quantity", "l_shipdate", "l_receiptdate"}, func(_ mainline.TupleSlot, r *mainline.Row) bool {
			if l := r.Int32("l_linenumber"); l < 1 || l > 7 {
				t.Errorf("linenumber %d out of range", l)
				return false
			}
			if q := r.Int64("l_quantity"); q < 100 || q > 5000 {
				t.Errorf("quantity %d out of range", q)
				return false
			}
			if ship, receipt := r.Int32("l_shipdate"), r.Int32("l_receiptdate"); receipt <= ship {
				t.Errorf("receiptdate %d not after shipdate %d", receipt, ship)
				return false
			}
			checked++
			return true
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if checked != 2000 {
		t.Fatalf("checked %d rows", checked)
	}
	// Loading into the same name appends.
	if _, err := Load(eng, "lineitem", 100, 50, 43); err != nil {
		t.Fatal(err)
	}
	if got := count(); got != 2100 {
		t.Fatalf("after append: %d", got)
	}
}
