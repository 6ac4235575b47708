// Package tpch provides the TPC-H LINEITEM table used by the paper's
// Figure 1 experiment: measuring how long it takes to move an OLTP-resident
// table into an analytical client via (a) an in-memory Arrow hand-off,
// (b) a CSV dump + reparse, and (c) a row-oriented SQL wire protocol.
// Row counts are configurable; the paper used scale factor 10 (60 M rows),
// far beyond what a laptop-scale reproduction needs for the shape to show.
package tpch

import (
	"fmt"

	"mainline"
	"mainline/internal/arrow"
	"mainline/internal/util"
)

// LineItemSchema returns the 16-column LINEITEM schema. Prices, discounts,
// and taxes are int64 hundredths; dates are days since 1992-01-01.
func LineItemSchema() *arrow.Schema {
	i64 := func(n string) arrow.Field { return arrow.Field{Name: n, Type: arrow.INT64} }
	i32 := func(n string) arrow.Field { return arrow.Field{Name: n, Type: arrow.INT32} }
	str := func(n string) arrow.Field { return arrow.Field{Name: n, Type: arrow.STRING} }
	return arrow.NewSchema(
		i64("l_orderkey"), i64("l_partkey"), i64("l_suppkey"), i32("l_linenumber"),
		i64("l_quantity"), i64("l_extendedprice"), i64("l_discount"), i64("l_tax"),
		str("l_returnflag"), str("l_linestatus"),
		i32("l_shipdate"), i32("l_commitdate"), i32("l_receiptdate"),
		str("l_shipinstruct"), str("l_shipmode"), str("l_comment"),
	)
}

var (
	shipInstructs = []string{"DELIVER IN PERSON", "COLLECT COD", "NONE", "TAKE BACK RETURN"}
	shipModes     = []string{"REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"}
	returnFlags   = []string{"R", "A", "N"}
	lineStatuses  = []string{"O", "F"}
)

// Load creates (if needed) and populates a LINEITEM table with n rows,
// batching batch rows per transaction. Returns the table.
func Load(eng *mainline.Engine, name string, n, batch int, seed uint64) (*mainline.Table, error) {
	table := eng.Table(name)
	if table == nil {
		var err error
		table, err = eng.CreateTable(name, LineItemSchema())
		if err != nil {
			return nil, err
		}
	}
	if batch <= 0 {
		batch = 1000
	}
	rng := util.NewRand(seed)
	row := table.NewRow()
	orderkey := int64(1)
	line := 1
	for done := 0; done < n; {
		tx, err := eng.Begin()
		if err != nil {
			return nil, err
		}
		for i := 0; i < batch && done < n; i++ {
			row.Reset()
			row.SetInt64(0, orderkey)
			row.SetInt64(1, int64(rng.IntRange(1, 200000)))
			row.SetInt64(2, int64(rng.IntRange(1, 10000)))
			row.SetInt32(3, int32(line))
			qty := int64(rng.IntRange(1, 50))
			row.SetInt64(4, qty*100)
			row.SetInt64(5, qty*int64(rng.IntRange(90000, 110000)))
			row.SetInt64(6, int64(rng.IntRange(0, 10)))
			row.SetInt64(7, int64(rng.IntRange(0, 8)))
			row.SetVarlen(8, []byte(returnFlags[rng.Intn(len(returnFlags))]))
			row.SetVarlen(9, []byte(lineStatuses[rng.Intn(len(lineStatuses))]))
			ship := int32(rng.IntRange(1, 2500))
			row.SetInt32(10, ship)
			row.SetInt32(11, ship+int32(rng.IntRange(-30, 30)))
			row.SetInt32(12, ship+int32(rng.IntRange(1, 30)))
			row.SetVarlen(13, []byte(shipInstructs[rng.Intn(len(shipInstructs))]))
			row.SetVarlen(14, []byte(shipModes[rng.Intn(len(shipModes))]))
			row.SetVarlen(15, []byte(rng.AlphaString(10, 43)))
			if _, err := table.Insert(tx, row); err != nil {
				_ = tx.Abort()
				return nil, fmt.Errorf("tpch: loading row %d: %w", done, err)
			}
			done++
			line++
			if line > 7 || rng.Intn(3) == 0 {
				orderkey++
				line = 1
			}
		}
		if _, err := tx.Commit(); err != nil {
			return nil, err
		}
	}
	return table, nil
}
