package index

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"mainline/internal/storage"
)

// btreeModel is the reference multiset a BTree is checked against: each
// key's slots, ascending, one element per stored instance.
type btreeModel struct {
	m map[string][]storage.TupleSlot
	n int
}

func newBTreeModel() *btreeModel { return &btreeModel{m: map[string][]storage.TupleSlot{}} }

func (m *btreeModel) has(k []byte, s storage.TupleSlot) bool {
	_, ok := slices.BinarySearch(m.m[string(k)], s)
	return ok
}

func (m *btreeModel) add(k []byte, s storage.TupleSlot) {
	v := m.m[string(k)]
	i, _ := slices.BinarySearch(v, s)
	m.m[string(k)] = slices.Insert(v, i, s)
	m.n++
}

func (m *btreeModel) remove(k []byte, s storage.TupleSlot) bool {
	v := m.m[string(k)]
	i, ok := slices.BinarySearch(v, s)
	if !ok {
		return false
	}
	if v = slices.Delete(v, i, i+1); len(v) == 0 {
		delete(m.m, string(k))
	} else {
		m.m[string(k)] = v
	}
	m.n--
	return true
}

func (m *btreeModel) removeKey(k []byte) bool {
	v, ok := m.m[string(k)]
	delete(m.m, string(k))
	m.n -= len(v)
	return ok
}

// modelEntry is one (key, slot) instance in scan order.
type modelEntry struct {
	key  string
	slot storage.TupleSlot
}

// entries lists the instances with lo <= key < hi (hi nil = unbounded) in
// (key, slot) order.
func (m *btreeModel) entries(lo, hi []byte) []modelEntry {
	var keys []string
	for k := range m.m {
		if k >= string(lo) && (hi == nil || k < string(hi)) {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	var out []modelEntry
	for _, k := range keys {
		for _, s := range m.m[k] {
			out = append(out, modelEntry{k, s})
		}
	}
	return out
}

type btreeOpKind uint8

const (
	opInsert btreeOpKind = iota
	opInsertMulti
	opInsertUnique
	opDelete
	opDeleteKey
	opGet
	opGetOne
	opScan
	opScanPrefix
	// opInsertRun InsertMultis n consecutive slots under one key: runs
	// longer than a leaf make a key's entries span splits.
	opInsertRun
	numBTreeOps
)

type btreeOp struct {
	kind btreeOpKind
	key  []byte
	hi   []byte // opScan's bound (nil = unbounded)
	slot storage.TupleSlot
	n    int // opInsertRun's length
}

func scanEntries(scan func(fn func([]byte, storage.TupleSlot) bool)) []modelEntry {
	var out []modelEntry
	scan(func(k []byte, s storage.TupleSlot) bool {
		out = append(out, modelEntry{string(k), s})
		return true
	})
	return out
}

// applyBTreeOp runs op on both the tree and the model and reports the
// first disagreement.
func applyBTreeOp(tr *BTree, m *btreeModel, op btreeOp) error {
	k, s := op.key, op.slot
	switch op.kind {
	case opInsert:
		tr.Insert(k, s)
		if !m.has(k, s) {
			m.add(k, s)
		}
	case opInsertMulti:
		tr.InsertMulti(k, s)
		m.add(k, s)
	case opInsertUnique:
		want := len(m.m[string(k)]) == 0
		if want {
			m.add(k, s)
		}
		if got := tr.InsertUnique(k, s); got != want {
			return fmt.Errorf("InsertUnique(%x, %d) = %v, want %v", k, s, got, want)
		}
	case opDelete:
		if got, want := tr.Delete(k, s), m.remove(k, s); got != want {
			return fmt.Errorf("Delete(%x, %d) = %v, want %v", k, s, got, want)
		}
	case opDeleteKey:
		if got, want := tr.Delete(k, 0), m.removeKey(k); got != want {
			return fmt.Errorf("Delete(%x, 0) = %v, want %v", k, got, want)
		}
	case opGet:
		got, want := tr.Get(k, nil), m.m[string(k)]
		if !slices.Equal(got, want) {
			return fmt.Errorf("Get(%x) = %v, want %v", k, got, want)
		}
	case opGetOne:
		got, ok := tr.GetOne(k)
		want := m.m[string(k)]
		if ok != (len(want) > 0) || (ok && got != want[0]) {
			return fmt.Errorf("GetOne(%x) = %d, %v; want %v", k, got, ok, want)
		}
	case opScan:
		got := scanEntries(func(fn func([]byte, storage.TupleSlot) bool) { tr.Scan(k, op.hi, fn) })
		if want := m.entries(k, op.hi); !slices.Equal(got, want) {
			return fmt.Errorf("Scan(%x, %x) = %d entries %v, want %d entries %v", k, op.hi, len(got), got, len(want), want)
		}
	case opScanPrefix:
		got := scanEntries(func(fn func([]byte, storage.TupleSlot) bool) { tr.ScanPrefix(k, fn) })
		if want := m.entries(k, PrefixEnd(k)); !slices.Equal(got, want) {
			return fmt.Errorf("ScanPrefix(%x) = %d entries, want %d", k, len(got), len(want))
		}
	case opInsertRun:
		for i := 0; i < op.n; i++ {
			tr.InsertMulti(k, s+storage.TupleSlot(i))
			m.add(k, s+storage.TupleSlot(i))
		}
	}
	if tr.Len() != m.n {
		return fmt.Errorf("after op %d: Len = %d, want %d", op.kind, tr.Len(), m.n)
	}
	return nil
}

// opReader decodes fuzz bytes into btreeOps; it reads zeros once the
// input is exhausted.
type opReader struct{ data []byte }

func (r *opReader) next() byte {
	if len(r.data) == 0 {
		return 0
	}
	b := r.data[0]
	r.data = r.data[1:]
	return b
}

// key decodes a key. A first byte below keyKinds decodes as a fixed
// 8-byte Int64 key from a small domain (even) or a String key of up to 4
// bytes over an alphabet with an embedded zero and 0xFF (odd). From
// keyKinds up, its low two bits pick a kind the prefix-truncated, head-keyed
// nodes are sensitive to: a TPC-C-shaped (warehouse, district, order)
// Int32 key from a domain that splits leaves; a String of up to 12 bytes
// opening with one of two 8-byte prefixes that differ in their last byte,
// where a head ends; or a raw key that differs from its neighbours only
// by trailing zero bytes, short or past a head's length.
func (r *opReader) key() []byte {
	const alphabet = "\x00\x01a\xff"
	b := r.next()
	if b >= keyKinds {
		switch b & 3 {
		case 0:
			o := (int32(r.next())<<8 | int32(r.next())) % 3000
			return NewKeyBuilder(12).Int32(int32(r.next() % 2)).Int32(int32(r.next() % 10)).Int32(o).Clone()
		case 1:
			s := []byte([]string{"order-li", "order-lj"}[r.next()%2])
			for n := r.next() % 5; n > 0; n-- {
				s = append(s, alphabet[r.next()%4])
			}
			return NewKeyBuilder(16).RawBytes(s).Clone()
		default:
			base := []string{"", "a", "abcdefg"}[int(b&3)-2+int(r.next()%2)]
			return append([]byte(base), make([]byte, r.next()%10)...)
		}
	}
	if b&1 == 0 {
		return NewKeyBuilder(8).Int64(int64(b>>1)%16 - 4).Clone()
	}
	s := make([]byte, int(b>>1)%5)
	for i := range s {
		s[i] = alphabet[r.next()%4]
	}
	return NewKeyBuilder(8).RawBytes(s).Clone()
}

// keyKinds is the first key byte that selects one of key's added kinds.
const keyKinds = 0xC0

func (r *opReader) op() btreeOp {
	op := btreeOp{kind: btreeOpKind(r.next() % byte(numBTreeOps)), key: r.key()}
	// Slots come from a small domain so pairs repeat; slot 0 is the
	// delete-all sentinel and never stored.
	op.slot = storage.TupleSlot(r.next()%40) + 1
	switch op.kind {
	case opScan:
		if b := r.next(); b%4 != 0 {
			op.hi = r.key()
		}
	case opScanPrefix:
		op.key = op.key[:int(r.next())%(len(op.key)+1)]
	case opInsertRun:
		op.n = 100 + int(r.next())
	}
	return op
}

// FuzzBTreeOps checks the tree against the multiset model over decoded op
// streams mixing fixed-width and variable-length keys, duplicate pairs,
// InsertMulti multiplicity and keys whose entries span leaf splits.
func FuzzBTreeOps(f *testing.F) {
	// Each seed op is the bytes opReader decodes it from. A hot fixed key
	// (Int64 0: byte 8) holds two runs larger than a leaf; the other ops
	// delete one instance, then a whole key, and scan across.
	f.Add(slices.Concat(
		[]byte{byte(opInsertRun), 8, 0, 200},
		[]byte{byte(opInsertRun), 8, 5, 120},
		[]byte{byte(opInsert), 8, 3},
		[]byte{byte(opInsertMulti), 8, 3},
		[]byte{byte(opGet), 8, 0},
		[]byte{byte(opDelete), 8, 3},
		[]byte{byte(opGetOne), 8, 0},
		[]byte{byte(opInsertUnique), 10, 1},
		[]byte{byte(opScan), 6, 0, 1, 12},
		[]byte{byte(opDeleteKey), 8, 0},
		[]byte{byte(opScan), 0, 0, 0},
	))
	// String keys with embedded zeros around a spanning run, then prefix
	// scans and deletes through it.
	f.Add(slices.Concat(
		[]byte{byte(opInsertMulti), 5, 0, 2, 7},
		[]byte{byte(opInsertRun), 5, 0, 2, 1, 150},
		[]byte{byte(opInsertMulti), 5, 0, 3, 7},
		[]byte{byte(opInsertMulti), 3, 0, 2},
		[]byte{byte(opScanPrefix), 5, 0, 2, 0, 2},
		[]byte{byte(opScanPrefix), 5, 0, 2, 0, 1},
		[]byte{byte(opDelete), 5, 0, 2, 30},
		[]byte{byte(opGet), 5, 0, 2, 0},
		[]byte{byte(opDeleteKey), 5, 0, 2, 0},
		[]byte{byte(opGet), 5, 0, 3, 0},
		[]byte{byte(opScan), 1, 0, 0},
	))
	f.Add([]byte{})
	// One seed per added key kind: enough inserts to split leaves and
	// inner nodes, then point reads, deletes that empty leaves, and scans.
	for kind := byte(0); kind < 4; kind++ {
		var seed []byte
		for i := 0; i < 600; i++ {
			x := byte(i*37 + i>>3)
			seed = append(seed, byte(opInsertMulti), keyKinds|kind, x, byte(i), x>>2, byte(i>>4), byte(i)%40)
		}
		for i := 0; i < 300; i++ {
			x := byte(i*37 + i>>3)
			op := []byte{byte(opDelete), byte(opGet), byte(opDeleteKey), byte(opScan)}[i%4]
			seed = append(seed, op, keyKinds|kind, x, byte(i), x>>2, byte(i>>4), byte(i)%40, 1, keyKinds|kind, x+9, byte(i), 7, 7, 7)
		}
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, m := NewBTree(), newBTreeModel()
		r := &opReader{data}
		for len(r.data) > 0 {
			if err := applyBTreeOp(tr, m, r.op()); err != nil {
				t.Fatal(err)
			}
		}
		if err := applyBTreeOp(tr, m, btreeOp{kind: opScan, key: []byte{}}); err != nil {
			t.Fatal(err)
		}
	})
}
