// Package index provides the ordered-index substrate the paper's evaluation
// runs on (it uses the OpenBw-Tree; we provide a concurrent B+tree — see
// DESIGN.md "Substitutions"). Keys are memcomparable byte strings built by
// KeyBuilder so multi-column keys sort correctly under bytes.Compare, and a
// hash-sharded wrapper spreads independent key ranges (e.g. TPC-C
// warehouses) across lock domains.
package index

import (
	"encoding/binary"
	"errors"
	"math"
)

// ErrInvalidPrefixLen is returned by NewSharded when prefixLen is not
// positive: the sharded index hashes the first prefixLen key bytes to pick
// a shard, and a non-positive length has no well-defined hash domain
// (earlier versions panicked slicing key[:prefixLen]).
var ErrInvalidPrefixLen = errors.New("index: sharded index prefixLen must be >= 1")

// KeyBuilder assembles order-preserving composite keys. Each appended
// column is encoded so that the concatenation compares (bytewise) in the
// same order as the column tuple compares logically.
type KeyBuilder struct {
	buf []byte
}

// NewKeyBuilder returns a builder with optional capacity hint.
func NewKeyBuilder(capacity int) *KeyBuilder {
	return &KeyBuilder{buf: make([]byte, 0, capacity)}
}

// Reset clears the builder for reuse.
func (k *KeyBuilder) Reset() *KeyBuilder {
	k.buf = k.buf[:0]
	return k
}

// Bytes returns the encoded key (aliases the builder; copy to retain).
func (k *KeyBuilder) Bytes() []byte { return k.buf }

// Clone returns an owned copy of the encoded key.
func (k *KeyBuilder) Clone() []byte { return append([]byte(nil), k.buf...) }

// Uint64 appends an unsigned integer (big-endian sorts naturally).
func (k *KeyBuilder) Uint64(v uint64) *KeyBuilder {
	k.buf = binary.BigEndian.AppendUint64(k.buf, v)
	return k
}

// Int64 appends a signed integer: flipping the sign bit makes negative
// values sort before positive ones bytewise.
func (k *KeyBuilder) Int64(v int64) *KeyBuilder {
	return k.Uint64(uint64(v) ^ (1 << 63))
}

// Int32 appends a 32-bit signed integer.
func (k *KeyBuilder) Int32(v int32) *KeyBuilder {
	k.buf = binary.BigEndian.AppendUint32(k.buf, uint32(v)^(1<<31))
	return k
}

// Int16 appends a 16-bit signed integer.
func (k *KeyBuilder) Int16(v int16) *KeyBuilder {
	k.buf = binary.BigEndian.AppendUint16(k.buf, uint16(v)^(1<<15))
	return k
}

// Int8 appends an 8-bit signed integer.
func (k *KeyBuilder) Int8(v int8) *KeyBuilder {
	k.buf = append(k.buf, uint8(v)^(1<<7))
	return k
}

// Float64 appends a float64 in an order-preserving encoding: positive
// values get their sign bit set, negative values are bitwise complemented,
// so the byte order matches the numeric order (NaNs sort above +Inf).
// Values that compare equal encode equally: -0 becomes +0, and every NaN
// becomes math.NaN(), so an index lookup agrees with an equality filter.
func (k *KeyBuilder) Float64(v float64) *KeyBuilder {
	switch {
	case v == 0:
		v = 0
	case v != v:
		v = math.NaN()
	}
	bits := math.Float64bits(v)
	if bits&(1<<63) != 0 {
		bits = ^bits
	} else {
		bits |= 1 << 63
	}
	k.buf = binary.BigEndian.AppendUint64(k.buf, bits)
	return k
}

// String appends a variable-length byte string terminated so that prefixes
// sort before extensions and embedded zero bytes stay ordered: every 0x00
// becomes 0x00 0xFF, and the value ends with 0x00 0x01.
func (k *KeyBuilder) String(s string) *KeyBuilder {
	for i := 0; i < len(s); i++ {
		c := s[i]
		k.buf = append(k.buf, c)
		if c == 0x00 {
			k.buf = append(k.buf, 0xFF)
		}
	}
	k.buf = append(k.buf, 0x00, 0x01)
	return k
}

// RawBytes appends bytes with the same escaping as String.
func (k *KeyBuilder) RawBytes(b []byte) *KeyBuilder {
	return k.String(string(b))
}

// PrefixEnd returns the smallest key strictly greater than every key having
// prefix p, or nil if p is all 0xFF (no upper bound). Used for prefix range
// scans.
func PrefixEnd(p []byte) []byte {
	end := append([]byte(nil), p...)
	for i := len(end) - 1; i >= 0; i-- {
		if end[i] != 0xFF {
			end[i]++
			return end[:i+1]
		}
	}
	return nil
}
