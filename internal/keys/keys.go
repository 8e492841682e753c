// Package keys implements the normalized-key encoding that opens the
// engine's uint64 fast path to real-world keys: multi-column composites,
// signed integers, floating-point values and variable-length byte strings.
//
// The idea is the classic normalized key of System R-era sort engines,
// rebuilt for the columnar MPSM hot path: every composite key is encoded
// into a byte string whose memcmp order equals the schema's semantic order
// (sign-flipped two's-complement integers, monotone IEEE-754 float
// transform, 0x00-escaped length-terminated byte strings, per-column
// byte inversion for DESC, a marker byte for nullable columns). The first
// eight bytes of that string, read big-endian, become the tuple's uint64
// key — so the packed radix sort, the branch-free SelectRange selection
// vectors and the cache-blocked merge kernels all run unmodified on the
// prefix.
//
// Two regimes fall out of the schema shape:
//
//   - Exact: the whole normalized key fits the 8-byte prefix (a single
//     non-nullable numeric column). Prefix order and equality ARE key
//     order and equality; tuples carry the caller's payload directly and
//     the join runs at raw-uint64 speed with zero overhead.
//   - Tie-break: the normalized key can exceed 8 bytes (strings,
//     composites, nullable columns). Tuples carry their row index as the
//     payload, the full normalized keys live in a byte-sliced overflow
//     column (batch.Bytes), and the join verifies every prefix-equal
//     candidate pair against the full keys before it reaches the sink —
//     only genuinely colliding prefixes pay for the comparison.
//
// The encoding is order-exact: for any two rows a, b of the same schema,
// bytes.Compare(Normalize(a), Normalize(b)) == CompareRows(a, b), and the
// uint64 prefix is monotone in that order (prefix(a) < prefix(b) implies
// a < b). The differential fuzz tests in this package hold the encoder to
// exactly that contract against the reference comparator.
package keys

import (
	"fmt"
	"math"
	"strings"
)

// Type is the value type of one key column.
type Type uint8

const (
	// Int64 is a signed 64-bit integer column.
	Int64 Type = iota
	// Uint64 is an unsigned 64-bit integer column.
	Uint64
	// Float64 is an IEEE-754 double column. NaNs compare equal to each
	// other and greater than every number; -0.0 compares equal to +0.0.
	Float64
	// Bytes is a variable-length byte-string column ([]byte or string).
	Bytes
)

// String implements fmt.Stringer.
func (t Type) String() string {
	switch t {
	case Int64:
		return "int64"
	case Uint64:
		return "uint64"
	case Float64:
		return "float64"
	case Bytes:
		return "bytes"
	default:
		return fmt.Sprintf("Type(%d)", int(t))
	}
}

// Column describes one column of a key schema.
type Column struct {
	// Name is an optional diagnostic label.
	Name string
	// Type is the column's value type.
	Type Type
	// Desc sorts the column descending (implemented as byte inversion of
	// the column's normalized encoding, so it composes with every type).
	Desc bool
	// Nullable admits null values; it adds one marker byte per value.
	Nullable bool
	// NullsLast orders nulls after non-null values instead of before them
	// (only meaningful with Nullable; DESC flips the placement too, like
	// it flips everything else about the column).
	NullsLast bool
}

// Schema is an ordered list of key columns. Build one with New; the zero
// value is invalid.
type Schema struct {
	cols  []Column
	exact bool
	sig   string
}

// New validates the columns and returns their schema.
func New(cols ...Column) (*Schema, error) {
	if len(cols) == 0 {
		return nil, fmt.Errorf("keys: a schema needs at least one column")
	}
	for i, c := range cols {
		switch c.Type {
		case Int64, Uint64, Float64, Bytes:
		default:
			return nil, fmt.Errorf("keys: column %d has unknown type %v", i, c.Type)
		}
		if c.NullsLast && !c.Nullable {
			return nil, fmt.Errorf("keys: column %d sets NullsLast without Nullable", i)
		}
	}
	s := &Schema{cols: append([]Column(nil), cols...)}
	s.exact = s.fixedWidth() >= 0 && s.fixedWidth() <= prefixBytes
	s.sig = s.signature()
	return s, nil
}

// MustNew is New for statically known schemas; it panics on error.
func MustNew(cols ...Column) *Schema {
	s, err := New(cols...)
	if err != nil {
		panic(err)
	}
	return s
}

// Columns returns a copy of the schema's columns.
func (s *Schema) Columns() []Column { return append([]Column(nil), s.cols...) }

// prefixBytes is the width of the uint64 key prefix.
const prefixBytes = 8

// fixedWidth returns the exact normalized width of the schema in bytes, or
// -1 when any column is variable-length.
func (s *Schema) fixedWidth() int {
	w := 0
	for _, c := range s.cols {
		if c.Type == Bytes {
			return -1
		}
		w += 8
		if c.Nullable {
			w++
		}
	}
	return w
}

// Exact reports whether the full normalized key always fits the 8-byte
// uint64 prefix, making prefix order and equality exact — the zero-overhead
// fast path. Variable-length (Bytes) and multi-column or nullable schemas
// are inexact and use the tie-break path.
func (s *Schema) Exact() bool { return s.exact }

// Signature is the canonical description of the schema's key semantics.
// Two relations may only be tie-break-joined when their signatures match,
// since the join compares their normalized encodings byte for byte.
func (s *Schema) Signature() string { return s.sig }

// signature renders the canonical schema description.
func (s *Schema) signature() string {
	var b strings.Builder
	for i, c := range s.cols {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(c.Type.String())
		if c.Desc {
			b.WriteString(":desc")
		}
		if c.Nullable {
			if c.NullsLast {
				b.WriteString(":nullslast")
			} else {
				b.WriteString(":nullsfirst")
			}
		}
	}
	return b.String()
}

// String implements fmt.Stringer.
func (s *Schema) String() string { return "Schema{" + s.sig + "}" }

// Value is one key column value. The zero Value is a typed zero only in
// the context of the column it is encoded under; construct values with the
// typed constructors.
type Value struct {
	null bool
	t    Type
	i    int64
	u    uint64
	f    float64
	b    []byte
}

// Int64Value returns a signed integer value.
func Int64Value(v int64) Value { return Value{t: Int64, i: v} }

// Uint64Value returns an unsigned integer value.
func Uint64Value(v uint64) Value { return Value{t: Uint64, u: v} }

// Float64Value returns a float value.
func Float64Value(v float64) Value { return Value{t: Float64, f: v} }

// BytesValue returns a byte-string value; the bytes are not copied.
func BytesValue(v []byte) Value { return Value{t: Bytes, b: v} }

// StringValue returns a byte-string value backed by the string.
func StringValue(v string) Value { return Value{t: Bytes, b: []byte(v)} }

// NullValue returns the null value; it is valid for any nullable column.
func NullValue() Value { return Value{null: true} }

// checkType verifies a value against its column.
func checkType(col Column, v Value) error {
	if v.null {
		if !col.Nullable {
			return fmt.Errorf("keys: null value for non-nullable %v column %q", col.Type, col.Name)
		}
		return nil
	}
	if v.t != col.Type {
		return fmt.Errorf("keys: %v value for %v column %q", v.t, col.Type, col.Name)
	}
	return nil
}

// Null ordering markers: the marker byte of a nullable column. An absent
// value must order on the marker alone, so the markers of null and present
// values differ; DESC inverts the whole column including the marker, which
// flips the null placement along with everything else.
const (
	markerNullFirst = 0x00 // null, NullsFirst
	markerPresent   = 0x01
	markerNullLast  = 0x02 // null, NullsLast
)

// AppendNormalized appends the order-preserving normalized encoding of one
// row to dst and returns the extended slice. The row must have exactly one
// value per schema column, each matching its column's type (or null for a
// nullable column).
func (s *Schema) AppendNormalized(dst []byte, row []Value) ([]byte, error) {
	if len(row) != len(s.cols) {
		return dst, fmt.Errorf("keys: row has %d values, schema has %d columns", len(row), len(s.cols))
	}
	for ci, col := range s.cols {
		v := row[ci]
		if err := checkType(col, v); err != nil {
			return dst, err
		}
		start := len(dst)
		if col.Nullable {
			switch {
			case !v.null:
				dst = append(dst, markerPresent)
			case col.NullsLast:
				dst = append(dst, markerNullLast)
			default:
				dst = append(dst, markerNullFirst)
			}
		}
		if !v.null {
			switch col.Type {
			case Int64:
				dst = appendU64(dst, uint64(v.i)^(1<<63))
			case Uint64:
				dst = appendU64(dst, v.u)
			case Float64:
				dst = appendU64(dst, floatBits(v.f))
			case Bytes:
				dst = appendEscaped(dst, v.b)
			}
		}
		if col.Desc {
			for i := start; i < len(dst); i++ {
				dst[i] ^= 0xFF
			}
		}
	}
	return dst, nil
}

// appendU64 appends v big-endian, so byte order equals numeric order.
func appendU64(dst []byte, v uint64) []byte {
	return append(dst,
		byte(v>>56), byte(v>>48), byte(v>>40), byte(v>>32),
		byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

// floatBits is the monotone IEEE-754 transform: canonicalize -0.0 to +0.0
// and every NaN to one quiet NaN (so equal-comparing values encode
// identically), then map negatives by full inversion and non-negatives by
// sign-bit flip. The resulting uint64 order equals the semantic float
// order with NaN greatest.
func floatBits(f float64) uint64 {
	if f == 0 {
		f = 0 // collapse -0.0
	}
	bits := math.Float64bits(f)
	if math.IsNaN(f) {
		bits = 0x7FF8000000000000
	}
	if bits>>63 != 0 {
		return ^bits
	}
	return bits | 1<<63
}

// Byte-string escaping: 0x00 content bytes become 0x00 0xFF and the string
// ends with the terminator 0x00 0x01, so no encoded string is a strict
// prefix of another and memcmp order equals (content-wise) lexicographic
// order with shorter-is-smaller semantics.
const (
	escByte       = 0x00
	escByteFill   = 0xFF
	terminatorEnd = 0x01
)

// appendEscaped appends the escaped, terminated encoding of b.
func appendEscaped(dst, b []byte) []byte {
	for _, c := range b {
		if c == escByte {
			dst = append(dst, escByte, escByteFill)
		} else {
			dst = append(dst, c)
		}
	}
	return append(dst, escByte, terminatorEnd)
}

// Prefix reads the first 8 bytes of a normalized key big-endian,
// zero-padding short keys, so uint64 prefix order is monotone in
// normalized-key order (equal prefixes merely mean "undecided in the first
// 8 bytes").
func Prefix(norm []byte) uint64 {
	var p uint64
	n := min(len(norm), prefixBytes)
	for i := 0; i < n; i++ {
		p |= uint64(norm[i]) << (56 - 8*i)
	}
	return p
}

// CompareRows is the reference semantic comparator: the order the
// normalized encoding must reproduce. It compares column by column with
// the schema's DESC and null placement, treating NaN as equal to NaN and
// greater than every number and -0.0 as equal to +0.0. It reports -1, 0
// or +1 and is the oracle of the differential encoder tests.
func (s *Schema) CompareRows(a, b []Value) int {
	for ci, col := range s.cols {
		c := compareValue(col, a[ci], b[ci])
		if c != 0 {
			if col.Desc {
				return -c
			}
			return c
		}
	}
	return 0
}

// compareValue compares one column value pair ascending, nulls placed per
// the column.
func compareValue(col Column, a, b Value) int {
	if a.null || b.null {
		switch {
		case a.null && b.null:
			return 0
		case a.null:
			if col.NullsLast {
				return 1
			}
			return -1
		default:
			if col.NullsLast {
				return -1
			}
			return 1
		}
	}
	switch col.Type {
	case Int64:
		return cmpOrdered(a.i, b.i)
	case Uint64:
		return cmpOrdered(a.u, b.u)
	case Float64:
		af, bf := a.f, b.f
		an, bn := math.IsNaN(af), math.IsNaN(bf)
		switch {
		case an && bn:
			return 0
		case an:
			return 1
		case bn:
			return -1
		}
		return cmpOrdered(af, bf) // ±0.0 compare equal under ==
	case Bytes:
		return cmpBytes(a.b, b.b)
	}
	return 0
}

// cmpOrdered is three-way comparison for ordered scalars.
func cmpOrdered[T int64 | uint64 | float64](a, b T) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// cmpBytes is lexicographic byte comparison (bytes.Compare without the
// import, so the package's comparison semantics sit in one file).
func cmpBytes(a, b []byte) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			if a[i] < b[i] {
				return -1
			}
			return 1
		}
	}
	return cmpOrdered(int64(len(a)), int64(len(b)))
}
