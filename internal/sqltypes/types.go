// Package sqltypes defines the type system shared by every layer of the
// engine: SQL data types, the unboxed Value union, rows, schemas and the
// binary row codec used by the Indexed DataFrame row batches.
package sqltypes

import "fmt"

// Type identifies a SQL data type. The set mirrors the column types the
// paper recommends indexing: (un)signed 32/64-bit integers, floating point
// numbers, strings and datetimes, plus booleans.
type Type uint8

const (
	// Unknown is the zero Type; expressions that are not yet resolved
	// report it.
	Unknown Type = iota
	// Bool is a boolean.
	Bool
	// Int32 is a signed 32-bit integer.
	Int32
	// Int64 is a signed 64-bit integer.
	Int64
	// Float64 is an IEEE-754 double.
	Float64
	// String is a UTF-8 string.
	String
	// Timestamp is microseconds since the Unix epoch (UTC).
	Timestamp
)

// String implements fmt.Stringer.
func (t Type) String() string {
	switch t {
	case Bool:
		return "BOOLEAN"
	case Int32:
		return "INT"
	case Int64:
		return "BIGINT"
	case Float64:
		return "DOUBLE"
	case String:
		return "STRING"
	case Timestamp:
		return "TIMESTAMP"
	default:
		return "UNKNOWN"
	}
}

// Valid reports whether t is one of the concrete SQL types.
func (t Type) Valid() bool { return t > Unknown && t <= Timestamp }

// Numeric reports whether t supports arithmetic.
func (t Type) Numeric() bool {
	return t == Int32 || t == Int64 || t == Float64
}

// Integral reports whether t is an integer type.
func (t Type) Integral() bool { return t == Int32 || t == Int64 }

// IntLane reports whether t stores its payload in the int64 lane (and
// compares by it): Bool, Int32, Int64 and Timestamp. The vectorized
// kernels and the aggregate's integer-key fast path share this
// classification.
func (t Type) IntLane() bool {
	return t == Bool || t == Int32 || t == Int64 || t == Timestamp
}

// FixedWidth returns the number of bytes the type occupies in the binary
// row layout's fixed section. Strings store an 8-byte (offset,len) slot.
func (t Type) FixedWidth() int {
	switch t {
	case Bool:
		return 1
	case Int32:
		return 4
	case Int64, Float64, Timestamp, String:
		return 8
	default:
		return 0
	}
}

// Comparable reports whether values of types a and b order against each
// other the way Compare and the comparison kernels agree on: both numeric,
// both integer-lane (BOOLEAN, INT, BIGINT, TIMESTAMP) or both STRING.
// Unknown — a NULL or an untyped placeholder — compares with anything.
func Comparable(a, b Type) bool {
	if a == Unknown || b == Unknown || a == b {
		return true
	}
	return (a.Numeric() && b.Numeric()) || (a.IntLane() && b.IntLane())
}

// CommonType returns the wider of two numeric types following standard SQL
// promotion (INT -> BIGINT -> DOUBLE), or an error when no implicit
// promotion exists.
func CommonType(a, b Type) (Type, error) {
	if a == b {
		return a, nil
	}
	if a.Numeric() && b.Numeric() {
		if a == Float64 || b == Float64 {
			return Float64, nil
		}
		if a == Int64 || b == Int64 {
			return Int64, nil
		}
		return Int32, nil
	}
	// Timestamps compare against integer microseconds.
	if (a == Timestamp && b.Integral()) || (b == Timestamp && a.Integral()) {
		return Timestamp, nil
	}
	return Unknown, fmt.Errorf("sqltypes: no common type for %s and %s", a, b)
}
