package sqltypes

import (
	"encoding/binary"
	"fmt"
	"math"
)

// RowCodec encodes rows of a fixed schema into a compact binary format and
// back. The layout mirrors Spark's UnsafeRow, which the paper's row batches
// store:
//
//	[null bitmap ceil(n/8) bytes]
//	[fixed section: one slot per column]
//	[variable section: string payloads]
//
// Fixed slots are little-endian. A STRING slot packs (offset:u32, len:u32)
// with the offset relative to the start of the encoded row. The encoding is
// self-contained: decoding needs only the schema.
type RowCodec struct {
	schema     *Schema
	fixedOff   []int // byte offset of each column's fixed slot
	fixedBytes int
	bitmapLen  int
}

// NewRowCodec builds a codec for the schema.
func NewRowCodec(schema *Schema) *RowCodec {
	c := &RowCodec{
		schema:    schema,
		fixedOff:  make([]int, schema.Len()),
		bitmapLen: (schema.Len() + 7) / 8,
	}
	off := c.bitmapLen
	for i, f := range schema.Fields {
		c.fixedOff[i] = off
		off += f.Type.FixedWidth()
	}
	c.fixedBytes = off
	return c
}

// Schema returns the codec's schema.
func (c *RowCodec) Schema() *Schema { return c.schema }

// MaxEncodedSize returns an upper bound on the encoded size of row.
func (c *RowCodec) MaxEncodedSize(row Row) int {
	n := c.fixedBytes
	for i, f := range c.schema.Fields {
		if f.Type == String && i < len(row) && !row[i].IsNull() {
			n += len(row[i].S)
		}
	}
	return n
}

// EncodedSize returns the exact length Encode gives row, or the error
// Encode would return for it, without encoding.
func (c *RowCodec) EncodedSize(row Row) (int, error) {
	if len(row) != c.schema.Len() {
		return 0, fmt.Errorf("sqltypes: row arity %d does not match schema arity %d",
			len(row), c.schema.Len())
	}
	n := c.fixedBytes
	for i, f := range c.schema.Fields {
		v := row[i]
		if v.IsNull() {
			continue
		}
		if v.T != f.Type {
			var err error
			if v, err = castTo(f, v); err != nil {
				return 0, err
			}
		}
		if f.Type == String {
			n += len(v.S)
		}
	}
	return n, nil
}

// castTo casts a value to the type of the column f it is stored in.
func castTo(f Field, v Value) (Value, error) {
	cast, err := v.Cast(f.Type)
	if err != nil {
		return v, fmt.Errorf("sqltypes: column %q: %v", f.Name, err)
	}
	return cast, nil
}

// Encode appends the binary encoding of row to dst and returns the extended
// slice. The row must match the codec's schema (same arity; values either
// NULL or of the column type).
func (c *RowCodec) Encode(dst []byte, row Row) ([]byte, error) {
	if len(row) != c.schema.Len() {
		return dst, fmt.Errorf("sqltypes: row arity %d does not match schema arity %d",
			len(row), c.schema.Len())
	}
	base := len(dst)
	need := c.MaxEncodedSize(row)
	dst = append(dst, make([]byte, c.fixedBytes)...)
	if cap(dst)-len(dst) < need-c.fixedBytes {
		grown := make([]byte, len(dst), len(dst)+(need-c.fixedBytes))
		copy(grown, dst)
		dst = grown
	}
	buf := dst[base:]
	for i, f := range c.schema.Fields {
		v := row[i]
		if v.IsNull() {
			buf[i/8] |= 1 << (i % 8)
			continue
		}
		if v.T != f.Type {
			var err error
			if v, err = castTo(f, v); err != nil {
				return dst, err
			}
		}
		off := c.fixedOff[i]
		switch f.Type {
		case Bool:
			if v.I != 0 {
				buf[off] = 1
			}
		case Int32:
			binary.LittleEndian.PutUint32(buf[off:], uint32(int32(v.I)))
		case Int64, Timestamp:
			binary.LittleEndian.PutUint64(buf[off:], uint64(v.I))
		case Float64:
			binary.LittleEndian.PutUint64(buf[off:], math.Float64bits(v.F))
		case String:
			varOff := len(dst) - base
			dst = append(dst, v.S...)
			buf = dst[base:]
			binary.LittleEndian.PutUint32(buf[off:], uint32(varOff))
			binary.LittleEndian.PutUint32(buf[off+4:], uint32(len(v.S)))
		}
	}
	return dst, nil
}

// Decode decodes a full row from buf (one encoded row, as produced by
// Encode). The returned row's string values reference buf; callers that
// retain rows past the life of buf must copy.
func (c *RowCodec) Decode(buf []byte) (Row, error) {
	row := make(Row, c.schema.Len())
	if err := c.DecodeInto(buf, row); err != nil {
		return nil, err
	}
	return row, nil
}

// DecodeInto decodes into a caller-provided row slice to avoid allocation.
func (c *RowCodec) DecodeInto(buf []byte, row Row) error {
	if len(buf) < c.fixedBytes {
		return fmt.Errorf("sqltypes: encoded row truncated: %d < %d bytes", len(buf), c.fixedBytes)
	}
	if len(row) != c.schema.Len() {
		return fmt.Errorf("sqltypes: destination arity %d does not match schema arity %d",
			len(row), c.schema.Len())
	}
	for i, f := range c.schema.Fields {
		if buf[i/8]&(1<<(i%8)) != 0 {
			row[i] = Null
			continue
		}
		off := c.fixedOff[i]
		switch f.Type {
		case Bool:
			row[i] = NewBool(buf[off] != 0)
		case Int32:
			row[i] = NewInt32(int32(binary.LittleEndian.Uint32(buf[off:])))
		case Int64:
			row[i] = NewInt64(int64(binary.LittleEndian.Uint64(buf[off:])))
		case Timestamp:
			row[i] = NewTimestamp(int64(binary.LittleEndian.Uint64(buf[off:])))
		case Float64:
			row[i] = NewFloat64(math.Float64frombits(binary.LittleEndian.Uint64(buf[off:])))
		case String:
			s := binary.LittleEndian.Uint32(buf[off:])
			n := binary.LittleEndian.Uint32(buf[off+4:])
			if int(s)+int(n) > len(buf) {
				return fmt.Errorf("sqltypes: string column %q out of bounds (%d+%d > %d)",
					f.Name, s, n, len(buf))
			}
			row[i] = NewString(string(buf[s : s+n]))
		}
	}
	return nil
}

// DecodeColumn decodes only the column at ordinal col, which is the fast
// path the indexed scan uses for projections over encoded rows.
func (c *RowCodec) DecodeColumn(buf []byte, col int) (Value, error) {
	if len(buf) < c.fixedBytes {
		return Null, fmt.Errorf("sqltypes: encoded row truncated")
	}
	if buf[col/8]&(1<<(col%8)) != 0 {
		return Null, nil
	}
	off := c.fixedOff[col]
	switch c.schema.Fields[col].Type {
	case Bool:
		return NewBool(buf[off] != 0), nil
	case Int32:
		return NewInt32(int32(binary.LittleEndian.Uint32(buf[off:]))), nil
	case Int64:
		return NewInt64(int64(binary.LittleEndian.Uint64(buf[off:]))), nil
	case Timestamp:
		return NewTimestamp(int64(binary.LittleEndian.Uint64(buf[off:]))), nil
	case Float64:
		return NewFloat64(math.Float64frombits(binary.LittleEndian.Uint64(buf[off:]))), nil
	case String:
		s := binary.LittleEndian.Uint32(buf[off:])
		n := binary.LittleEndian.Uint32(buf[off+4:])
		if int(s)+int(n) > len(buf) {
			return Null, fmt.Errorf("sqltypes: string column out of bounds")
		}
		return NewString(string(buf[s : s+n])), nil
	}
	return Null, fmt.Errorf("sqltypes: cannot decode column %d", col)
}
