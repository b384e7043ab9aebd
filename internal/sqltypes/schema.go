package sqltypes

import (
	"fmt"
	"strings"
	"sync/atomic"
	"unicode/utf8"
)

// Field describes a single column: its name, type and nullability.
type Field struct {
	Name     string
	Type     Type
	Nullable bool
}

// String renders the field as "name TYPE [NOT NULL]".
func (f Field) String() string {
	if f.Nullable {
		return fmt.Sprintf("%s %s", f.Name, f.Type)
	}
	return fmt.Sprintf("%s %s NOT NULL", f.Name, f.Type)
}

// Schema is an ordered list of fields. Schemas are treated as immutable
// once built; derive new ones with Project/Concat.
type Schema struct {
	Fields []Field
	// lookups counts IndexOf calls until names is built.
	lookups atomic.Int32
	// names resolves IndexOf once the schema has seen scanLookups lookups.
	names atomic.Pointer[nameIndex]
}

// NewSchema builds a schema from fields.
func NewSchema(fields ...Field) *Schema {
	return &Schema{Fields: fields}
}

// Len returns the number of columns.
func (s *Schema) Len() int { return len(s.Fields) }

// String renders the schema as "(a BIGINT, b STRING)".
func (s *Schema) String() string {
	parts := make([]string, len(s.Fields))
	for i, f := range s.Fields {
		parts[i] = f.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// IndexOf returns the ordinal of the column with the given name
// (case-insensitive), or -1 when absent. Names may be qualified as
// "table.col"; an unqualified lookup matches the suffix. An exact match
// wins (the first, if several differ only in case); an unqualified name
// that several fields carry as their suffix is ambiguous (-1).
func (s *Schema) IndexOf(name string) int {
	ix := s.names.Load()
	if ix == nil {
		if s.lookups.Add(1) <= scanLookups {
			return s.scanIndexOf(name)
		}
		ix = newNameIndex(s.Fields)
		s.names.Store(ix)
	}
	var buf [64]byte
	key, ascii := foldASCII(buf[:0], name)
	if ix.byName == nil || !ascii {
		return s.scanIndexOf(name)
	}
	if i, ok := ix.byName[string(key)]; ok {
		return i
	}
	return -1
}

// scanLookups is how many lookups a schema answers by scan before it
// builds its name map. Most schemas are made for one compile and see a
// handful of lookups; the few that outlive a compile see most lookups
// and get the map.
const scanLookups = 16

// nameIndex maps every name IndexOf can resolve, folded to lower case, to
// its answer. byName is nil when a field name is not ASCII: case folding
// beyond ASCII is left to scanIndexOf.
type nameIndex struct {
	byName map[string]int
}

func newNameIndex(fields []Field) *nameIndex {
	folded := make([]string, len(fields))
	for i, f := range fields {
		k, ascii := foldASCII(nil, f.Name)
		if !ascii {
			return &nameIndex{}
		}
		folded[i] = string(k)
	}
	byName := make(map[string]int, 2*len(fields))
	for i, k := range folded {
		if _, dup := byName[k]; !dup {
			byName[k] = i
		}
	}
	for i, k := range folded {
		dot := strings.LastIndexByte(k, '.')
		if dot < 0 {
			continue
		}
		suffix := k[dot+1:]
		switch j, seen := byName[suffix]; {
		case !seen:
			byName[suffix] = i
		case j >= 0 && folded[j] == suffix:
			// A field named exactly the suffix wins.
		default:
			byName[suffix] = -1 // a second field carries it
		}
	}
	return &nameIndex{byName: byName}
}

// foldASCII appends name lower-cased to dst; ascii is false (and the
// result unusable) when name holds a non-ASCII byte.
func foldASCII(dst []byte, name string) (folded []byte, ascii bool) {
	for i := 0; i < len(name); i++ {
		c := name[i]
		if c >= utf8.RuneSelf {
			return dst, false
		}
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		dst = append(dst, c)
	}
	return dst, true
}

// scanIndexOf is IndexOf by linear scan, with full Unicode case folding.
func (s *Schema) scanIndexOf(name string) int {
	for i, f := range s.Fields {
		if strings.EqualFold(f.Name, name) {
			return i
		}
	}
	if !strings.Contains(name, ".") {
		found := -1
		for i, f := range s.Fields {
			if dot := strings.LastIndexByte(f.Name, '.'); dot >= 0 &&
				strings.EqualFold(f.Name[dot+1:], name) {
				if found >= 0 {
					return -1 // ambiguous
				}
				found = i
			}
		}
		return found
	}
	return -1
}

// Field returns the field at ordinal i.
func (s *Schema) Field(i int) Field { return s.Fields[i] }

// Project returns a new schema keeping the ordinals in cols, in order.
func (s *Schema) Project(cols []int) *Schema {
	out := make([]Field, len(cols))
	for i, c := range cols {
		out[i] = s.Fields[c]
	}
	return &Schema{Fields: out}
}

// Concat returns a schema with the fields of s followed by those of other,
// as produced by a join.
func (s *Schema) Concat(other *Schema) *Schema {
	out := make([]Field, 0, len(s.Fields)+len(other.Fields))
	out = append(out, s.Fields...)
	out = append(out, other.Fields...)
	return &Schema{Fields: out}
}

// Qualify returns a copy of the schema with every unqualified column name
// prefixed by "alias.".
func (s *Schema) Qualify(alias string) *Schema {
	out := make([]Field, len(s.Fields))
	for i, f := range s.Fields {
		name := f.Name
		if dot := strings.LastIndexByte(name, '.'); dot >= 0 {
			name = name[dot+1:]
		}
		out[i] = Field{Name: alias + "." + name, Type: f.Type, Nullable: f.Nullable}
	}
	return &Schema{Fields: out}
}

// ShortNames returns the column names with any qualifier stripped.
func (s *Schema) ShortNames() []string {
	out := make([]string, len(s.Fields))
	for i, f := range s.Fields {
		name := f.Name
		if dot := strings.LastIndexByte(name, '.'); dot >= 0 {
			name = name[dot+1:]
		}
		out[i] = name
	}
	return out
}

// Equal reports whether two schemas have identical fields.
func (s *Schema) Equal(other *Schema) bool {
	if len(s.Fields) != len(other.Fields) {
		return false
	}
	for i := range s.Fields {
		if s.Fields[i] != other.Fields[i] {
			return false
		}
	}
	return true
}

// Row is a tuple of values positionally aligned with a schema.
type Row []Value

// Clone returns a copy of the row (values are value types; strings share
// backing storage, which is safe because rows are immutable by convention).
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}

// Concat returns a new row with the values of r followed by other's.
func (r Row) Concat(other Row) Row {
	out := make(Row, 0, len(r)+len(other))
	out = append(out, r...)
	out = append(out, other...)
	return out
}

// String renders the row as "[a, b, c]".
func (r Row) String() string {
	parts := make([]string, len(r))
	for i, v := range r {
		parts[i] = v.String()
	}
	return "[" + strings.Join(parts, ", ") + "]"
}

// RowIter is a pull-based iterator over rows. Next returns nil, io-style,
// when exhausted; implementations return an error for runtime failures.
type RowIter interface {
	Next() (Row, error)
}

// SliceIter adapts a []Row to a RowIter.
type SliceIter struct {
	rows []Row
	pos  int
}

// NewSliceIter returns an iterator over rows.
func NewSliceIter(rows []Row) *SliceIter { return &SliceIter{rows: rows} }

// Next implements RowIter.
func (it *SliceIter) Next() (Row, error) {
	if it.pos >= len(it.rows) {
		return nil, nil
	}
	r := it.rows[it.pos]
	it.pos++
	return r, nil
}

// Rest hands over the rows not yet delivered, exhausting the iterator. The
// slice is capped at its length, so appending to it never writes into the
// backing array of the slice the iterator was built over.
func (it *SliceIter) Rest() ([]Row, bool) {
	rest := it.rows[it.pos:len(it.rows):len(it.rows)]
	it.pos = len(it.rows)
	return rest, true
}

// RowsHolder is a RowIter that may already hold its remaining rows as a
// slice. Rest returns them and exhausts the iterator; ok is false, and the
// iterator untouched, when it does not hold them (a wrapper whose inner
// iterator streams).
type RowsHolder interface {
	RowIter
	Rest() (rows []Row, ok bool)
}

// AppendRow appends r to rows, doubling the capacity when it is full
// rather than taking append's 1.25x step for large slices, which copies a
// long materialization about five times over. The first row gets 4
// slots, so a one-row short read does not pay for a large slice.
func AppendRow(rows []Row, r Row) []Row {
	if len(rows) == cap(rows) {
		rows = append(make([]Row, 0, max(2*cap(rows), 4)), rows...)
	}
	return append(rows, r)
}

// Drain reads an iterator to completion and returns all rows.
func Drain(it RowIter) ([]Row, error) {
	var out []Row
	for {
		r, err := it.Next()
		if err != nil {
			return nil, err
		}
		if r == nil {
			return out, nil
		}
		out = append(out, r)
	}
}
