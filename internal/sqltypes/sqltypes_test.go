package sqltypes

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"time"
)

func TestTypeStringAndWidth(t *testing.T) {
	cases := []struct {
		t     Type
		name  string
		width int
	}{
		{Bool, "BOOLEAN", 1},
		{Int32, "INT", 4},
		{Int64, "BIGINT", 8},
		{Float64, "DOUBLE", 8},
		{String, "STRING", 8},
		{Timestamp, "TIMESTAMP", 8},
		{Unknown, "UNKNOWN", 0},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.name {
			t.Errorf("%v.String() = %q, want %q", c.t, got, c.name)
		}
		if got := c.t.FixedWidth(); got != c.width {
			t.Errorf("%v.FixedWidth() = %d, want %d", c.t, got, c.width)
		}
	}
}

func TestCommonType(t *testing.T) {
	cases := []struct {
		a, b, want Type
		err        bool
	}{
		{Int32, Int32, Int32, false},
		{Int32, Int64, Int64, false},
		{Int64, Float64, Float64, false},
		{Int32, Float64, Float64, false},
		{Timestamp, Int64, Timestamp, false},
		{String, String, String, false},
		{String, Int64, Unknown, true},
		{Bool, Int64, Unknown, true},
	}
	for _, c := range cases {
		got, err := CommonType(c.a, c.b)
		if (err != nil) != c.err {
			t.Errorf("CommonType(%v,%v) err = %v, want err=%v", c.a, c.b, err, c.err)
			continue
		}
		if !c.err && got != c.want {
			t.Errorf("CommonType(%v,%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestValueConstructorsAndAccessors(t *testing.T) {
	if v := NewBool(true); !v.Bool() || v.T != Bool {
		t.Errorf("NewBool(true) = %+v", v)
	}
	if v := NewInt32(-7); v.Int64Val() != -7 || v.T != Int32 {
		t.Errorf("NewInt32(-7) = %+v", v)
	}
	if v := NewInt64(1 << 40); v.Int64Val() != 1<<40 {
		t.Errorf("NewInt64 = %+v", v)
	}
	if v := NewFloat64(2.5); v.Float64Val() != 2.5 {
		t.Errorf("NewFloat64 = %+v", v)
	}
	if v := NewString("abc"); v.StringVal() != "abc" {
		t.Errorf("NewString = %+v", v)
	}
	ts := time.Date(2019, 6, 30, 12, 0, 0, 0, time.UTC)
	if v := NewTimestampFromTime(ts); !v.Time().Equal(ts) {
		t.Errorf("NewTimestampFromTime = %v, want %v", v.Time(), ts)
	}
	if !Null.IsNull() || Null.T != Unknown {
		t.Errorf("Null = %+v", Null)
	}
}

func TestValueString(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{Null, "NULL"},
		{NewBool(true), "true"},
		{NewBool(false), "false"},
		{NewInt64(42), "42"},
		{NewFloat64(1.5), "1.5"},
		{NewString("hi"), "hi"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("%+v.String() = %q, want %q", c.v, got, c.want)
		}
	}
}

func TestCast(t *testing.T) {
	cases := []struct {
		v    Value
		t    Type
		want Value
		err  bool
	}{
		{NewInt64(5), Float64, NewFloat64(5), false},
		{NewInt64(5), Int32, NewInt32(5), false},
		{NewInt64(math.MaxInt64), Int32, Null, true},
		{NewFloat64(2.9), Int64, NewInt64(2), false},
		{NewString("17"), Int64, NewInt64(17), false},
		{NewString("x"), Int64, Null, true},
		{NewString("2.5"), Float64, NewFloat64(2.5), false},
		{NewInt64(1), Bool, NewBool(true), false},
		{NewString("true"), Bool, NewBool(true), false},
		{NewInt64(123), String, NewString("123"), false},
		{Null, Int64, Null, false},
		{NewInt64(99), Timestamp, NewTimestamp(99), false},
		{NewString("2019-06-30"), Timestamp,
			NewTimestampFromTime(time.Date(2019, 6, 30, 0, 0, 0, 0, time.UTC)), false},
	}
	for _, c := range cases {
		got, err := c.v.Cast(c.t)
		if (err != nil) != c.err {
			t.Errorf("%v.Cast(%v) err = %v, want err=%v", c.v, c.t, err, c.err)
			continue
		}
		if !c.err && got != c.want {
			t.Errorf("%v.Cast(%v) = %+v, want %+v", c.v, c.t, got, c.want)
		}
	}
}

func TestCompare(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{NewInt64(1), NewInt64(2), -1},
		{NewInt64(2), NewInt64(2), 0},
		{NewInt64(3), NewInt64(2), 1},
		{NewInt64(2), NewFloat64(2.5), -1},
		{NewFloat64(2.5), NewInt32(2), 1},
		{NewString("a"), NewString("b"), -1},
		{Null, NewInt64(0), -1},
		{NewInt64(0), Null, 1},
		{Null, Null, 0},
		{NewBool(false), NewBool(true), -1},
		{NewTimestamp(10), NewTimestamp(20), -1},
	}
	for _, c := range cases {
		if got := Compare(c.a, c.b); got != c.want {
			t.Errorf("Compare(%v,%v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestEqualNullSemantics(t *testing.T) {
	if Equal(Null, Null) {
		t.Error("Equal(NULL, NULL) must be false in expression semantics")
	}
	if !Equal(NewInt32(3), NewInt64(3)) {
		t.Error("Equal(INT 3, BIGINT 3) must be true")
	}
	if Equal(NewInt64(3), NewInt64(4)) {
		t.Error("Equal(3,4) must be false")
	}
}

func TestHash64Consistency(t *testing.T) {
	// Values that compare equal must hash equal (index correctness).
	pairs := [][2]Value{
		{NewInt32(77), NewInt64(77)},
		{NewInt64(5), NewFloat64(5)},
		{NewString("key"), NewString("key")},
	}
	for _, p := range pairs {
		if p[0].Hash64() != p[1].Hash64() {
			t.Errorf("Hash64 mismatch for equal values %v and %v", p[0], p[1])
		}
	}
	if NewInt64(1).Hash64() == NewInt64(2).Hash64() {
		t.Error("distinct small ints should not collide in practice")
	}
}

func TestHash64EqualImpliesEqualHashProperty(t *testing.T) {
	f := func(x int64) bool {
		return NewInt64(x).Hash64() == NewInt32(int32(x)).Hash64() ==
			(int64(int32(x)) == x) || NewInt64(x).Hash64() != 0
	}
	// The real property: for in-range values equal across widths, hashes match.
	g := func(x int32) bool {
		return NewInt32(x).Hash64() == NewInt64(int64(x)).Hash64()
	}
	if err := quick.Check(g, nil); err != nil {
		t.Error(err)
	}
	_ = f
}

func schemaForCodecTests() *Schema {
	return NewSchema(
		Field{Name: "id", Type: Int64},
		Field{Name: "name", Type: String, Nullable: true},
		Field{Name: "score", Type: Float64, Nullable: true},
		Field{Name: "active", Type: Bool},
		Field{Name: "small", Type: Int32, Nullable: true},
		Field{Name: "created", Type: Timestamp, Nullable: true},
	)
}

func TestRowCodecRoundTrip(t *testing.T) {
	s := schemaForCodecTests()
	c := NewRowCodec(s)
	rows := []Row{
		{NewInt64(1), NewString("alice"), NewFloat64(3.14), NewBool(true), NewInt32(-5), NewTimestamp(1234567)},
		{NewInt64(2), Null, Null, NewBool(false), Null, Null},
		{NewInt64(3), NewString(""), NewFloat64(0), NewBool(true), NewInt32(0), NewTimestamp(0)},
		{NewInt64(-9), NewString("unicode ✓ string"), NewFloat64(math.Inf(1)), NewBool(false), NewInt32(7), NewTimestamp(-1)},
	}
	for _, r := range rows {
		buf, err := c.Encode(nil, r)
		if err != nil {
			t.Fatalf("Encode(%v): %v", r, err)
		}
		got, err := c.Decode(buf)
		if err != nil {
			t.Fatalf("Decode: %v", err)
		}
		for i := range r {
			if got[i] != r[i] {
				t.Errorf("round trip col %d: got %+v, want %+v", i, got[i], r[i])
			}
		}
	}
}

func TestRowCodecDecodeColumn(t *testing.T) {
	s := schemaForCodecTests()
	c := NewRowCodec(s)
	r := Row{NewInt64(10), NewString("bob"), Null, NewBool(true), NewInt32(3), NewTimestamp(55)}
	buf, err := c.Encode(nil, r)
	if err != nil {
		t.Fatal(err)
	}
	for i := range r {
		got, err := c.DecodeColumn(buf, i)
		if err != nil {
			t.Fatalf("DecodeColumn(%d): %v", i, err)
		}
		if got != r[i] {
			t.Errorf("DecodeColumn(%d) = %+v, want %+v", i, got, r[i])
		}
	}
}

func TestRowCodecArityMismatch(t *testing.T) {
	c := NewRowCodec(NewSchema(Field{Name: "a", Type: Int64}))
	if _, err := c.Encode(nil, Row{NewInt64(1), NewInt64(2)}); err == nil {
		t.Error("Encode with wrong arity should fail")
	}
	if _, err := c.Decode([]byte{0}); err == nil {
		t.Error("Decode of truncated buffer should fail")
	}
}

// TestRowCodecEncodedSize: EncodedSize is Encode's exact length, also when
// a value is cast to a STRING column, and fails exactly where Encode does.
func TestRowCodecEncodedSize(t *testing.T) {
	c := NewRowCodec(NewSchema(Field{Name: "a", Type: Int64}, Field{Name: "s", Type: String}))
	rows := []Row{
		{NewInt64(1), NewString("hello")},
		{Null, Null},
		{NewInt32(5), NewInt64(123456)},
		{NewString("42"), NewString("")},
		{NewString("x"), NewString("bad int")},
		{NewInt64(1)},
	}
	for _, r := range rows {
		buf, encErr := c.Encode(nil, r)
		n, err := c.EncodedSize(r)
		if (err != nil) != (encErr != nil) {
			t.Fatalf("%v: EncodedSize error %v, Encode error %v", r, err, encErr)
		}
		if err == nil && n != len(buf) {
			t.Errorf("%v: EncodedSize %d, Encode wrote %d bytes", r, n, len(buf))
		}
	}
}

func TestRowCodecImplicitCastOnEncode(t *testing.T) {
	c := NewRowCodec(NewSchema(Field{Name: "a", Type: Int64}))
	buf, err := c.Encode(nil, Row{NewInt32(5)})
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != NewInt64(5) {
		t.Errorf("got %+v, want BIGINT 5", got[0])
	}
}

func TestRowCodecAppendsToDst(t *testing.T) {
	c := NewRowCodec(NewSchema(Field{Name: "a", Type: Int64}, Field{Name: "s", Type: String}))
	var buf []byte
	var offs []int
	for i := 0; i < 10; i++ {
		offs = append(offs, len(buf))
		var err error
		buf, err = c.Encode(buf, Row{NewInt64(int64(i)), NewString("v")})
		if err != nil {
			t.Fatal(err)
		}
	}
	for i, off := range offs {
		end := len(buf)
		if i+1 < len(offs) {
			end = offs[i+1]
		}
		row, err := c.Decode(buf[off:end])
		if err != nil {
			t.Fatal(err)
		}
		if row[0].Int64Val() != int64(i) {
			t.Errorf("row %d decoded to %v", i, row)
		}
	}
}

func TestRowCodecQuickRoundTrip(t *testing.T) {
	s := NewSchema(
		Field{Name: "a", Type: Int64},
		Field{Name: "b", Type: String},
		Field{Name: "c", Type: Float64},
	)
	c := NewRowCodec(s)
	f := func(a int64, b string, fl float64) bool {
		r := Row{NewInt64(a), NewString(b), NewFloat64(fl)}
		buf, err := c.Encode(nil, r)
		if err != nil {
			return false
		}
		got, err := c.Decode(buf)
		if err != nil {
			return false
		}
		// NaN != NaN under ==; compare bit patterns for the float.
		return got[0] == r[0] && got[1] == r[1] &&
			math.Float64bits(got[2].F) == math.Float64bits(r[2].F)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestSchemaIndexOfAndQualify(t *testing.T) {
	s := NewSchema(
		Field{Name: "id", Type: Int64},
		Field{Name: "name", Type: String},
	).Qualify("person")
	if s.Fields[0].Name != "person.id" {
		t.Fatalf("Qualify: %v", s.Fields)
	}
	if i := s.IndexOf("person.id"); i != 0 {
		t.Errorf("IndexOf(person.id) = %d", i)
	}
	if i := s.IndexOf("name"); i != 1 {
		t.Errorf("IndexOf(name) = %d", i)
	}
	if i := s.IndexOf("missing"); i != -1 {
		t.Errorf("IndexOf(missing) = %d", i)
	}
	// Ambiguous unqualified name.
	amb := NewSchema(Field{Name: "a.id", Type: Int64}, Field{Name: "b.id", Type: Int64})
	if i := amb.IndexOf("id"); i != -1 {
		t.Errorf("ambiguous IndexOf(id) = %d, want -1", i)
	}
}

// TestSchemaIndexOfRules pins IndexOf's three rules: an exact
// (case-insensitive) match first, the first of several; then the
// unqualified-suffix match; -1 when that suffix is ambiguous.
func TestSchemaIndexOfRules(t *testing.T) {
	fields := func(names ...string) *Schema {
		fs := make([]Field, len(names))
		for i, n := range names {
			fs[i] = Field{Name: n, Type: Int64}
		}
		return NewSchema(fs...)
	}
	cases := []struct {
		name   string
		schema *Schema
		lookup string
		want   int
	}{
		{"exact", fields("a", "b"), "b", 1},
		{"exact folds case", fields("a", "personId"), "PERSONID", 1},
		{"exact takes the first of a case clash", fields("ID", "id"), "id", 0},
		{"exact qualified", fields("p.id", "q.id"), "Q.ID", 1},
		{"exact beats suffix", fields("t.id", "id"), "id", 1},
		{"exact beats an ambiguous suffix", fields("t.id", "u.id", "ID"), "id", 2},
		{"suffix", fields("person.id", "person.name"), "Name", 1},
		{"suffix after the last dot", fields("db.t.col", "x"), "col", 0},
		{"suffix ambiguous", fields("a.id", "b.id"), "id", -1},
		{"suffix ambiguous across case", fields("a.ID", "b.id"), "Id", -1},
		{"no suffix match for a qualified name", fields("a.id"), "b.id", -1},
		{"qualified name is not a suffix", fields("t.a.id"), "a.id", -1},
		{"missing", fields("a", "b"), "c", -1},
		{"non-ASCII lookup folds by Unicode", fields("k", "x"), "\u212a", 0},
		{"non-ASCII field", fields("t.straße", "t.id"), "STRASSE", -1},
		{"non-ASCII field exact", fields("t.straße", "t.id"), "T.STRAßE", 0},
	}
	for _, c := range cases {
		// The first scanLookups lookups scan; later ones use the name map.
		for n := 0; n <= scanLookups; n++ {
			if got := c.schema.IndexOf(c.lookup); got != c.want {
				t.Fatalf("%s: lookup %d: IndexOf(%q) in %v = %d, want %d", c.name, n, c.lookup, c.schema.ShortNames(), got, c.want)
			}
		}
		if c.schema.names.Load() == nil {
			t.Fatalf("%s: no name map after %d lookups", c.name, scanLookups+1)
		}
	}
}

// TestSchemaIndexOfMatchesScan: the folded-name map answers exactly as a
// linear scan over random schemas drawn from a small, clashing vocabulary.
func TestSchemaIndexOfMatchesScan(t *testing.T) {
	vocab := []string{"id", "ID", "a.id", "b.Id", "name", "a.name", "x.y.name", "v", "b.v", ""}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 500; trial++ {
		fs := make([]Field, rng.Intn(6))
		for i := range fs {
			fs[i] = Field{Name: vocab[rng.Intn(len(vocab))], Type: Int64}
		}
		s := NewSchema(fs...)
		s.names.Store(newNameIndex(fs))
		for _, name := range append(vocab, "missing", "c.id", "NAME") {
			if got, want := s.IndexOf(name), s.scanIndexOf(name); got != want {
				t.Fatalf("IndexOf(%q) in %v = %d, scan says %d", name, s, got, want)
			}
		}
	}
}

func TestSchemaProjectConcat(t *testing.T) {
	s := NewSchema(
		Field{Name: "a", Type: Int64},
		Field{Name: "b", Type: String},
		Field{Name: "c", Type: Bool},
	)
	p := s.Project([]int{2, 0})
	if p.Len() != 2 || p.Field(0).Name != "c" || p.Field(1).Name != "a" {
		t.Errorf("Project: %v", p)
	}
	j := s.Concat(p)
	if j.Len() != 5 || j.Field(3).Name != "c" {
		t.Errorf("Concat: %v", j)
	}
	if !s.Equal(s) || s.Equal(p) {
		t.Error("Equal misbehaves")
	}
}

func TestRowHelpersAndSliceIter(t *testing.T) {
	r := Row{NewInt64(1), NewString("x")}
	cl := r.Clone()
	cl[0] = NewInt64(9)
	if r[0].Int64Val() != 1 {
		t.Error("Clone must not alias")
	}
	cc := r.Concat(Row{NewBool(true)})
	if len(cc) != 3 || !cc[2].Bool() {
		t.Errorf("Concat: %v", cc)
	}
	it := NewSliceIter([]Row{r, cc})
	rows, err := Drain(it)
	if err != nil || len(rows) != 2 {
		t.Fatalf("Drain: %v %v", rows, err)
	}
	if r.String() != "[1, x]" {
		t.Errorf("Row.String() = %q", r.String())
	}
}

// TestAppendRowGrowth: the first row gets 4 slots, not a large slice, and
// the capacity then doubles, keeping every row in order.
func TestAppendRowGrowth(t *testing.T) {
	var rows []Row
	var caps []int
	for i := 0; i < 20; i++ {
		rows = AppendRow(rows, Row{NewInt64(int64(i))})
		if len(caps) == 0 || caps[len(caps)-1] != cap(rows) {
			caps = append(caps, cap(rows))
		}
	}
	if want := []int{4, 8, 16, 32}; !slices.Equal(caps, want) {
		t.Fatalf("capacities %v, want %v", caps, want)
	}
	for i, r := range rows {
		if r[0].Int64Val() != int64(i) {
			t.Fatalf("row %d = %v", i, r)
		}
	}
}
