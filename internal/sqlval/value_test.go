package sqlval

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"
	"time"
	"unsafe"
)

func TestKinds(t *testing.T) {
	cases := []struct {
		v    Value
		kind Kind
	}{
		{Null(), KindNull},
		{NewInt(42), KindInt},
		{NewFloat(3.5), KindFloat},
		{NewString("x"), KindString},
		{NewBool(true), KindBool},
		{NewTime(time.Unix(0, 0)), KindTime},
	}
	for _, c := range cases {
		if c.v.Kind() != c.kind {
			t.Errorf("Kind() = %v, want %v", c.v.Kind(), c.kind)
		}
	}
	if !Null().IsNull() || NewInt(0).IsNull() {
		t.Error("IsNull misclassified")
	}
}

func TestAccessors(t *testing.T) {
	if NewInt(7).Int() != 7 {
		t.Error("Int accessor")
	}
	if NewFloat(2.5).Float() != 2.5 {
		t.Error("Float accessor")
	}
	if NewFloat(2.9).Int() != 2 {
		t.Error("Float->Int truncation")
	}
	if NewInt(3).Float() != 3.0 {
		t.Error("Int->Float widening")
	}
	if NewString("abc").Str() != "abc" {
		t.Error("Str accessor")
	}
	if !NewBool(true).Bool() || NewBool(false).Bool() {
		t.Error("Bool accessor")
	}
	if NewInt(1).Bool() != true || NewInt(0).Bool() != false {
		t.Error("Int->Bool")
	}
	if NewString("41").Int() != 41 {
		t.Error("numeric string Int")
	}
	ts := time.Date(2015, 5, 31, 0, 0, 0, 0, time.UTC)
	if !NewTime(ts).Time().Equal(ts) {
		t.Error("Time accessor")
	}
}

func TestFromGo(t *testing.T) {
	for _, in := range []any{nil, 1, int8(1), int16(1), int32(1), int64(1), uint(1), uint32(1), uint64(1), float32(1), float64(1), "s", true, time.Now()} {
		if _, err := FromGo(in); err != nil {
			t.Errorf("FromGo(%T) error: %v", in, err)
		}
	}
	if _, err := FromGo(struct{}{}); err == nil {
		t.Error("FromGo(struct{}) should fail")
	}
	v, _ := FromGo(NewInt(9))
	if v.Int() != 9 {
		t.Error("FromGo(Value) passthrough")
	}
}

func TestCompare(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{NewInt(1), NewInt(2), -1},
		{NewInt(2), NewInt(2), 0},
		{NewInt(3), NewInt(2), 1},
		{NewFloat(1.5), NewInt(2), -1},
		{NewInt(2), NewFloat(1.5), 1},
		{NewFloat(2), NewInt(2), 0},
		{NewString("a"), NewString("b"), -1},
		{Null(), NewInt(0), -1},
		{NewInt(0), Null(), 1},
		{Null(), Null(), 0},
		{NewString("10"), NewInt(9), 1}, // numeric string compares numerically
		{NewBool(false), NewBool(true), -1},
		{NewTime(time.Unix(1, 0)), NewTime(time.Unix(2, 0)), -1},
	}
	for _, c := range cases {
		if got := Compare(c.a, c.b); got != c.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestEqualNullSemantics(t *testing.T) {
	if Equal(Null(), Null()) {
		t.Error("NULL = NULL must be false")
	}
	if Equal(Null(), NewInt(0)) || Equal(NewInt(0), Null()) {
		t.Error("NULL = x must be false")
	}
	if !Equal(NewInt(5), NewFloat(5)) {
		t.Error("5 = 5.0 must be true")
	}
}

func TestCompareRows(t *testing.T) {
	a := []Value{NewInt(1), NewString("b")}
	b := []Value{NewInt(1), NewString("c")}
	if CompareRows(a, b) != -1 {
		t.Error("row compare second column")
	}
	if CompareRows(a, a) != 0 {
		t.Error("row compare equal")
	}
	if CompareRows([]Value{NewInt(1)}, a) != -1 {
		t.Error("shorter prefix sorts first")
	}
}

func TestArithmetic(t *testing.T) {
	mustV := func(v Value, err error) Value {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	if mustV(Add(NewInt(2), NewInt(3))).Int() != 5 {
		t.Error("int add")
	}
	if mustV(Add(NewInt(2), NewFloat(0.5))).Float() != 2.5 {
		t.Error("mixed add widens to float")
	}
	if mustV(Sub(NewInt(2), NewInt(3))).Int() != -1 {
		t.Error("sub")
	}
	if mustV(Mul(NewInt(4), NewInt(3))).Int() != 12 {
		t.Error("mul")
	}
	if mustV(Div(NewInt(7), NewInt(2))).Int() != 3 {
		t.Error("integer division")
	}
	if mustV(Div(NewFloat(7), NewInt(2))).Float() != 3.5 {
		t.Error("float division")
	}
	if _, err := Div(NewInt(1), NewInt(0)); err == nil {
		t.Error("division by zero must error")
	}
	if !mustV(Add(Null(), NewInt(1))).IsNull() {
		t.Error("NULL propagates through arithmetic")
	}
	if mustV(Add(NewString("a"), NewString("b"))).Str() != "ab" {
		t.Error("string + concatenates")
	}
}

func TestCoerceKind(t *testing.T) {
	v, err := CoerceKind(NewString("42"), KindInt)
	if err != nil || v.Int() != 42 {
		t.Errorf("string->int coerce: %v %v", v, err)
	}
	v, err = CoerceKind(NewInt(2), KindFloat)
	if err != nil || v.Float() != 2.0 {
		t.Errorf("int->float coerce: %v %v", v, err)
	}
	v, err = CoerceKind(NewFloat(2.9), KindInt)
	if err != nil || v.Int() != 2 {
		t.Errorf("float->int coerce: %v %v", v, err)
	}
	if _, err := CoerceKind(NewString("xyz"), KindInt); err == nil {
		t.Error("bad string->int must error")
	}
	v, err = CoerceKind(NewString("2015-05-31 12:00:00"), KindTime)
	if err != nil || v.Time().Year() != 2015 {
		t.Errorf("string->time coerce: %v %v", v, err)
	}
	n, err := CoerceKind(Null(), KindInt)
	if err != nil || !n.IsNull() {
		t.Error("NULL passes through coercion")
	}
	v, err = CoerceKind(NewInt(123), KindString)
	if err != nil || v.Str() != "123" {
		t.Errorf("int->string coerce: %v %v", v, err)
	}
	v, err = CoerceKind(NewString("true"), KindBool)
	if err != nil || !v.Bool() {
		t.Errorf("string->bool coerce: %v %v", v, err)
	}
}

func TestAppendKeyInjective(t *testing.T) {
	// Distinct composite keys must encode to distinct byte strings.
	keys := [][]Value{
		{NewInt(1), NewString("a")},
		{NewInt(1), NewString("b")},
		{NewString("1a")},
		{NewString("1"), NewString("a")},
		{NewInt(1)},
		{NewFloat(1)},
		{Null()},
		{NewBool(false), NewBool(true)},
		{},
	}
	seen := map[string]int{}
	for i, k := range keys {
		enc := string(AppendKey(nil, k...))
		if j, dup := seen[enc]; dup {
			t.Errorf("keys %d and %d encode identically", i, j)
		}
		seen[enc] = i
	}
}

// Property: Compare is antisymmetric and consistent with Equal for ints.
func TestCompareProperty(t *testing.T) {
	prop := func(a, b int64) bool {
		va, vb := NewInt(a), NewInt(b)
		c1, c2 := Compare(va, vb), Compare(vb, va)
		if c1 != -c2 {
			return false
		}
		return (c1 == 0) == (a == b) && Equal(va, vb) == (a == b)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: AppendKey is injective for (int64, string) pairs.
func TestAppendKeyProperty(t *testing.T) {
	prop := func(a1 int64, s1 string, a2 int64, s2 string) bool {
		k1 := AppendKey(nil, NewInt(a1), NewString(s1))
		k2 := AppendKey(nil, NewInt(a2), NewString(s2))
		return bytes.Equal(k1, k2) == (a1 == a2 && s1 == s2)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFormat(t *testing.T) {
	if Null().Format() != "NULL" {
		t.Error("NULL format")
	}
	if NewInt(-5).Format() != "-5" {
		t.Error("int format")
	}
	if NewBool(true).Format() != "true" {
		t.Error("bool format")
	}
	if NewFloat(1.25).Format() != "1.25" {
		t.Error("float format")
	}
}

// The layout gate. Every stored row, index key and result row is a slice of
// Values, so the struct's size is what the engine's memory and GC cost scale
// with: EXPERIMENTS.md E-VALUE measured the move from 64 B with two pointers
// to 32 B with one at 1.59x saturated throughput on the read-heavy benchmark
// workload. Widening it again, or giving it a second pointer, must be a
// deliberate choice that updates E-VALUE.
var _ = Value{} == Value{} // Value stays comparable with ==

func TestValueLayout(t *testing.T) {
	if got := unsafe.Sizeof(Value{}); got != 32 {
		t.Fatalf("unsafe.Sizeof(Value{}) = %d, want 32 (see EXPERIMENTS.md E-VALUE)", got)
	}
}

// TestTimeNormalized: a timestamp keeps its instant to the nanosecond and
// drops its location and monotonic reading, so equal instants are equal
// Values however they were built.
func TestTimeNormalized(t *testing.T) {
	ist := time.FixedZone("IST", 5*3600+1800)
	local := time.Date(2015, 5, 31, 17, 30, 0, 123456789, ist)
	utc := time.Date(2015, 5, 31, 12, 0, 0, 123456789, time.UTC)
	if NewTime(local) != NewTime(utc) {
		t.Fatal("equal instants built differently are different Values")
	}
	if got := NewTime(local).Time(); got != utc {
		t.Fatalf("Time() = %v, want %v", got, utc)
	}
	if got := NewTime(local).Format(); got != "2015-05-31 12:00:00.123" {
		t.Fatalf("Format() = %q", got)
	}
	fromInt, err := CoerceKind(NewInt(utc.UnixNano()), KindTime)
	if err != nil || fromInt != NewTime(utc) || NewTime(utc).Int() != utc.UnixNano() {
		t.Fatalf("int<->time: %v %v", fromInt, err)
	}
}

// TestTimeRange: instants whose Unix nanoseconds overflow an int64 are
// rejected by FromGo and CoerceKind rather than silently wrapped; the
// endpoints themselves round-trip.
func TestTimeRange(t *testing.T) {
	for _, in := range []time.Time{minTime, maxTime, time.Date(1677, 9, 22, 0, 0, 0, 0, time.UTC)} {
		v, err := FromGo(in)
		if err != nil || !v.Time().Equal(in) {
			t.Errorf("FromGo(%v) = %v, %v", in, v, err)
		}
	}
	for _, in := range []time.Time{minTime.Add(-1), maxTime.Add(1), time.Date(1600, 1, 1, 0, 0, 0, 0, time.UTC), time.Date(9999, 12, 31, 0, 0, 0, 0, time.UTC)} {
		if v, err := FromGo(in); err == nil {
			t.Errorf("FromGo(%v) = %v, want a range error", in, v)
		}
	}
	for _, s := range []string{"1600-01-01", "2262-04-12 00:00:00", "9999-12-31 23:59:59.000"} {
		if v, err := CoerceKind(NewString(s), KindTime); err == nil {
			t.Errorf("CoerceKind(%q, TIMESTAMP) = %v, want a range error", s, v)
		}
	}
	if v, err := CoerceKind(NewString("2262-04-11"), KindTime); err != nil || v.Time() != time.Date(2262, 4, 11, 0, 0, 0, 0, time.UTC) {
		t.Errorf("CoerceKind(2262-04-11) = %v, %v", v, err)
	}
	// NewTime cannot fail: out-of-range instants saturate.
	if NewTime(time.Date(1, 1, 1, 0, 0, 0, 0, time.UTC)) != NewTime(minTime) || NewTime(maxTime.Add(time.Hour)) != NewTime(maxTime) {
		t.Error("NewTime does not saturate out-of-range instants")
	}
}

// TestFloatBits: floats live in the int word as IEEE-754 bits, and every
// reading decodes them first: -0 compares equal to 0 and is false although
// its bits are not zero, and the hash key is the float's bits.
func TestFloatBits(t *testing.T) {
	negZero := NewFloat(math.Copysign(0, -1))
	if Compare(negZero, NewFloat(0)) != 0 || Compare(negZero, NewInt(0)) != 0 || negZero.Bool() {
		t.Error("-0.0 must compare equal to 0 and be false")
	}
	if Compare(NewFloat(-1.5), NewFloat(0.25)) != -1 || Compare(NewFloat(math.Inf(1)), NewFloat(math.MaxFloat64)) != 1 {
		t.Error("float order")
	}
	if !NewFloat(math.NaN()).Bool() || NewFloat(-2.75).Int() != -2 || NewFloat(-2.75).Format() != "-2.75" {
		t.Error("float accessors")
	}
	if b, _ := CoerceKind(NewFloat(0.5), KindBool); !b.Bool() {
		t.Error("0.5 -> BOOLEAN")
	}
	want := []byte{0x02, 0xbf, 0xf8, 0, 0, 0, 0, 0, 0} // 1.5, sign bit flipped
	if got := AppendKey(nil, NewFloat(1.5)); !bytes.Equal(got, want) {
		t.Errorf("AppendKey(1.5) = %x, want %x", got, want)
	}
	if !bytes.Equal(AppendKey(nil, negZero), AppendKey(nil, NewFloat(0))) {
		t.Error("-0.0 must encode as 0")
	}
}
