// Package sqlval defines the dynamically typed value system shared by the
// SQL parser, planner, executor, and storage layers of the embedded engine.
//
// A Value is a small tagged union of one string and one int64 word: floats
// are stored as their IEEE-754 bits and timestamps as UTC Unix nanoseconds,
// so a Value is 32 bytes with a single pointer. Timestamps are therefore
// limited to the instants an int64 of nanoseconds can name (1677-09-21
// through 2262-04-11) and carry no location. Values are compared with SQL
// semantics: NULL sorts before everything and never compares equal to
// anything under Equal (three-valued logic is handled by the executor);
// numeric kinds (integer and float) compare with each other after widening.
package sqlval

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

// Kind enumerates the runtime type of a Value.
type Kind uint8

// The supported runtime kinds.
const (
	KindNull   Kind = iota
	KindInt         // 64-bit signed integer (SQL INT, BIGINT, SMALLINT, ...)
	KindFloat       // 64-bit float (SQL DOUBLE, FLOAT, DECIMAL, NUMERIC)
	KindString      // UTF-8 string (SQL VARCHAR, CHAR, TEXT)
	KindBool        // SQL BOOLEAN
	KindTime        // SQL TIMESTAMP / DATE

	// KindTop is an internal sentinel that sorts after every other value.
	// It never appears in stored rows; the executor uses it to build
	// inclusive upper bounds for prefix scans over composite index keys.
	KindTop Kind = 200
)

// Top returns the +infinity sentinel used in index-scan upper bounds.
func Top() Value { return Value{kind: KindTop} }

// String returns the SQL-ish name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindInt:
		return "INTEGER"
	case KindFloat:
		return "DOUBLE"
	case KindString:
		return "VARCHAR"
	case KindBool:
		return "BOOLEAN"
	case KindTime:
		return "TIMESTAMP"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Value is a single SQL value. The zero Value is NULL.
//
// The layout is one string and one int64 word: i holds an integer, a
// boolean (0/1), the math.Float64bits of a float, or the UTC Unix
// nanoseconds of a timestamp; s holds a string. Every stored row, index key
// and result row is a slice of Values, so this size is what the engine's
// memory and GC cost scale with (EXPERIMENTS.md E-VALUE); the layout test
// pins it at 32 bytes.
type Value struct {
	s    string
	i    int64
	kind Kind
}

// The representable timestamps: the instants whose Unix nanoseconds fit in
// an int64 (1677-09-21 through 2262-04-11).
var (
	minTime = time.Unix(0, math.MinInt64).UTC()
	maxTime = time.Unix(0, math.MaxInt64).UTC()
)

// f decodes a KindFloat value's bits.
func (v Value) f() float64 { return math.Float64frombits(uint64(v.i)) }

// Null returns the SQL NULL value.
func Null() Value { return Value{} }

// NewInt returns an integer value.
func NewInt(v int64) Value { return Value{kind: KindInt, i: v} }

// NewFloat returns a float value.
func NewFloat(v float64) Value { return Value{kind: KindFloat, i: int64(math.Float64bits(v))} }

// NewString returns a string value.
func NewString(v string) Value { return Value{kind: KindString, s: v} }

// NewBool returns a boolean value.
func NewBool(v bool) Value {
	var i int64
	if v {
		i = 1
	}
	return Value{kind: KindBool, i: i}
}

// NewTime returns a timestamp value. The location and monotonic reading of v
// are dropped; an instant outside minTime..maxTime saturates to the nearer
// end (FromGo and CoerceKind report it as an error instead).
func NewTime(v time.Time) Value {
	switch {
	case v.Before(minTime):
		v = minTime
	case v.After(maxTime):
		v = maxTime
	}
	return Value{kind: KindTime, i: v.UnixNano()}
}

// NewTimeNanos returns the timestamp ns nanoseconds after the Unix epoch.
// Every int64 names a representable instant, so nothing saturates.
func NewTimeNanos(ns int64) Value { return Value{kind: KindTime, i: ns} }

// checkedTime is NewTime for instants arriving from outside the engine: one
// that is not representable is an error rather than a saturated value.
func checkedTime(t time.Time) (Value, error) {
	if t.Before(minTime) || t.After(maxTime) {
		return Value{}, fmt.Errorf("sqlval: timestamp %s outside %s..%s", t.Format(time.RFC3339Nano), minTime.Format(time.RFC3339), maxTime.Format(time.RFC3339))
	}
	return NewTime(t), nil
}

// FromGo converts a native Go value into a Value. Supported inputs are nil,
// all integer widths, float32/64, string, bool, time.Time, and Value itself.
func FromGo(v any) (Value, error) {
	switch x := v.(type) {
	case nil:
		return Null(), nil
	case Value:
		return x, nil
	case int:
		return NewInt(int64(x)), nil
	case int8:
		return NewInt(int64(x)), nil
	case int16:
		return NewInt(int64(x)), nil
	case int32:
		return NewInt(int64(x)), nil
	case int64:
		return NewInt(x), nil
	case uint:
		return NewInt(int64(x)), nil
	case uint32:
		return NewInt(int64(x)), nil
	case uint64:
		if x > math.MaxInt64 {
			return Value{}, fmt.Errorf("sqlval: uint64 %d overflows int64", x)
		}
		return NewInt(int64(x)), nil
	case float32:
		return NewFloat(float64(x)), nil
	case float64:
		return NewFloat(x), nil
	case string:
		return NewString(x), nil
	case bool:
		return NewBool(x), nil
	case time.Time:
		return checkedTime(x)
	default:
		return Value{}, fmt.Errorf("sqlval: unsupported Go type %T", v)
	}
}

// MustFromGo is FromGo that panics on unsupported types; it is intended for
// benchmark control code that passes only supported parameter types.
func MustFromGo(v any) Value {
	val, err := FromGo(v)
	if err != nil {
		panic(err)
	}
	return val
}

// Kind reports the runtime kind of the value.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether the value is SQL NULL.
func (v Value) IsNull() bool { return v.kind == KindNull }

// Int returns the value as int64. Floats are truncated; booleans map to 0/1.
func (v Value) Int() int64 {
	switch v.kind {
	case KindInt, KindBool:
		return v.i
	case KindFloat:
		return int64(v.f())
	case KindString:
		n, _ := strconv.ParseInt(strings.TrimSpace(v.s), 10, 64)
		return n
	case KindTime:
		return v.i
	default:
		return 0
	}
}

// Float returns the value as float64.
func (v Value) Float() float64 {
	switch v.kind {
	case KindFloat:
		return v.f()
	case KindInt, KindBool:
		return float64(v.i)
	case KindString:
		f, _ := strconv.ParseFloat(strings.TrimSpace(v.s), 64)
		return f
	default:
		return 0
	}
}

// Str returns the value as a string (its SQL text form for non-strings).
func (v Value) Str() string {
	if v.kind == KindString {
		return v.s
	}
	return v.Format()
}

// Bool returns the value as a boolean.
func (v Value) Bool() bool {
	switch v.kind {
	case KindBool, KindInt:
		return v.i != 0
	case KindFloat:
		return v.f() != 0
	default:
		return false
	}
}

// Time returns the value as a time.Time in UTC (zero time if not a
// timestamp).
func (v Value) Time() time.Time {
	if v.kind == KindTime {
		return time.Unix(0, v.i).UTC()
	}
	return time.Time{}
}

// Go returns the value as a native Go value (nil, int64, float64, string,
// bool, or time.Time).
func (v Value) Go() any {
	switch v.kind {
	case KindNull:
		return nil
	case KindInt:
		return v.i
	case KindFloat:
		return v.f()
	case KindString:
		return v.s
	case KindBool:
		return v.i != 0
	case KindTime:
		return v.Time()
	default:
		return nil
	}
}

// Format renders the value as SQL literal-ish text (without quoting).
func (v Value) Format() string {
	switch v.kind {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(v.i, 10)
	case KindFloat:
		return strconv.FormatFloat(v.f(), 'g', -1, 64)
	case KindString:
		return v.s
	case KindBool:
		if v.i != 0 {
			return "true"
		}
		return "false"
	case KindTime:
		return v.Time().Format("2006-01-02 15:04:05.000")
	default:
		return "?"
	}
}

// String implements fmt.Stringer.
func (v Value) String() string { return v.Format() }

// numericKind reports whether k participates in numeric widening.
func numericKind(k Kind) bool { return k == KindInt || k == KindFloat || k == KindBool }

// Compare orders a before b (-1), equal (0), or after (+1). NULL sorts first.
// Numeric kinds are widened; comparing a number with a string compares the
// string's parsed numeric form (benchmarks store numeric-looking strings).
// Incomparable kinds fall back to comparing their text forms so that sorting
// is always total.
func Compare(a, b Value) int {
	if a.kind == KindTop || b.kind == KindTop {
		switch {
		case a.kind == b.kind:
			return 0
		case a.kind == KindTop:
			return 1
		default:
			return -1
		}
	}
	if a.kind == KindNull || b.kind == KindNull {
		switch {
		case a.kind == b.kind:
			return 0
		case a.kind == KindNull:
			return -1
		default:
			return 1
		}
	}
	if a.kind == b.kind {
		switch a.kind {
		case KindInt, KindBool, KindTime:
			return cmpInt(a.i, b.i)
		case KindFloat:
			return cmpFloat(a.f(), b.f())
		case KindString:
			return strings.Compare(a.s, b.s)
		}
	}
	if numericKind(a.kind) && numericKind(b.kind) {
		return cmpFloat(a.Float(), b.Float())
	}
	if a.kind == KindTime && numericKind(b.kind) {
		return cmpInt(a.i, b.Int())
	}
	if numericKind(a.kind) && b.kind == KindTime {
		return cmpInt(a.Int(), b.i)
	}
	// Mixed string/number: compare numerically when both parse, else by text.
	if a.kind == KindString && numericKind(b.kind) {
		if f, err := strconv.ParseFloat(strings.TrimSpace(a.s), 64); err == nil {
			return cmpFloat(f, b.Float())
		}
	}
	if numericKind(a.kind) && b.kind == KindString {
		if f, err := strconv.ParseFloat(strings.TrimSpace(b.s), 64); err == nil {
			return cmpFloat(a.Float(), f)
		}
	}
	return strings.Compare(a.Format(), b.Format())
}

func cmpInt(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

func cmpFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// Equal reports SQL equality. NULL is never equal to anything, including
// NULL itself (use IsNull for that test).
func Equal(a, b Value) bool {
	if a.kind == KindNull || b.kind == KindNull {
		return false
	}
	return Compare(a, b) == 0
}

// CompareRows orders two composite keys column by column.
func CompareRows(a, b []Value) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if c := Compare(a[i], b[i]); c != 0 {
			return c
		}
	}
	return cmpInt(int64(len(a)), int64(len(b)))
}

// Add returns a+b with numeric widening; string operands concatenate.
func Add(a, b Value) (Value, error) { return arith(a, b, "+") }

// Sub returns a-b with numeric widening.
func Sub(a, b Value) (Value, error) { return arith(a, b, "-") }

// Mul returns a*b with numeric widening.
func Mul(a, b Value) (Value, error) { return arith(a, b, "*") }

// Div returns a/b; integer division when both operands are integers.
func Div(a, b Value) (Value, error) { return arith(a, b, "/") }

func arith(a, b Value, op string) (Value, error) {
	if a.IsNull() || b.IsNull() {
		return Null(), nil
	}
	if op == "+" && (a.kind == KindString || b.kind == KindString) {
		return NewString(a.Str() + b.Str()), nil
	}
	if !numericKind(a.kind) || !numericKind(b.kind) {
		return Value{}, fmt.Errorf("sqlval: cannot apply %q to %s and %s", op, a.kind, b.kind)
	}
	if a.kind == KindFloat || b.kind == KindFloat {
		x, y := a.Float(), b.Float()
		switch op {
		case "+":
			return NewFloat(x + y), nil
		case "-":
			return NewFloat(x - y), nil
		case "*":
			return NewFloat(x * y), nil
		case "/":
			if y == 0 {
				return Value{}, fmt.Errorf("sqlval: division by zero")
			}
			return NewFloat(x / y), nil
		}
	}
	x, y := a.Int(), b.Int()
	switch op {
	case "+":
		return NewInt(x + y), nil
	case "-":
		return NewInt(x - y), nil
	case "*":
		return NewInt(x * y), nil
	case "/":
		if y == 0 {
			return Value{}, fmt.Errorf("sqlval: division by zero")
		}
		return NewInt(x / y), nil
	}
	return Value{}, fmt.Errorf("sqlval: unknown operator %q", op)
}

// CoerceKind converts v to the target kind, used when storing into a typed
// column. NULL passes through unchanged.
func CoerceKind(v Value, k Kind) (Value, error) {
	if v.IsNull() || v.kind == k {
		return v, nil
	}
	switch k {
	case KindInt:
		switch v.kind {
		case KindFloat:
			return NewInt(int64(v.f())), nil
		case KindBool:
			return NewInt(v.i), nil
		case KindString:
			n, err := strconv.ParseInt(strings.TrimSpace(v.s), 10, 64)
			if err != nil {
				return Value{}, fmt.Errorf("sqlval: cannot coerce %q to INTEGER", v.s)
			}
			return NewInt(n), nil
		case KindTime:
			return NewInt(v.i), nil
		}
	case KindFloat:
		switch v.kind {
		case KindInt, KindBool:
			return NewFloat(float64(v.i)), nil
		case KindString:
			f, err := strconv.ParseFloat(strings.TrimSpace(v.s), 64)
			if err != nil {
				return Value{}, fmt.Errorf("sqlval: cannot coerce %q to DOUBLE", v.s)
			}
			return NewFloat(f), nil
		}
	case KindString:
		return NewString(v.Format()), nil
	case KindBool:
		switch v.kind {
		case KindInt:
			return NewBool(v.i != 0), nil
		case KindFloat:
			return NewBool(v.f() != 0), nil
		case KindString:
			b, err := strconv.ParseBool(strings.ToLower(strings.TrimSpace(v.s)))
			if err != nil {
				return Value{}, fmt.Errorf("sqlval: cannot coerce %q to BOOLEAN", v.s)
			}
			return NewBool(b), nil
		}
	case KindTime:
		switch v.kind {
		case KindInt:
			return Value{kind: KindTime, i: v.i}, nil
		case KindString:
			for _, layout := range []string{"2006-01-02 15:04:05.000", "2006-01-02 15:04:05", "2006-01-02", time.RFC3339} {
				if t, err := time.Parse(layout, v.s); err == nil {
					return checkedTime(t)
				}
			}
			return Value{}, fmt.Errorf("sqlval: cannot coerce %q to TIMESTAMP", v.s)
		}
	}
	return Value{}, fmt.Errorf("sqlval: cannot coerce %s to %s", v.kind, k)
}
