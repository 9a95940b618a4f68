// Package value implements the typed scalar values that flow through every
// relation, predicate, and probabilistic cell in the system. A Value is a
// small immutable union of int64, float64, string, or NULL, with total
// ordering across numeric kinds (ints and floats compare numerically).
package value

import (
	"encoding/binary"
	"fmt"
	"math"
	"strconv"
)

// Kind enumerates the runtime type of a Value.
type Kind uint8

const (
	// Null is the kind of the zero Value.
	Null Kind = iota
	// Int is a 64-bit signed integer.
	Int
	// Float is a 64-bit IEEE float.
	Float
	// String is an immutable byte string.
	String
)

// String returns the lowercase name of the kind.
func (k Kind) String() string {
	switch k {
	case Null:
		return "null"
	case Int:
		return "int"
	case Float:
		return "float"
	case String:
		return "string"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Value is a typed scalar. The zero Value is NULL.
type Value struct {
	kind Kind
	i    int64
	f    float64
	s    string
}

// NewInt returns an Int value.
func NewInt(v int64) Value { return Value{kind: Int, i: v} }

// NewFloat returns a Float value.
func NewFloat(v float64) Value { return Value{kind: Float, f: v} }

// NewString returns a String value.
func NewString(v string) Value { return Value{kind: String, s: v} }

// NewNull returns the NULL value.
func NewNull() Value { return Value{} }

// Kind reports the runtime type of v.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether v is NULL.
func (v Value) IsNull() bool { return v.kind == Null }

// Int returns the integer payload. It panics if v is not an Int.
func (v Value) Int() int64 {
	if v.kind != Int {
		panic(fmt.Sprintf("value: Int() on %s value", v.kind))
	}
	return v.i
}

// Float returns the float payload, converting from Int if needed.
// It panics if v is neither Int nor Float.
func (v Value) Float() float64 {
	switch v.kind {
	case Float:
		return v.f
	case Int:
		return float64(v.i)
	}
	panic(fmt.Sprintf("value: Float() on %s value", v.kind))
}

// Str returns the string payload. It panics if v is not a String.
func (v Value) Str() string {
	if v.kind != String {
		panic(fmt.Sprintf("value: Str() on %s value", v.kind))
	}
	return v.s
}

// IsNumeric reports whether v is an Int or Float.
func (v Value) IsNumeric() bool { return v.kind == Int || v.kind == Float }

// Equal reports whether two values are equal. Ints and floats compare
// numerically; NULL equals only NULL.
func (v Value) Equal(o Value) bool { return v.Compare(o) == 0 }

// Compare totally orders values: NULL < numerics < strings; numerics compare
// by numeric value; strings lexicographically. It returns -1, 0, or +1.
func (v Value) Compare(o Value) int {
	va, vb := v.rank(), o.rank()
	if va != vb {
		if va < vb {
			return -1
		}
		return 1
	}
	switch v.kind {
	case Null:
		return 0
	case String:
		switch {
		case v.s < o.s:
			return -1
		case v.s > o.s:
			return 1
		}
		return 0
	default: // numeric vs numeric
		if v.kind == Int && o.kind == Int {
			switch {
			case v.i < o.i:
				return -1
			case v.i > o.i:
				return 1
			}
			return 0
		}
		a, b := v.Float(), o.Float()
		switch {
		case a < b:
			return -1
		case a > b:
			return 1
		}
		return 0
	}
}

// rank buckets kinds so cross-kind comparisons are total: NULL, numeric, string.
func (v Value) rank() int {
	switch v.kind {
	case Null:
		return 0
	case Int, Float:
		return 1
	default:
		return 2
	}
}

// Less reports v < o under Compare ordering.
func (v Value) Less(o Value) bool { return v.Compare(o) < 0 }

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnvByte folds one byte into a running FNV-1a state.
func fnvByte(h uint64, b byte) uint64 { return (h ^ uint64(b)) * fnvPrime64 }

// fnvUint64 folds a tag byte and eight little-endian payload bytes.
func fnvUint64(h uint64, tag byte, u uint64) uint64 {
	h = fnvByte(h, tag)
	for i := 0; i < 8; i++ {
		h = fnvByte(h, byte(u>>(8*i)))
	}
	return h
}

// fnvString folds a tag byte and the string bytes.
func fnvString(h uint64, tag byte, s string) uint64 {
	h = fnvByte(h, tag)
	for i := 0; i < len(s); i++ {
		h = fnvByte(h, s[i])
	}
	return h
}

// fold64 mixes v into a running FNV-1a state — the building block for
// composite (multi-column) hashes.
func (v Value) fold64(h uint64) uint64 {
	switch v.kind {
	case Null:
		return fnvByte(h, 0)
	case Int:
		return fnvUint64(h, 1, uint64(v.i))
	case Float:
		if i, ok := v.intEquivalent(); ok {
			// Hash integral floats like the equal Int.
			return fnvUint64(h, 1, uint64(i))
		}
		return fnvUint64(h, 2, math.Float64bits(v.f))
	case String:
		return fnvString(h, 3, v.s)
	}
	return h
}

// Key64 returns a 64-bit FNV-1a hash of the value without allocating.
// Numerically equal Ints and Floats hash identically, matching MapKey and
// Key equality.
func (v Value) Key64() uint64 { return v.fold64(fnvOffset64) }

// intEquivalent reports the Int a Float is numerically equal to, if any.
func (v Value) intEquivalent() (int64, bool) {
	if v.f == math.Trunc(v.f) && v.f >= math.MinInt64 && v.f <= math.MaxInt64 {
		return int64(v.f), true
	}
	return 0, false
}

// MapKey is a comparable grouping key: two values produce the same MapKey
// iff they are equal under Compare (Ints and Floats unify numerically).
// Unlike Key it is a fixed-size struct, so scalar keys build without any
// allocation and work directly as Go map keys.
type MapKey struct {
	kind Kind   // String for strings, Int for Null/numerics, compositeKind for composites
	num  uint64 // numeric payload bits (tag ^ payload encoding below)
	str  string // string payload, or packed encoding for composites
}

// Scalar MapKey encoding: kind carries the unified kind tag (integral
// floats collapse onto Int); compositeKind marks multi-value keys whose
// payload lives in str.
const compositeKind Kind = 0xff

// MapKey returns the comparable grouping key of the value.
func (v Value) MapKey() MapKey {
	switch v.kind {
	case Null:
		return MapKey{kind: Null}
	case Int:
		return MapKey{kind: Int, num: uint64(v.i)}
	case Float:
		if i, ok := v.intEquivalent(); ok {
			return MapKey{kind: Int, num: uint64(i)}
		}
		return MapKey{kind: Float, num: math.Float64bits(v.f)}
	default:
		return MapKey{kind: String, str: v.s}
	}
}

// MapKeyOf builds a comparable composite key over a value sequence. A
// single-value sequence returns the scalar MapKey and allocates nothing;
// longer sequences pack a length-prefixed binary encoding into one string
// (injective: no separator ambiguity, unlike delimiter-joined Key strings).
func MapKeyOf(vals ...Value) MapKey {
	if len(vals) == 1 {
		return vals[0].MapKey()
	}
	return MapKey{kind: compositeKind, str: string(AppendKeyBytes(nil, vals...))}
}

// AppendKeyBytes appends the injective binary key encoding of the value
// sequence to buf — callers can reuse buf across rows to amortize the
// composite-key allocation.
func AppendKeyBytes(buf []byte, vals ...Value) []byte {
	for _, v := range vals {
		switch v.kind {
		case Null:
			buf = append(buf, 0)
		case Int:
			buf = append(buf, 1)
			buf = binary.LittleEndian.AppendUint64(buf, uint64(v.i))
		case Float:
			if i, ok := v.intEquivalent(); ok {
				buf = append(buf, 1)
				buf = binary.LittleEndian.AppendUint64(buf, uint64(i))
			} else {
				buf = append(buf, 2)
				buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v.f))
			}
		case String:
			buf = append(buf, 3)
			buf = binary.AppendUvarint(buf, uint64(len(v.s)))
			buf = append(buf, v.s...)
		}
	}
	return buf
}

// CompositeKeyFromBytes wraps an AppendKeyBytes encoding as a MapKey.
func CompositeKeyFromBytes(buf []byte) MapKey {
	return MapKey{kind: compositeKind, str: string(buf)}
}

// AppendBinary appends a self-delimiting binary encoding of the key to buf.
// Round trip through DecodeMapKey yields a key equal (as a Go map key) to
// the original: the encoding covers the unified kind tag, so Int and
// integral-Float keys that collapsed at MapKey construction stay collapsed.
func (k MapKey) AppendBinary(buf []byte) []byte {
	buf = append(buf, byte(k.kind))
	switch k.kind {
	case Null:
	case Int, Float:
		buf = binary.LittleEndian.AppendUint64(buf, k.num)
	default: // String and compositeKind both carry their payload in str
		buf = binary.AppendUvarint(buf, uint64(len(k.str)))
		buf = append(buf, k.str...)
	}
	return buf
}

// DecodeMapKey decodes one AppendBinary encoding from the front of buf,
// returning the key and the remaining bytes.
func DecodeMapKey(buf []byte) (MapKey, []byte, error) {
	if len(buf) == 0 {
		return MapKey{}, nil, fmt.Errorf("value: decode MapKey: empty buffer")
	}
	kind := buf[0]
	k := MapKey{kind: Kind(kind)}
	buf = buf[1:]
	switch k.kind {
	case Null:
	case Int, Float:
		if len(buf) < 8 {
			return MapKey{}, nil, fmt.Errorf("value: decode MapKey: truncated numeric payload")
		}
		k.num = binary.LittleEndian.Uint64(buf)
		buf = buf[8:]
	case String, compositeKind:
		n, sz := binary.Uvarint(buf)
		if sz <= 0 || uint64(len(buf)-sz) < n {
			return MapKey{}, nil, fmt.Errorf("value: decode MapKey: truncated string payload")
		}
		k.str = string(buf[sz : sz+int(n)])
		buf = buf[sz+int(n):]
	default:
		return MapKey{}, nil, fmt.Errorf("value: decode MapKey: unknown kind %d", kind)
	}
	return k, buf, nil
}

// String renders the value for display and CSV output.
func (v Value) String() string {
	switch v.kind {
	case Null:
		return ""
	case Int:
		return strconv.FormatInt(v.i, 10)
	case Float:
		return strconv.FormatFloat(v.f, 'g', -1, 64)
	default:
		return v.s
	}
}

// Key returns a map-key representation that is unique per distinct value,
// aligning Int/Float numeric equality with Key64.
func (v Value) Key() string {
	switch v.kind {
	case Null:
		return "\x00"
	case Int:
		return "i" + strconv.FormatInt(v.i, 10)
	case Float:
		if v.f == math.Trunc(v.f) && v.f >= math.MinInt64 && v.f <= math.MaxInt64 {
			return "i" + strconv.FormatInt(int64(v.f), 10)
		}
		return "f" + strconv.FormatFloat(v.f, 'g', -1, 64)
	default:
		return "s" + v.s
	}
}

// Parse converts text to a Value of the given kind. Empty text parses to NULL.
func Parse(text string, k Kind) (Value, error) {
	if text == "" {
		return NewNull(), nil
	}
	switch k {
	case Int:
		i, err := strconv.ParseInt(text, 10, 64)
		if err != nil {
			return Value{}, fmt.Errorf("value: parse int %q: %w", text, err)
		}
		return NewInt(i), nil
	case Float:
		f, err := strconv.ParseFloat(text, 64)
		if err != nil {
			return Value{}, fmt.Errorf("value: parse float %q: %w", text, err)
		}
		return NewFloat(f), nil
	case String:
		return NewString(text), nil
	case Null:
		return NewNull(), nil
	}
	return Value{}, fmt.Errorf("value: parse: unknown kind %v", k)
}

// Infer guesses the kind of a text token: Int, then Float, else String.
func Infer(text string) Value {
	if text == "" {
		return NewNull()
	}
	if i, err := strconv.ParseInt(text, 10, 64); err == nil {
		return NewInt(i)
	}
	if f, err := strconv.ParseFloat(text, 64); err == nil {
		return NewFloat(f)
	}
	return NewString(text)
}
