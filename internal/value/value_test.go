package value

import (
	"math"
	"testing"
	"testing/quick"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{Null: "null", Int: "int", Float: "float", String: "string"}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestConstructorsAndAccessors(t *testing.T) {
	if v := NewInt(42); v.Kind() != Int || v.Int() != 42 {
		t.Errorf("NewInt(42) = %v", v)
	}
	if v := NewFloat(2.5); v.Kind() != Float || v.Float() != 2.5 {
		t.Errorf("NewFloat(2.5) = %v", v)
	}
	if v := NewString("x"); v.Kind() != String || v.Str() != "x" {
		t.Errorf("NewString(x) = %v", v)
	}
	if v := NewNull(); !v.IsNull() {
		t.Errorf("NewNull not null: %v", v)
	}
	var zero Value
	if !zero.IsNull() {
		t.Error("zero Value must be NULL")
	}
}

func TestFloatAccessorConvertsInt(t *testing.T) {
	if got := NewInt(7).Float(); got != 7.0 {
		t.Errorf("NewInt(7).Float() = %v, want 7", got)
	}
}

func TestAccessorPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"Int on string":   func() { NewString("a").Int() },
		"Str on int":      func() { NewInt(1).Str() },
		"Float on string": func() { NewString("a").Float() },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestCompareNumericCrossKind(t *testing.T) {
	if NewInt(3).Compare(NewFloat(3.0)) != 0 {
		t.Error("Int(3) != Float(3.0)")
	}
	if NewInt(3).Compare(NewFloat(3.5)) != -1 {
		t.Error("Int(3) should be < Float(3.5)")
	}
	if NewFloat(4.5).Compare(NewInt(4)) != 1 {
		t.Error("Float(4.5) should be > Int(4)")
	}
}

func TestCompareKindsOrdering(t *testing.T) {
	n, i, s := NewNull(), NewInt(0), NewString("")
	if !(n.Less(i) && i.Less(s) && n.Less(s)) {
		t.Error("want NULL < numeric < string")
	}
	if n.Compare(NewNull()) != 0 {
		t.Error("NULL == NULL")
	}
}

func TestCompareStrings(t *testing.T) {
	if NewString("abc").Compare(NewString("abd")) != -1 {
		t.Error("abc < abd")
	}
	if NewString("b").Compare(NewString("a")) != 1 {
		t.Error("b > a")
	}
	if NewString("x").Compare(NewString("x")) != 0 {
		t.Error("x == x")
	}
}

func TestHashAlignedWithEquality(t *testing.T) {
	pairs := [][2]Value{
		{NewInt(5), NewFloat(5.0)},
		{NewString("a"), NewString("a")},
		{NewNull(), NewNull()},
	}
	for _, p := range pairs {
		if p[0].Key64() != p[1].Key64() {
			t.Errorf("equal values %v and %v hash differently", p[0], p[1])
		}
		if p[0].Key() != p[1].Key() {
			t.Errorf("equal values %v and %v key differently", p[0], p[1])
		}
	}
	if NewInt(1).Key64() == NewInt(2).Key64() {
		t.Error("distinct ints should (almost surely) hash differently")
	}
	if NewString("1").Key() == NewInt(1).Key() {
		t.Error("string \"1\" must not collide with int 1 keys")
	}
}

func TestStringRendering(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{NewInt(-3), "-3"},
		{NewFloat(1.5), "1.5"},
		{NewString("hi"), "hi"},
		{NewNull(), ""},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("%#v.String() = %q, want %q", c.v, got, c.want)
		}
	}
}

func TestParseRoundTrip(t *testing.T) {
	cases := []struct {
		text string
		kind Kind
		want Value
	}{
		{"42", Int, NewInt(42)},
		{"-7", Int, NewInt(-7)},
		{"2.25", Float, NewFloat(2.25)},
		{"abc", String, NewString("abc")},
		{"", Int, NewNull()},
		{"", String, NewNull()},
	}
	for _, c := range cases {
		got, err := Parse(c.text, c.kind)
		if err != nil {
			t.Fatalf("Parse(%q,%v): %v", c.text, c.kind, err)
		}
		if !got.Equal(c.want) {
			t.Errorf("Parse(%q,%v) = %v, want %v", c.text, c.kind, got, c.want)
		}
	}
	if _, err := Parse("abc", Int); err == nil {
		t.Error("Parse(abc, Int) should fail")
	}
	if _, err := Parse("x1.2", Float); err == nil {
		t.Error("Parse(x1.2, Float) should fail")
	}
}

func TestInfer(t *testing.T) {
	if v := Infer("12"); v.Kind() != Int {
		t.Errorf("Infer(12) kind = %v", v.Kind())
	}
	if v := Infer("1.5"); v.Kind() != Float {
		t.Errorf("Infer(1.5) kind = %v", v.Kind())
	}
	if v := Infer("1.5x"); v.Kind() != String {
		t.Errorf("Infer(1.5x) kind = %v", v.Kind())
	}
	if v := Infer(""); !v.IsNull() {
		t.Errorf("Infer(empty) = %v", v)
	}
}

func TestCompareIsAntisymmetricProperty(t *testing.T) {
	f := func(a, b int64) bool {
		va, vb := NewInt(a), NewInt(b)
		return va.Compare(vb) == -vb.Compare(va)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCompareIsTransitiveProperty(t *testing.T) {
	f := func(a, b, c float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.IsNaN(c) {
			return true
		}
		va, vb, vc := NewFloat(a), NewFloat(b), NewFloat(c)
		if va.Compare(vb) <= 0 && vb.Compare(vc) <= 0 {
			return va.Compare(vc) <= 0
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHashEqualityProperty(t *testing.T) {
	f := func(a int64) bool {
		a %= 1 << 53 // keep within float64's exact integer range
		return NewInt(a).Key64() == NewFloat(float64(a)).Key64()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStringParseInferRoundTripProperty(t *testing.T) {
	f := func(raw string) bool {
		v := Infer(raw)
		if v.Kind() != String {
			return true // numeric-looking strings legitimately infer numeric
		}
		return v.Str() == raw
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
