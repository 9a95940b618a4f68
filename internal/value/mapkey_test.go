package value

import (
	"testing"
)

// keyCorpus spans every kind with the collision-prone edges: int/float
// numeric unification, negative zero, empty and separator-bearing strings.
func keyCorpus() []Value {
	return []Value{
		NewNull(),
		NewInt(0), NewInt(1), NewInt(-1), NewInt(9), NewInt(10), NewInt(1<<62 - 1),
		NewFloat(0), NewFloat(1), NewFloat(-1), NewFloat(9), NewFloat(10),
		NewFloat(1.5), NewFloat(-1.5), NewFloat(0.1), NewFloat(1e300),
		NewString(""), NewString("a"), NewString("ab"), NewString("b"),
		NewString("1"), NewString("i1"), NewString("\x00"), NewString("a\x1fb"),
	}
}

// TestMapKeyMatchesLegacyKey: MapKey equality must coincide with the legacy
// string Key equality (and hence with Compare==0) across the corpus —
// including Int/Float unification (1 ≡ 1.0) and NULL identity.
func TestMapKeyMatchesLegacyKey(t *testing.T) {
	vals := keyCorpus()
	for _, a := range vals {
		for _, b := range vals {
			legacyEq := a.Key() == b.Key()
			mapEq := a.MapKey() == b.MapKey()
			if legacyEq != mapEq {
				t.Errorf("key equivalence mismatch for %v vs %v: Key()==%v, MapKey()==%v",
					a, b, legacyEq, mapEq)
			}
			if cmpEq := a.Compare(b) == 0; cmpEq != mapEq {
				t.Errorf("compare mismatch for %v vs %v: Compare==0 is %v, MapKey eq %v",
					a, b, cmpEq, mapEq)
			}
		}
	}
}

// TestKey64ConsistentWithMapKey: equal MapKeys must hash identically, and
// the corpus must not collide (sanity, not a cryptographic guarantee).
func TestKey64ConsistentWithMapKey(t *testing.T) {
	vals := keyCorpus()
	hashes := make(map[uint64]MapKey)
	for _, v := range vals {
		h := v.Key64()
		k := v.MapKey()
		if prev, ok := hashes[h]; ok && prev != k {
			t.Errorf("corpus hash collision: %v and key %v share %#x", v, prev, h)
		}
		hashes[h] = k
	}
	if NewInt(7).Key64() != NewFloat(7).Key64() {
		t.Error("integral float must hash like the equal int")
	}
}

// TestCompositeKeyInjective: composite keys must distinguish boundary
// shifts — ("ab","c") vs ("a","bc") — the classic separator-join ambiguity.
func TestCompositeKeyInjective(t *testing.T) {
	a := MapKeyOf(NewString("ab"), NewString("c"))
	b := MapKeyOf(NewString("a"), NewString("bc"))
	if a == b {
		t.Error("composite key must be injective over element boundaries")
	}
	if MapKeyOf(NewString("a"), NewString("b")) != MapKeyOf(NewString("a"), NewString("b")) {
		t.Error("equal composites must produce equal keys")
	}
	// Numeric unification holds inside composites.
	if MapKeyOf(NewInt(3), NewString("x")) != MapKeyOf(NewFloat(3), NewString("x")) {
		t.Error("composite key must unify int/float elements")
	}
	if MapKeyOf(NewInt(3)) != NewInt(3).MapKey() {
		t.Error("single-element composite must equal the scalar key")
	}
}

// TestScalarMapKeyAllocs: scalar and hash key construction must not allocate.
func TestScalarMapKeyAllocs(t *testing.T) {
	v := NewString("Los Angeles")
	iv := NewInt(42)
	if n := testing.AllocsPerRun(100, func() {
		_ = v.MapKey()
		_ = iv.MapKey()
		_ = v.Key64()
		_ = iv.Key64()
	}); n != 0 {
		t.Errorf("scalar MapKey/Key64 allocated %v times per run, want 0", n)
	}
}

// binaryKeyCorpus is keyCorpus as MapKeys plus composite keys, including the
// empty composite.
func binaryKeyCorpus() []MapKey {
	vals := keyCorpus()
	keys := make([]MapKey, 0, len(vals)+4)
	for _, v := range vals {
		keys = append(keys, v.MapKey())
	}
	return append(keys,
		CompositeKeyFromBytes(AppendKeyBytes(nil, NewInt(1), NewString("a"))),
		CompositeKeyFromBytes(AppendKeyBytes(nil, NewString("a"), NewInt(1))),
		CompositeKeyFromBytes(AppendKeyBytes(nil, NewNull())),
		CompositeKeyFromBytes(nil),
	)
}

// TestMapKeyBinaryRoundTrip: AppendBinary/DecodeMapKey must round-trip every
// corpus key (scalar and composite) exactly, preserving equality structure,
// and reject truncated or unknown-kind input — the WAL stores checked-group
// keys in this encoding.
func TestMapKeyBinaryRoundTrip(t *testing.T) {
	keys := binaryKeyCorpus()
	for _, k := range keys {
		buf := k.AppendBinary([]byte("prefix"))
		got, rest, err := DecodeMapKey(buf[len("prefix"):])
		if err != nil {
			t.Fatalf("decode %v: %v", k, err)
		}
		if got != k {
			t.Errorf("round trip changed key: %v -> %v", k, got)
		}
		if len(rest) != 0 {
			t.Errorf("decode of %v left %d bytes", k, len(rest))
		}
	}
	// Concatenated keys decode in sequence.
	var buf []byte
	for _, k := range keys {
		buf = k.AppendBinary(buf)
	}
	rest := buf
	for i, k := range keys {
		var got MapKey
		var err error
		got, rest, err = DecodeMapKey(rest)
		if err != nil || got != k {
			t.Fatalf("sequential decode %d: got %v err %v, want %v", i, got, err, k)
		}
	}
	// Truncations fail cleanly rather than mis-decoding.
	full := NewString("hello").MapKey().AppendBinary(nil)
	for cut := 0; cut < len(full); cut++ {
		if _, _, err := DecodeMapKey(full[:cut]); err == nil && cut < len(full) {
			t.Errorf("truncation at %d decoded successfully", cut)
		}
	}
	if _, _, err := DecodeMapKey([]byte{0xee}); err == nil {
		t.Error("unknown kind byte decoded successfully")
	}
}

// FuzzDecodeMapKey: DecodeMapKey reads keys back from the WAL and from
// checkpoints, so it must never panic on arbitrary bytes. A successful decode
// must survive re-encoding: DecodeMapKey(k.AppendBinary(nil)) returns k and
// consumes every byte. The input itself need not be reproduced byte for byte,
// because non-minimal uvarint lengths are accepted.
func FuzzDecodeMapKey(f *testing.F) {
	for _, k := range binaryKeyCorpus() {
		f.Add(k.AppendBinary(nil))
	}
	f.Add([]byte{})
	f.Add([]byte{0xee})
	f.Fuzz(func(t *testing.T, data []byte) {
		k, _, err := DecodeMapKey(data)
		if err != nil {
			return
		}
		again, tail, err := DecodeMapKey(k.AppendBinary(nil))
		if err != nil {
			t.Fatalf("re-encoded %v does not decode: %v", k, err)
		}
		if again != k || len(tail) != 0 {
			t.Fatalf("round trip of %v gave %v with %d bytes left", k, again, len(tail))
		}
	})
}
