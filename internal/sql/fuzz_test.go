package sql

import (
	"errors"
	"testing"
)

// FuzzParse feeds arbitrary text to the parser: it must never panic, every
// error must be a *ParseError, and its offset must point into the text (or
// just past it, for errors at end of input).
func FuzzParse(f *testing.F) {
	for _, seed := range []string{
		"SELECT zip, city FROM cities",
		"SELECT zip FROM cities WHERE city = 'Los Angeles'",
		"SELECT a FROM t WHERE a >= 10 AND a < 20 OR b = 5",
		"SELECT lineorder.suppkey, supplier.name FROM lineorder, supplier WHERE lineorder.suppkey = supplier.suppkey",
		"SELECT year, AVG(co) FROM air WHERE county = 'X' GROUP BY year",
		"SELECT COUNT(*) FROM t WHERE (a <> 3 OR b != -1.5e3)",
		"SELECT a FROM t WHERE a = 'unterminated",
		"SELECT SUM( FROM t",
		"",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, text string) {
		q, err := Parse(text)
		if err == nil {
			if q == nil {
				t.Fatal("nil query without an error")
			}
			return
		}
		var pe *ParseError
		if !errors.As(err, &pe) {
			t.Fatalf("error %v (%T) is not a *ParseError", err, err)
		}
		if pe.Pos < 0 || pe.Pos > len(text) {
			t.Fatalf("ParseError.Pos = %d outside [0, %d] for %q", pe.Pos, len(text), text)
		}
	})
}
