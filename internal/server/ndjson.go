package server

import (
	"encoding/json"
	"math"
	"slices"
	"strconv"

	"daisy/internal/ptable"
	"daisy/internal/uncertain"
	"daisy/internal/value"
)

// rowEncoder appends the NDJSON line of one probabilistic tuple:
// {"row":{...}} maps each column to its most probable value, and
// "uncertain" (present only when a cell is dirty) maps each dirty column to
// its candidate distribution [{"p":…,"value":…},…]. The bytes are exactly
// what encoding/json renders for the equivalent map[string]any (sorted keys,
// HTML-safe escaping, its float64 form), which the reference test in
// ndjson_test.go pins; the encoder only skips the maps, the boxing and the
// reflection. The one divergence is a NaN or infinite float, which
// encoding/json refuses: it is rendered as the string value.String() gives
// it ("NaN", "+Inf", "-Inf").
type rowEncoder struct {
	cols []rowCol // one per distinct column name, in sorted-name order
}

// rowCol is one distinct column name. A name the schema repeats keeps every
// position, so the last one a tuple has wins, as in a map assignment loop.
type rowCol struct {
	key []byte // `"name":`
	at  []int  // schema positions carrying the name, descending
}

func newRowEncoder(names []string) *rowEncoder {
	sorted := slices.Clone(names)
	slices.Sort(sorted)
	sorted = slices.Compact(sorted)
	e := &rowEncoder{cols: make([]rowCol, len(sorted))}
	for i, name := range sorted {
		e.cols[i].key = append(appendString(nil, name), ':')
	}
	for pos := len(names) - 1; pos >= 0; pos-- {
		i, _ := slices.BinarySearch(sorted, names[pos])
		e.cols[i].at = append(e.cols[i].at, pos)
	}
	return e
}

// appendRow appends tup's line, newline included, to b.
func (e *rowEncoder) appendRow(b []byte, tup *ptable.Tuple) []byte {
	cells := tup.Cells
	b = append(b, `{"row":{`...)
	comma := false
	for i := range e.cols {
		c := &e.cols[i]
		pos := c.last(len(cells))
		if pos < 0 {
			continue
		}
		if comma {
			b = append(b, ',')
		}
		comma = true
		b = append(b, c.key...)
		b = appendValue(b, cells[pos].Value())
	}
	b = append(b, '}')
	dirty := false
	for i := range e.cols {
		c := &e.cols[i]
		pos := c.lastDirty(cells)
		if pos < 0 {
			continue
		}
		if dirty {
			b = append(b, ',')
		} else {
			b = append(b, `,"uncertain":{`...)
		}
		dirty = true
		b = append(b, c.key...)
		b = appendCandidates(b, &cells[pos])
	}
	if dirty {
		b = append(b, '}')
	}
	return append(b, "}\n"...)
}

// last returns the last of c's positions below n, or -1.
func (c *rowCol) last(n int) int {
	for _, pos := range c.at {
		if pos < n {
			return pos
		}
	}
	return -1
}

// lastDirty returns the last of c's positions whose cell is uncertain, or
// -1.
func (c *rowCol) lastDirty(cells []uncertain.Cell) int {
	for _, pos := range c.at {
		if pos < len(cells) && !cells[pos].IsCertain() {
			return pos
		}
	}
	return -1
}

// appendCandidates appends the cell's candidate distribution; a cell whose
// fixes are all ranges has none and renders [].
func appendCandidates(b []byte, c *uncertain.Cell) []byte {
	b = append(b, '[')
	for i, cand := range c.Candidates {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"p":`...)
		b = appendFloat(b, cand.Prob)
		b = append(b, `,"value":`...)
		b = appendValue(b, cand.Val)
		b = append(b, '}')
	}
	return append(b, ']')
}

func appendValue(b []byte, v value.Value) []byte {
	switch v.Kind() {
	case value.Int:
		return strconv.AppendInt(b, v.Int(), 10)
	case value.Float:
		return appendFloat(b, v.Float())
	case value.String:
		return appendString(b, v.Str())
	default:
		return append(b, "null"...)
	}
}

// appendFloat appends f in encoding/json's float64 form: the shortest
// decimal, in exponent form below 1e-6 or from 1e21 on, with a one-digit
// negative exponent written e-7 rather than e-07.
func appendFloat(b []byte, f float64) []byte {
	switch {
	case math.IsNaN(f):
		return append(b, `"NaN"`...)
	case math.IsInf(f, 1):
		return append(b, `"+Inf"`...)
	case math.IsInf(f, -1):
		return append(b, `"-Inf"`...)
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

// appendString appends s as a JSON string. Printable ASCII other than the
// quote, the backslash and the HTML-escaped <, > and & is copied as is;
// any other string goes through json.Marshal, so escaping stays identical.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}
