package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"daisy/internal/ptable"
	"daisy/internal/uncertain"
	"daisy/internal/value"
)

// rowJSON is the reference form of a row line: the map encoding/json
// renders. The encoder must match it byte for byte on every finite-valued
// tuple.
func rowJSON(names []string, tup *ptable.Tuple) map[string]any {
	row := make(map[string]any, len(names))
	var uncertainCols map[string]any
	for i, name := range names {
		if i >= len(tup.Cells) {
			break
		}
		cell := &tup.Cells[i]
		row[name] = valueJSON(cell.Value())
		if !cell.IsCertain() {
			if uncertainCols == nil {
				uncertainCols = map[string]any{}
			}
			uncertainCols[name] = candidatesJSON(cell)
		}
	}
	out := map[string]any{"row": row}
	if uncertainCols != nil {
		out["uncertain"] = uncertainCols
	}
	return out
}

func candidatesJSON(c *uncertain.Cell) []map[string]any {
	out := make([]map[string]any, 0, len(c.Candidates))
	for _, cand := range c.Candidates {
		out = append(out, map[string]any{"value": valueJSON(cand.Val), "p": cand.Prob})
	}
	return out
}

func valueJSON(v value.Value) any {
	switch v.Kind() {
	case value.Int:
		return v.Int()
	case value.Float:
		return v.Float()
	case value.String:
		return v.Str()
	default:
		if v.IsNull() {
			return nil
		}
		return v.String()
	}
}

// checkMatchesReference fails unless the encoder renders tup exactly as
// json.Encoder renders rowJSON(names, tup).
func checkMatchesReference(t *testing.T, names []string, tup *ptable.Tuple) {
	t.Helper()
	var want bytes.Buffer
	if err := json.NewEncoder(&want).Encode(rowJSON(names, tup)); err != nil {
		t.Fatalf("reference encode: %v", err)
	}
	got := newRowEncoder(names).appendRow([]byte("prefix"), tup)
	if !bytes.HasPrefix(got, []byte("prefix")) {
		t.Fatalf("appendRow lost the buffer's contents: %q", got)
	}
	if got := got[len("prefix"):]; !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("names %q:\n got %s\nwant %s", names, got, want.Bytes())
	}
}

func certain(vals ...value.Value) []uncertain.Cell {
	cells := make([]uncertain.Cell, len(vals))
	for i, v := range vals {
		cells[i] = uncertain.Certain(v)
	}
	return cells
}

func dirtyCell(orig value.Value, cands ...uncertain.Candidate) uncertain.Cell {
	return uncertain.Cell{Orig: orig, Candidates: cands}
}

func cand(v value.Value, p float64) uncertain.Candidate {
	return uncertain.Candidate{Val: v, Prob: p}
}

// rangeOnly is a cell whose only fix is a range: uncertain, no candidates.
func rangeOnly(orig value.Value) uncertain.Cell {
	return uncertain.Cell{Orig: orig, Ranges: []uncertain.RangeCandidate{{Prob: 1}}}
}

func TestRowEncoderMatchesJSON(t *testing.T) {
	i, f, s, null := value.NewInt, value.NewFloat, value.NewString, value.NewNull()
	floats := []float64{
		0, 1, -1, 0.1, 1.5, 123456789.125, 1e20,
		1e-6, math.Nextafter(1e-6, 0), 1e-7, -1e-7, 1.5e-300,
		1e21, math.Nextafter(1e21, 0), -1e21, 1e300,
		math.Copysign(0, -1), math.SmallestNonzeroFloat64,
		math.MaxFloat64, -math.MaxFloat64,
	}
	var floatVals []value.Value
	var floatNames []string
	for k, x := range floats {
		floatVals = append(floatVals, f(x))
		floatNames = append(floatNames, fmt.Sprintf("f%02d", k))
	}
	cases := []struct {
		name  string
		names []string
		cells []uncertain.Cell
	}{
		{"empty schema", nil, nil},
		{"certain", []string{"zip", "city"}, certain(i(9001), s("Los Angeles"))},
		{"unsorted names", []string{"z", "a", "m"}, certain(i(1), i(2), i(3))},
		{"null", []string{"a"}, certain(null)},
		{"ints", []string{"min", "max", "zero"}, certain(i(math.MinInt64), i(math.MaxInt64), i(0))},
		{"floats", floatNames, certain(floatVals...)},
		{"dirty", []string{"zip", "city"}, []uncertain.Cell{
			uncertain.Certain(i(9001)),
			dirtyCell(s("San Francisco"), cand(s("Los Angeles"), 2.0/3), cand(s("San Francisco"), 1.0/3)),
		}},
		{"null candidate", []string{"a", "b"}, []uncertain.Cell{
			dirtyCell(i(1), cand(null, 0.5), cand(i(1), 0.5)),
			dirtyCell(null, cand(null, 0.25), cand(f(2.5), 0.75)),
		}},
		{"range only", []string{"a", "b"}, []uncertain.Cell{rangeOnly(i(7)), uncertain.Certain(i(8))}},
		{"range and candidates", []string{"a"}, []uncertain.Cell{{
			Orig: i(3), Candidates: []uncertain.Candidate{cand(i(3), 0.5)},
			Ranges: []uncertain.RangeCandidate{{Prob: 0.5}},
		}}},
		{"tiny probabilities", []string{"a"}, []uncertain.Cell{
			dirtyCell(i(1), cand(i(1), 1-1e-9), cand(i(2), 1e-9), cand(i(3), 0)),
		}},
		{"duplicate names, last wins", []string{"a", "b", "a"}, []uncertain.Cell{
			dirtyCell(i(1), cand(i(1), 0.5), cand(i(2), 0.5)),
			uncertain.Certain(s("x")),
			uncertain.Certain(i(9)),
		}},
		{"duplicate names, last dirty wins", []string{"a", "a", "a"}, []uncertain.Cell{
			dirtyCell(i(1), cand(i(1), 0.5), cand(i(2), 0.5)),
			dirtyCell(i(3), cand(i(3), 0.9), cand(i(4), 0.1)),
			uncertain.Certain(i(5)),
		}},
		{"duplicate names past the end", []string{"a", "b", "a"}, []uncertain.Cell{
			uncertain.Certain(i(1)), dirtyCell(i(2), cand(i(2), 1)),
		}},
		{"tuple shorter than schema", []string{"a", "b", "c"}, certain(i(1))},
		{"tuple with no cells", []string{"a", "b"}, nil},
		{"tuple longer than schema", []string{"a"}, []uncertain.Cell{
			uncertain.Certain(i(1)), dirtyCell(i(2), cand(i(2), 1)),
		}},
		{"html and quotes", []string{"<k>", "a&b", `q"`, `b\s`}, certain(
			s("<script>"), s("fish & chips"), s(`say "hi"`), s(`C:\dir`))},
		{"one escape each", []string{"lt", "gt", "amp", "quote", "backslash"}, certain(
			s("1 < 2"), s("2 > 1"), s("a&b"), s(`"`), s(`\`))},
		{"control bytes", []string{"a", "b", "c"}, certain(s("\b\f\x01"), s("tab\there\nnl\r"), s("\x7f del"))},
		{"invalid utf-8", []string{"a", "\xff"}, certain(s("bad \xff\xfe byte"), s("\xc3"))},
		{"line separators", []string{"a", "b"}, certain(s("x\u2028y"), s("\u2029"))},
		{"non-ascii names", []string{"städte", "城市", "é"}, certain(s("Zürich"), s("東京"), s("ü"))},
		{"empty strings", []string{"", "a"}, certain(s(""), s(""))},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			checkMatchesReference(t, tc.names, &ptable.Tuple{Cells: tc.cells})
		})
	}
}

// TestRowEncoderNonFinite: NaN and the infinities, which encoding/json
// refuses, render as the strings value.String gives them, as values and as
// candidate values or probabilities.
func TestRowEncoderNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	tup := &ptable.Tuple{Cells: []uncertain.Cell{
		uncertain.Certain(value.NewFloat(nan)),
		uncertain.Certain(value.NewFloat(inf)),
		dirtyCell(value.NewFloat(-inf), cand(value.NewFloat(-inf), 0.5), cand(value.NewFloat(1), nan)),
	}}
	got := string(newRowEncoder([]string{"a", "b", "c"}).appendRow(nil, tup))
	want := `{"row":{"a":"NaN","b":"+Inf","c":"-Inf"},"uncertain":{"c":[{"p":0.5,"value":"-Inf"},{"p":"NaN","value":1}]}}` + "\n"
	if got != want {
		t.Fatalf("got  %s\nwant %s", got, want)
	}
	for _, x := range []float64{nan, inf, -inf} {
		if q := string(appendFloat(nil, x)); q != `"`+value.NewFloat(x).String()+`"` {
			t.Errorf("appendFloat(%v) = %s, want value.String's text", x, q)
		}
	}
}

// fuzzReader deals out a fuzz input's bytes; past the end it reads zeros.
type fuzzReader []byte

func (r *fuzzReader) byte() byte {
	if len(*r) == 0 {
		return 0
	}
	b := (*r)[0]
	*r = (*r)[1:]
	return b
}

func (r *fuzzReader) uint64() uint64 {
	var u uint64
	for range 8 {
		u = u<<8 | uint64(r.byte())
	}
	return u
}

// float reads any finite float64; the reference cannot encode the others.
func (r *fuzzReader) float() float64 {
	f := math.Float64frombits(r.uint64())
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return 0.5
	}
	return f
}

func (r *fuzzReader) value() value.Value {
	switch r.byte() % 4 {
	case 0:
		return value.NewNull()
	case 1:
		return value.NewInt(int64(r.uint64()))
	case 2:
		return value.NewFloat(r.float())
	default:
		n := min(int(r.byte())%16, len(*r))
		s := string((*r)[:n])
		*r = (*r)[n:]
		return value.NewString(s)
	}
}

// cell reads a certain cell, a cell with candidates, a range-only cell, or
// one with both.
func (r *fuzzReader) cell() uncertain.Cell {
	c := uncertain.Cell{Orig: r.value()}
	shape := r.byte() % 4
	if shape&1 != 0 {
		for k := 1 + int(r.byte())%3; k > 0; k-- {
			c.Candidates = append(c.Candidates, cand(r.value(), r.float()))
		}
	}
	if shape&2 != 0 {
		c.Ranges = []uncertain.RangeCandidate{{Prob: 1}}
	}
	return c
}

// FuzzRowEncoderMatchesJSON: for any column names (split on ',', so names
// repeat and carry any byte) and any tuple, longer or shorter than the
// schema, the encoder's line equals encoding/json's rendering of rowJSON.
func FuzzRowEncoderMatchesJSON(f *testing.F) {
	f.Add("zip,city", []byte{2, 0, 1, 0, 0, 0, 0, 0, 0, 0x23, 0x29, 0, 3, 3, 'L', 'A', '<', 1, 1, 3, 2, 'S', 'F'})
	f.Add("a,b,a", []byte{3, 1, 0, 0, 0, 0, 0, 0, 0, 9, 2, 0, 1, 0, 1, 0, 3})
	f.Add("<&>,\u2028,\xff", []byte{3, 3, 4, '\b', '"', '\\', 0xe2, 0, 2, 0x3e, 0xb0, 0, 0, 0, 0, 0, 0, 2})
	f.Add("", []byte{})
	f.Fuzz(func(t *testing.T, nameList string, data []byte) {
		var names []string
		if nameList != "" {
			names = strings.Split(nameList, ",")
		}
		if len(names) > 8 {
			names = names[:8]
		}
		r := fuzzReader(data)
		cells := make([]uncertain.Cell, int(r.byte())%(len(names)+2))
		for k := range cells {
			cells[k] = r.cell()
		}
		checkMatchesReference(t, names, &ptable.Tuple{Cells: cells})
	})
}

// registerCSV uploads a relation through the admin endpoint.
func registerCSV(t *testing.T, base, name, csv string) {
	t.Helper()
	resp := doReq(t, base, "POST", "/v1/tables?name="+name, "", csv)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("register %s: status %d: %s", name, resp.StatusCode, b)
	}
}

// queryBody runs one query and returns its NDJSON body as lines, the
// trailing newline dropped.
func queryBody(t *testing.T, url, query string) []string {
	t.Helper()
	resp := doReq(t, url, "POST", "/v1/query", "", query)
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query status = %d: %s", resp.StatusCode, body)
	}
	return strings.Split(strings.TrimSuffix(string(body), "\n"), "\n")
}

// TestQueryStreamNonFiniteFloats: a NaN or infinite float cell is rendered
// as a string, and the stream still ends in its trailer.
func TestQueryStreamNonFiniteFloats(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	registerCSV(t, ts.URL, "m", "k,v\n1,1.5\n2,NaN\n3,+Inf\n4,2.5\n")
	got := queryBody(t, ts.URL, "SELECT k, v FROM m")
	want := []string{
		`{"schema":[{"kind":"int","name":"k"},{"kind":"float","name":"v"}]}`,
		`{"row":{"k":1,"v":1.5}}`,
		`{"row":{"k":2,"v":"NaN"}}`,
		`{"row":{"k":3,"v":"+Inf"}}`,
		`{"row":{"k":4,"v":2.5}}`,
		`{"done":true,"rows":4}`,
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("body:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// seqCSV is a relation k = 1..n, in that scan order.
func seqCSV(n int) string {
	var b strings.Builder
	b.WriteString("k,v\n")
	for k := 1; k <= n; k++ {
		fmt.Fprintf(&b, "%d,v%d\n", k, k)
	}
	return b.String()
}

// TestQueryStreamBatchBoundaries: results on either side of the 64-row
// write batch arrive whole and in scan order, then the done trailer; a
// traced stream still ends in its trace trailer.
func TestQueryStreamBatchBoundaries(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	registerCSV(t, ts.URL, "seq", seqCSV(2*rowBatch+1))
	for _, n := range []int{0, 1, rowBatch - 1, rowBatch, rowBatch + 1, 2*rowBatch + 1} {
		lines := queryBody(t, ts.URL, fmt.Sprintf("SELECT k, v FROM seq WHERE k <= %d", n))
		if len(lines) != n+2 {
			t.Fatalf("n=%d: %d lines, want schema + %d rows + trailer", n, len(lines), n)
		}
		for k := 1; k <= n; k++ {
			if want := fmt.Sprintf(`{"row":{"k":%d,"v":"v%d"}}`, k, k); lines[k] != want {
				t.Fatalf("n=%d: line %d = %s, want %s", n, k, lines[k], want)
			}
		}
		if want := fmt.Sprintf(`{"done":true,"rows":%d}`, n); lines[n+1] != want {
			t.Fatalf("n=%d: trailer %s, want %s", n, lines[n+1], want)
		}
	}

	resp := doReq(t, ts.URL, "POST", "/v1/query?trace=1", "", "SELECT k FROM seq")
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	lines := splitNDJSON(t, body)
	trailer := lines[len(lines)-1]
	if trailer["done"] != true || trailer["rows"] != float64(2*rowBatch+1) || trailer["trace"] == nil {
		t.Fatalf("traced trailer = %v, want done, %d rows and a trace", trailer, 2*rowBatch+1)
	}
	if len(lines) != 2*rowBatch+3 {
		t.Fatalf("traced stream carried %d lines, want %d", len(lines), 2*rowBatch+3)
	}
}

// cancelAfterRows passes writes through and cancels the request's context
// once the first batch of rows (the write after the schema line) is out.
type cancelAfterRows struct {
	http.ResponseWriter
	cancel context.CancelFunc
	writes int
}

func (w *cancelAfterRows) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	if w.writes++; w.writes == 2 {
		w.cancel()
	}
	return n, err
}

// TestQueryStreamMidStreamCancel: a context that ends between batches ends
// the stream with an error trailer after the rows already written.
func TestQueryStreamMidStreamCancel(t *testing.T) {
	srv := New(Config{})
	t.Cleanup(func() { srv.Close() })
	h := srv.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithCancel(r.Context())
		defer cancel()
		if r.URL.Path == "/v1/query" {
			w = &cancelAfterRows{ResponseWriter: w, cancel: cancel}
		}
		h.ServeHTTP(w, r.WithContext(ctx))
	}))
	t.Cleanup(ts.Close)
	registerCSV(t, ts.URL, "seq", seqCSV(2*rowBatch+1))

	lines := queryBody(t, ts.URL, "SELECT k FROM seq")
	if len(lines) != rowBatch+2 {
		t.Fatalf("%d lines, want schema + %d rows + trailer", len(lines), rowBatch)
	}
	var trailer struct {
		Error *apiError `json:"error"`
	}
	if err := json.Unmarshal([]byte(lines[rowBatch+1]), &trailer); err != nil || trailer.Error == nil {
		t.Fatalf("last line %s is not an error trailer (%v)", lines[rowBatch+1], err)
	}
	if trailer.Error.Code != "deadline" {
		t.Fatalf("error trailer code = %q, want deadline", trailer.Error.Code)
	}
}
