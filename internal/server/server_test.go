package server

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

const citiesCSV = `zip,city
9001,Los Angeles
9001,San Francisco
9001,Los Angeles
10001,San Francisco
10001,New York
`

const citiesRule = "phi@cities: !(t1.zip=t2.zip & t1.city!=t2.city)"

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })
	return srv, ts
}

// seed registers the cities table and FD rule for a tenant via the admin
// endpoints — the same path a real client takes.
func seed(t *testing.T, base, tenant string) {
	t.Helper()
	for _, step := range []struct{ path, body string }{
		{"/v1/tables?name=cities", citiesCSV},
		{"/v1/rules", citiesRule},
	} {
		resp := doReq(t, base, "POST", step.path, tenant, step.body)
		if resp.StatusCode != http.StatusOK {
			b, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			t.Fatalf("seed %s: status %d: %s", step.path, resp.StatusCode, b)
		}
		resp.Body.Close()
	}
}

func doReq(t *testing.T, base, method, path, tenant, body string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(method, base+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if tenant != "" {
		req.Header.Set("X-Daisy-Tenant", tenant)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// errBody decodes the error envelope of a rejection.
func errBody(t *testing.T, resp *http.Response) *apiError {
	t.Helper()
	defer resp.Body.Close()
	var env struct {
		Error *apiError `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatalf("decode error body: %v", err)
	}
	if env.Error == nil {
		t.Fatal("error response carries no error object")
	}
	return env.Error
}

// TestErrorContract pins the HTTP error mapping: status code, machine
// code, and the extras (parse offset, Retry-After) clients key off.
func TestErrorContract(t *testing.T) {
	srv, ts := newTestServer(t, Config{
		MaxInflight:  1,
		MaxQueue:     1,
		QueueTimeout: 50 * time.Millisecond,
		MaxBodyBytes: 256,
	})
	seed(t, ts.URL, "")

	t.Run("parse_error_preserves_offset", func(t *testing.T) {
		resp := doReq(t, ts.URL, "POST", "/v1/query", "", "SELECT zip FROM")
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status = %d, want 400", resp.StatusCode)
		}
		e := errBody(t, resp)
		if e.Code != "parse_error" {
			t.Fatalf("code = %q, want parse_error", e.Code)
		}
		if e.Offset == nil {
			t.Fatal("parse_error must carry the byte offset")
		}
		if !strings.Contains(e.Caret, "^") {
			t.Fatalf("caret missing pointer: %q", e.Caret)
		}
	})

	t.Run("unknown_table_404", func(t *testing.T) {
		resp := doReq(t, ts.URL, "POST", "/v1/query", "", "SELECT a FROM nope")
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("status = %d, want 404", resp.StatusCode)
		}
		if e := errBody(t, resp); e.Code != "unknown_table" {
			t.Fatalf("code = %q, want unknown_table", e.Code)
		}
	})

	t.Run("admission_timeout_429", func(t *testing.T) {
		srv.inflight <- struct{}{} // occupy the only execution slot
		defer func() { <-srv.inflight }()
		resp := doReq(t, ts.URL, "POST", "/v1/query", "", "SELECT zip, city FROM cities")
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("status = %d, want 429", resp.StatusCode)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Fatal("429 must carry Retry-After")
		}
		if e := errBody(t, resp); e.Code != "admission_timeout" {
			t.Fatalf("code = %q, want admission_timeout", e.Code)
		}
	})

	t.Run("queue_full_429", func(t *testing.T) {
		srv.inflight <- struct{}{} // occupy the slot ...
		srv.queued.Add(1)          // ... and the single queue position
		defer func() { <-srv.inflight; srv.queued.Add(-1) }()
		resp := doReq(t, ts.URL, "POST", "/v1/query", "", "SELECT zip, city FROM cities")
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("status = %d, want 429", resp.StatusCode)
		}
		if e := errBody(t, resp); e.Code != "queue_full" {
			t.Fatalf("code = %q, want queue_full", e.Code)
		}
	})

	t.Run("body_too_large_413", func(t *testing.T) {
		big := "SELECT zip FROM cities WHERE city = '" + strings.Repeat("x", 512) + "'"
		resp := doReq(t, ts.URL, "POST", "/v1/query", "", big)
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("status = %d, want 413", resp.StatusCode)
		}
		if e := errBody(t, resp); e.Code != "body_too_large" {
			t.Fatalf("code = %q, want body_too_large", e.Code)
		}
	})

	t.Run("bad_tenant_400", func(t *testing.T) {
		resp := doReq(t, ts.URL, "POST", "/v1/query", "bad/tenant", "SELECT zip FROM cities")
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status = %d, want 400", resp.StatusCode)
		}
		if e := errBody(t, resp); e.Code != "bad_tenant" {
			t.Fatalf("code = %q, want bad_tenant", e.Code)
		}
	})
}

// queryLines runs one streaming query and returns the parsed NDJSON lines.
func queryLines(t *testing.T, base, tenant, query string) []map[string]any {
	t.Helper()
	resp := doReq(t, base, "POST", "/v1/query", tenant, query)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("query status = %d: %s", resp.StatusCode, b)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q, want application/x-ndjson", ct)
	}
	var lines []map[string]any
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var line map[string]any
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		lines = append(lines, line)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return lines
}

// TestQueryStreamProtocol pins the NDJSON shape: schema first, one line per
// row, mandatory {"done":true,"rows":N} trailer, candidate distributions on
// dirty cells.
func TestQueryStreamProtocol(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	seed(t, ts.URL, "")

	lines := queryLines(t, ts.URL, "", "SELECT zip, city FROM cities")
	if len(lines) < 2 {
		t.Fatalf("stream too short: %v", lines)
	}
	if _, ok := lines[0]["schema"]; !ok {
		t.Fatalf("first line must be the schema header, got %v", lines[0])
	}
	last := lines[len(lines)-1]
	if last["done"] != true {
		t.Fatalf("missing done trailer, got %v", last)
	}
	rowCount := int(last["rows"].(float64))
	if rowCount != len(lines)-2 {
		t.Fatalf("trailer rows = %d, stream carried %d row lines", rowCount, len(lines)-2)
	}
	if rowCount != 5 {
		t.Fatalf("cities scan returned %d rows, want 5", rowCount)
	}
	sawUncertain := false
	for _, line := range lines[1 : len(lines)-1] {
		row, ok := line["row"].(map[string]any)
		if !ok {
			t.Fatalf("row line without row object: %v", line)
		}
		if _, ok := row["city"]; !ok {
			t.Fatalf("row missing city column: %v", row)
		}
		if u, ok := line["uncertain"].(map[string]any); ok {
			sawUncertain = true
			cands := u["city"].([]any)
			if len(cands) < 2 {
				t.Fatalf("uncertain city with %d candidates, want >= 2", len(cands))
			}
		}
	}
	if !sawUncertain {
		t.Fatal("FD-violating scan must stream at least one uncertain cell")
	}
}

// TestStatusAndMetrics exercises /v1/status and both /metrics formats after
// real traffic.
func TestStatusAndMetrics(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	seed(t, ts.URL, "acme")
	queryLines(t, ts.URL, "acme", "SELECT zip, city FROM cities")

	resp := doReq(t, ts.URL, "GET", "/v1/status", "acme", "")
	var st statusReply
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Tenant != "acme" || len(st.Tables) != 1 || st.Tables[0] != "cities" {
		t.Fatalf("status = %+v", st)
	}
	if len(st.Rules) != 1 || st.Rules[0] != "phi" {
		t.Fatalf("rules = %v, want [phi]", st.Rules)
	}
	if st.Epoch == 0 {
		t.Fatal("query with repairs must have advanced the epoch")
	}

	resp = doReq(t, ts.URL, "GET", "/metrics", "", "")
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	for _, want := range []string{
		`daisy_queries_total{tenant="acme"} 1`,
		`daisy_epoch{tenant="acme"}`,
		`daisy_query_exec_seconds_count{tenant="acme"} 1`,
		`daisy_writer_apply_batches_total{tenant="acme"}`,
		`daisy_query_rows_streamed_total{tenant="acme"} 5`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, text)
		}
	}

	resp = doReq(t, ts.URL, "GET", "/metrics?format=json", "", "")
	var byTenant map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&byTenant); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if _, ok := byTenant["acme"]; !ok {
		t.Fatalf("json metrics missing tenant acme: %v", byTenant)
	}
}

// TestCleanRefusesTableLackingRuleColumns: a background clean of an unscoped
// rule over a table without the rule's columns is refused with
// started:false, and the server keeps serving.
func TestCleanRefusesTableLackingRuleColumns(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, step := range []struct{ path, body string }{
		{"/v1/tables?name=cities", citiesCSV},
		{"/v1/tables?name=b", "k,v\n1,2\n3,4\n"},
		{"/v1/rules", "phi: !(t1.zip=t2.zip & t1.city!=t2.city)"},
	} {
		resp := doReq(t, ts.URL, "POST", step.path, "", step.body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", step.path, resp.StatusCode)
		}
	}
	resp := doReq(t, ts.URL, "POST", "/v1/clean?table=b&rule=phi", "", "")
	var reply struct {
		Started *bool `json:"started"`
	}
	err := json.NewDecoder(resp.Body).Decode(&reply)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || reply.Started == nil || *reply.Started {
		t.Fatalf("clean of b: status %d, started %v; want 200 and started:false", resp.StatusCode, reply.Started)
	}
	if lines := queryLines(t, ts.URL, "", "SELECT zip, city FROM cities"); len(lines) == 0 {
		t.Fatal("no reply after the refused clean")
	}
	resp = doReq(t, ts.URL, "GET", "/healthz", "", "")
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after the refused clean = %d", resp.StatusCode)
	}
}

// TestDrainContract: once Drain starts, new work is 503 draining with
// Retry-After, healthz flips to 503, and Drain itself completes cleanly
// with background cleaning quiesced.
func TestDrainContract(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	seed(t, ts.URL, "")
	queryLines(t, ts.URL, "", "SELECT zip, city FROM cities")

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}

	resp := doReq(t, ts.URL, "POST", "/v1/query", "", "SELECT zip, city FROM cities")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain query status = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("post-drain 503 must carry Retry-After")
	}
	if e := errBody(t, resp); e.Code != "draining" {
		t.Fatalf("code = %q, want draining", e.Code)
	}

	resp = doReq(t, ts.URL, "GET", "/healthz", "", "")
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain healthz = %d, want 503", resp.StatusCode)
	}

	// Drain is idempotent.
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("second drain: %v", err)
	}
}

// TestConcurrentQueriesDoNotLeakSlots hammers the query path from many
// goroutines and asserts every inflight slot comes back.
func TestConcurrentQueriesDoNotLeakSlots(t *testing.T) {
	srv, ts := newTestServer(t, Config{MaxInflight: 4, MaxQueue: 64, QueueTimeout: 5 * time.Second})
	seed(t, ts.URL, "")

	const n = 32
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			resp := doReq(t, ts.URL, "POST", "/v1/query", "",
				fmt.Sprintf("SELECT zip, city FROM cities WHERE zip >= %d", 9000+i%2))
			_, err := io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("status %d", resp.StatusCode)
			}
			errs <- err
		}(i)
	}
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.WaitIdle(ctx); err != nil {
		t.Fatalf("inflight slots leaked: %v (held=%d queued=%d)",
			err, len(srv.inflight), srv.queued.Load())
	}
}

// TestDurableTenantPersistsAcrossServers writes through one server, drains
// it, and reads the cleaned state back through a fresh server over the same
// root.
func TestDurableTenantPersistsAcrossServers(t *testing.T) {
	root := t.TempDir()

	srv1 := New(Config{Root: root})
	ts1 := httptest.NewServer(srv1.Handler())
	seed(t, ts1.URL, "acme")
	lines := queryLines(t, ts1.URL, "acme", "SELECT zip, city FROM cities")
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv1.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	ts1.Close()

	_, ts2 := newTestServer(t, Config{Root: root})
	resp := doReq(t, ts2.URL, "GET", "/v1/status", "acme", "")
	var st statusReply
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(st.Tables) != 1 || st.Tables[0] != "cities" {
		t.Fatalf("recovered status = %+v, want cities registered", st)
	}
	lines2 := queryLines(t, ts2.URL, "acme", "SELECT zip, city FROM cities")
	if len(lines2) != len(lines) {
		t.Fatalf("recovered query returned %d lines, want %d", len(lines2), len(lines))
	}
}
