package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"daisy/internal/core"
	"daisy/internal/dc"
	"daisy/internal/sql"
	"daisy/internal/table"
	"daisy/internal/trace"
)

// apiError is one rejection: HTTP status plus the JSON body every error
// response carries. The offset/caret pair is populated for parse errors so a
// client can render the failing position without re-parsing.
type apiError struct {
	status     int
	retryAfter int // seconds; 0 omits the header

	Code    string `json:"code"`
	Message string `json:"message"`
	Offset  *int   `json:"offset,omitempty"`
	Caret   string `json:"caret,omitempty"`
}

func (e *apiError) write(w http.ResponseWriter) {
	if e.retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(e.retryAfter))
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(e.status)
	_ = json.NewEncoder(w).Encode(map[string]*apiError{"error": e})
}

// mapQueryError turns a query failure into its wire form. The contract is
// pinned by TestErrorContract: parse errors keep their byte offset, unknown
// tables are 404, closed sessions 503, deadline expiry 504.
func mapQueryError(err error, query string) *apiError {
	var pe *sql.ParseError
	switch {
	case errors.As(err, &pe):
		off := pe.Pos
		return &apiError{
			status:  http.StatusBadRequest,
			Code:    "parse_error",
			Message: pe.Error(),
			Offset:  &off,
			Caret:   caretLine(query, pe.Pos),
		}
	case errors.Is(err, core.ErrUnknownTable):
		return &apiError{status: http.StatusNotFound, Code: "unknown_table", Message: err.Error()}
	case errors.Is(err, core.ErrSessionClosed):
		return &apiError{status: http.StatusServiceUnavailable, retryAfter: 1, Code: "session_closed", Message: err.Error()}
	case isDeadline(err):
		return &apiError{status: http.StatusGatewayTimeout, Code: "deadline", Message: err.Error()}
	default:
		return &apiError{status: http.StatusUnprocessableEntity, Code: "query_failed", Message: err.Error()}
	}
}

func isDeadline(err error) bool {
	// Client disconnects surface as context.Canceled; deadlines (server- or
	// client-imposed) as DeadlineExceeded. Both end the query; a canceled
	// client reads nothing, so both render as 504.
	return errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled)
}

// caretLine renders the query's failing line with a ^ under the offending
// byte offset, the classic compiler-diagnostic form.
func caretLine(query string, pos int) string {
	if pos < 0 || pos > len(query) {
		return ""
	}
	lineStart := strings.LastIndexByte(query[:pos], '\n') + 1
	lineEnd := len(query)
	if i := strings.IndexByte(query[pos:], '\n'); i >= 0 {
		lineEnd = pos + i
	}
	return query[lineStart:lineEnd] + "\n" + strings.Repeat(" ", pos-lineStart) + "^"
}

// tenantFrom validates the X-Daisy-Tenant header ("" means "default"); the
// name doubles as a directory component under Root, so the character set is
// strict.
func tenantFrom(r *http.Request) (string, *apiError) {
	name := r.Header.Get("X-Daisy-Tenant")
	if name == "" {
		return "default", nil
	}
	if !tenantName.MatchString(name) {
		return "", &apiError{
			status:  http.StatusBadRequest,
			Code:    "bad_tenant",
			Message: "tenant must match [A-Za-z0-9_-]{1,64}",
		}
	}
	return name, nil
}

func tenantDir(root, name string) string { return filepath.Join(root, name) }

// readBody reads the size-bounded request body, mapping overflow to 413.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request) ([]byte, *apiError) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return nil, &apiError{
				status:  http.StatusRequestEntityTooLarge,
				Code:    "body_too_large",
				Message: fmt.Sprintf("request body exceeds %d bytes", tooLarge.Limit),
			}
		}
		return nil, &apiError{status: http.StatusBadRequest, Code: "bad_body", Message: err.Error()}
	}
	return body, nil
}

// withTenant factors the shared prologue of every tenant-scoped handler:
// validate the header, pin the session, run, unpin.
func (s *Server) withTenant(w http.ResponseWriter, r *http.Request, fn func(t *tenant)) {
	name, aerr := tenantFrom(r)
	if aerr != nil {
		aerr.write(w)
		return
	}
	t, aerr := s.tenants.acquire(name)
	if aerr != nil {
		aerr.write(w)
		return
	}
	defer s.tenants.release(t)
	fn(t)
}

// rejectDegraded enforces the fail-closed durability policy: while a
// fail-closed tenant's session is degraded (the WAL is detached and every
// mutation is memory-only), mutating requests are rejected with 503 +
// Retry-After rather than acknowledged into state that a crash would lose.
// Fail-open tenants — and non-mutating endpoints — are never gated. Queries
// count as mutating: query-driven cleaning writes repairs back.
func rejectDegraded(t *tenant) *apiError {
	if t.s.DurabilityPolicy() != core.FailClosed {
		return nil
	}
	if t.s.DurabilityState() != core.DurabilityDegraded {
		return nil
	}
	msg := fmt.Sprintf("tenant %q is fail-closed and its durability is degraded", t.name)
	if err := t.s.DurabilityError(); err != nil {
		msg += ": " + err.Error()
	}
	return &apiError{
		status:     http.StatusServiceUnavailable,
		retryAfter: 5,
		Code:       "durability_degraded",
		Message:    msg,
	}
}

// handleQuery is the streaming query path: admission gate, then NDJSON.
// Once the schema line is out the HTTP status is committed — a later
// failure is reported in the stream's trailer, never by a status rewrite.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	release, rej := s.admit(r.Context())
	if rej != nil {
		rej.write(w)
		return
	}
	defer release()
	s.withTenant(w, r, func(t *tenant) {
		if aerr := rejectDegraded(t); aerr != nil {
			aerr.write(w)
			return
		}
		body, aerr := s.readBody(w, r)
		if aerr != nil {
			aerr.write(w)
			return
		}
		query := strings.TrimSpace(string(body))
		if query == "" {
			(&apiError{status: http.StatusBadRequest, Code: "empty_query", Message: "request body must be SQL text"}).write(w)
			return
		}
		ctx := r.Context()
		if ms := r.URL.Query().Get("timeout_ms"); ms != "" {
			d, err := strconv.Atoi(ms)
			if err != nil || d <= 0 {
				(&apiError{status: http.StatusBadRequest, Code: "bad_timeout", Message: "timeout_ms must be a positive integer"}).write(w)
				return
			}
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, time.Duration(d)*time.Millisecond)
			defer cancel()
		}
		// ?trace=1 asks for the span tree in the trailer; a configured slow
		// log traces every query so an offender's entry always has one.
		wantTrace := r.URL.Query().Get("trace") == "1"
		var opts []core.QueryOption
		if wantTrace || s.slow != nil {
			opts = append(opts, core.WithTrace())
		}
		t0 := time.Now()
		rows, err := t.s.QueryContext(ctx, query, opts...)
		if err != nil {
			mapQueryError(err, query).write(w)
			return
		}
		defer rows.Close()
		n := streamRows(w, rows, wantTrace)
		if dur := time.Since(t0); s.slow != nil && dur >= s.cfg.SlowQueryThreshold {
			s.recordSlow(t.name, query, dur, n, rows.Trace())
		}
	})
}

// recordSlow appends one slow-query event to the ring and emits its
// structured log line with the compacted span tree.
func (s *Server) recordSlow(tenant, query string, dur time.Duration, rows int, tr *trace.Trace) {
	e := slowEntry{
		Time: time.Now(), Tenant: tenant, Query: query,
		DurationMS: float64(dur) / float64(time.Millisecond), Rows: rows,
	}
	compact := ""
	if tr != nil {
		e.Trace = tr.Tree()
		compact = tr.Compact()
	}
	s.slow.record(e)
	s.cfg.Logf("slow query: tenant=%q dur=%v rows=%d query=%q trace=%s",
		tenant, dur.Round(time.Microsecond), rows, query, compact)
}

// handleDebugSlow serves the slow-query ring, newest first.
func (s *Server) handleDebugSlow(w http.ResponseWriter, r *http.Request) {
	if s.slow == nil {
		writeOK(w, map[string]any{"enabled": false, "slow": []slowEntry{}})
		return
	}
	writeOK(w, map[string]any{
		"enabled":      true,
		"threshold_ms": float64(s.cfg.SlowQueryThreshold) / float64(time.Millisecond),
		"slow":         s.slow.entries(),
	})
}

// rowBatch is how many row lines streamRows encodes into its buffer before
// one Write and one Flush.
const rowBatch = 64

// streamRows writes the NDJSON protocol: schema header, one line per row,
// mandatory trailer, and returns the number of rows streamed. Rows are
// encoded into one buffer and written and flushed every rowBatch lines, so
// long streams progress through proxies and slow readers. includeTrace
// embeds the query's span tree in the success trailer.
func streamRows(w http.ResponseWriter, rows *core.Rows, includeTrace bool) int {
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)

	sch := rows.Schema()
	cols := make([]map[string]string, 0, 4)
	var names []string
	if sch != nil {
		for _, c := range sch.Columns() {
			cols = append(cols, map[string]string{"name": c.Name, "kind": c.Kind.String()})
		}
		names = sch.Names()
	}
	_ = enc.Encode(map[string]any{"schema": cols})

	rowEnc := newRowEncoder(names)
	var buf []byte
	n, sent := 0, 0
	for rows.Next() {
		buf = rowEnc.appendRow(buf, rows.Row())
		n++
		if n%rowBatch == 0 {
			if _, err := w.Write(buf); err != nil {
				// The client went away mid-write; nothing more to send.
				return sent
			}
			buf, sent = buf[:0], n
			if flusher != nil {
				flusher.Flush()
			}
		}
	}
	if len(buf) > 0 {
		if _, err := w.Write(buf); err != nil {
			return sent
		}
	}
	if err := rows.Err(); err != nil {
		_ = enc.Encode(map[string]any{"error": mapQueryError(err, "")})
	} else {
		trailer := map[string]any{"done": true, "rows": n}
		if tr := rows.Trace(); includeTrace && tr != nil {
			trailer["trace"] = tr.Tree()
		}
		_ = enc.Encode(trailer)
	}
	if flusher != nil {
		flusher.Flush()
	}
	return n
}

// handleTables registers a relation from a CSV body (?name= names it).
func (s *Server) handleTables(w http.ResponseWriter, r *http.Request) {
	s.withTenant(w, r, func(t *tenant) {
		if aerr := rejectDegraded(t); aerr != nil {
			aerr.write(w)
			return
		}
		name := r.URL.Query().Get("name")
		if name == "" {
			(&apiError{status: http.StatusBadRequest, Code: "missing_name", Message: "?name= is required"}).write(w)
			return
		}
		body, aerr := s.readBody(w, r)
		if aerr != nil {
			aerr.write(w)
			return
		}
		tb, err := table.ReadCSV(name, strings.NewReader(string(body)), nil)
		if err != nil {
			(&apiError{status: http.StatusBadRequest, Code: "bad_csv", Message: err.Error()}).write(w)
			return
		}
		if err := t.s.Register(tb); err != nil {
			(&apiError{status: http.StatusConflict, Code: "register_failed", Message: err.Error()}).write(w)
			return
		}
		writeOK(w, map[string]any{"table": name, "rows": tb.Len()})
	})
}

// handleRules binds a denial constraint from its text form, e.g.
// "phi@cities: !(t1.zip=t2.zip & t1.city!=t2.city)".
func (s *Server) handleRules(w http.ResponseWriter, r *http.Request) {
	s.withTenant(w, r, func(t *tenant) {
		if aerr := rejectDegraded(t); aerr != nil {
			aerr.write(w)
			return
		}
		body, aerr := s.readBody(w, r)
		if aerr != nil {
			aerr.write(w)
			return
		}
		rule, err := dc.Parse(strings.TrimSpace(string(body)))
		if err != nil {
			(&apiError{status: http.StatusBadRequest, Code: "bad_rule", Message: err.Error()}).write(w)
			return
		}
		if err := t.s.AddRule(rule); err != nil {
			(&apiError{status: http.StatusConflict, Code: "rule_failed", Message: err.Error()}).write(w)
			return
		}
		writeOK(w, map[string]any{"rule": rule.Name})
	})
}

// handleClean starts a background full clean of ?table= under ?rule=.
func (s *Server) handleClean(w http.ResponseWriter, r *http.Request) {
	s.withTenant(w, r, func(t *tenant) {
		if aerr := rejectDegraded(t); aerr != nil {
			aerr.write(w)
			return
		}
		tbl, rule := r.URL.Query().Get("table"), r.URL.Query().Get("rule")
		if tbl == "" || rule == "" {
			(&apiError{status: http.StatusBadRequest, Code: "missing_param", Message: "?table= and ?rule= are required"}).write(w)
			return
		}
		if t.s.Table(tbl) == nil {
			(&apiError{status: http.StatusNotFound, Code: "unknown_table", Message: fmt.Sprintf("table %q is not registered", tbl)}).write(w)
			return
		}
		started := t.s.CleanInBackground(tbl, rule)
		writeOK(w, map[string]any{"started": started})
	})
}

// statusReply is the /v1/status body.
type statusReply struct {
	Tenant   string        `json:"tenant"`
	Epoch    uint64        `json:"epoch"`
	Tables   []string      `json:"tables"`
	Rules    []string      `json:"rules"`
	Cleaning []cleaningJob `json:"cleaning"`
	Durable  bool          `json:"durable"`
	// DurabilityState is where the session sits in the durability lifecycle:
	// memory, healthy, retrying, degraded, or reattached.
	DurabilityState string `json:"durability_state"`
	// DurabilityPolicy is the tenant's degraded-mode contract: fail-open
	// (keep serving memory-only) or fail-closed (mutations rejected with
	// 503 while degraded).
	DurabilityPolicy string `json:"durability_policy"`
	// DurabilityError is the failure that opened the current unhealthy
	// durability period, empty once recovered.
	DurabilityError string `json:"durability_error,omitempty"`
	Draining        bool   `json:"draining"`
	// Fingerprints maps table name to the full-precision fingerprint of its
	// probabilistic state. Populated only for ?fingerprints=1 — it hashes
	// every table byte, so it is a convergence-checking tool, not a health
	// probe.
	Fingerprints map[string]string `json:"fingerprints,omitempty"`
}

type cleaningJob struct {
	Table     string  `json:"table"`
	Rule      string  `json:"rule"`
	State     string  `json:"state"`
	RowsDone  int     `json:"rows_done"`
	RowsTotal int     `json:"rows_total"`
	Progress  float64 `json:"progress"`
	ETASec    float64 `json:"eta_seconds"`
	// Adaptive chunk controller state: current chunk size, chunks run so
	// far, the latest chunk's latency, and the latency target the controller
	// steers toward.
	ChunkRows   int     `json:"chunk_rows"`
	ChunksDone  int     `json:"chunks_done"`
	LastChunkMS float64 `json:"last_chunk_ms"`
	TargetMS    float64 `json:"target_chunk_ms"`
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	s.withTenant(w, r, func(t *tenant) {
		rep := statusReply{
			Tenant:           t.name,
			Epoch:            t.s.Epoch(),
			Tables:           []string{},
			Rules:            []string{},
			Cleaning:         []cleaningJob{},
			Durable:          s.cfg.Root != "",
			DurabilityState:  t.s.DurabilityState().String(),
			DurabilityPolicy: t.s.DurabilityPolicy().String(),
			Draining:         s.draining.Load(),
		}
		rep.Tables = append(rep.Tables, t.s.TableNames()...)
		if r.URL.Query().Get("fingerprints") == "1" {
			rep.Fingerprints = make(map[string]string, len(rep.Tables))
			for _, name := range rep.Tables {
				if pt := t.s.Table(name); pt != nil {
					rep.Fingerprints[name] = pt.Fingerprint()
				}
			}
		}
		for _, rule := range t.s.Rules() {
			rep.Rules = append(rep.Rules, rule.Name)
		}
		if err := t.s.DurabilityError(); err != nil {
			rep.DurabilityError = err.Error()
		}
		for _, job := range t.s.CleaningStatus() {
			cj := cleaningJob{
				Table:       job.Table,
				Rule:        job.Rule,
				State:       job.State.String(),
				RowsDone:    job.RowsDone,
				RowsTotal:   job.RowsTotal,
				ETASec:      job.ETA.Seconds(),
				ChunkRows:   job.ChunkRows,
				ChunksDone:  job.ChunksDone,
				LastChunkMS: float64(job.LastChunkDuration) / float64(time.Millisecond),
				TargetMS:    float64(job.TargetChunkTime) / float64(time.Millisecond),
			}
			if job.RowsTotal > 0 {
				cj.Progress = float64(job.RowsDone) / float64(job.RowsTotal)
			}
			rep.Cleaning = append(rep.Cleaning, cj)
		}
		writeOK(w, rep)
	})
}

// handleMetrics renders every live tenant's registry as Prometheus text,
// each sample labeled tenant="name". ?format=json returns the snapshots
// keyed by tenant instead.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	tenants := s.tenants.snapshotTenants()
	if r.URL.Query().Get("format") == "json" {
		byTenant := make(map[string]any, len(tenants))
		for _, t := range tenants {
			byTenant[t.name] = t.s.MetricsSnapshot()
		}
		writeOK(w, byTenant)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	for _, t := range tenants {
		t.s.MetricsRegistry().WritePrometheus(w, fmt.Sprintf("tenant=%q", t.name))
	}
}

// healthzReply is the /healthz body: overall status plus the durability
// state of every live tenant, so one probe shows which tenant is degraded
// and under which policy.
type healthzReply struct {
	Status   string                   `json:"status"` // "ok", "degraded", or "draining"
	Draining bool                     `json:"draining"`
	Tenants  map[string]healthzTenant `json:"tenants"`
}

type healthzTenant struct {
	DurabilityState  string `json:"durability_state"`
	DurabilityPolicy string `json:"durability_policy"`
}

// handleHealthz reports 200 with a JSON body while serving. A degraded
// tenant flips the body's status to "degraded" but only costs the 200 when
// its policy is fail-closed — a fail-open tenant degrading is an alert, not
// an outage, and restarting the process (what a failing liveness probe does)
// would lose its memory-only state.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	rep := healthzReply{
		Status:   "ok",
		Draining: s.draining.Load(),
		Tenants:  map[string]healthzTenant{},
	}
	code := http.StatusOK
	for _, t := range s.tenants.snapshotTenants() {
		st, pol := t.s.DurabilityState(), t.s.DurabilityPolicy()
		rep.Tenants[t.name] = healthzTenant{
			DurabilityState:  st.String(),
			DurabilityPolicy: pol.String(),
		}
		if st == core.DurabilityDegraded || st == core.DurabilityRetrying {
			rep.Status = "degraded"
			if pol == core.FailClosed {
				code = http.StatusServiceUnavailable
			}
		}
	}
	if rep.Draining {
		rep.Status = "draining"
		code = http.StatusServiceUnavailable
	}
	if code != http.StatusOK {
		w.Header().Set("Retry-After", "10")
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(rep)
}

func writeOK(w http.ResponseWriter, body any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(body)
}
