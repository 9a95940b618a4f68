// Package server is Daisy's HTTP front-end: a stdlib-only serving layer that
// exposes cleaning sessions over a small JSON/NDJSON protocol. One Server
// owns a registry of per-tenant Sessions (lazily opened, idle-evicted when
// durable), a bounded admission gate in front of the query path, and the
// /metrics exposition of every tenant's instrument registry.
//
// Endpoints:
//
//	POST /v1/query    SQL text body -> NDJSON stream (schema, rows, trailer)
//	POST /v1/tables   CSV body (?name=) -> register a relation
//	POST /v1/rules    denial-constraint text body -> bind a rule
//	POST /v1/clean    ?table=&rule= -> start a background full clean
//	GET  /v1/status   epoch, tables, cleaning jobs, durability state
//	GET  /metrics     Prometheus text (all tenants, tenant="..." labels)
//	GET  /healthz     200 while serving, 503 once draining
//
// The query protocol is NDJSON with a mandatory trailer: the first line is
// {"schema": [...]}, each row is {"row": {...}}, and the stream always ends
// with {"done": true, "rows": N} on success or {"error": {...}} after a
// mid-stream failure — a client that never sees a trailer knows the response
// was cut, so "no request dropped mid-body" is checkable from the outside.
//
// Admission is two bounds, not one: at most MaxInflight queries execute (or
// stream) at once, and at most MaxQueue more wait for a slot, each wait
// capped by QueueTimeout and the request's own deadline. Overflow and
// timeout map to 429 with Retry-After; everything past the gate is bounded
// work. Drain (SIGTERM in daisy-serve) stops admission with 503s, waits for
// in-flight streams to finish, then quiesces every tenant: background
// cleaning completes, durable state checkpoints, sessions close.
package server

import (
	"context"
	"fmt"
	"net/http"
	"regexp"
	"sync"
	"sync/atomic"
	"time"

	"daisy/internal/core"
	"daisy/internal/trace"
)

// Config tunes a Server. The zero value serves in-memory tenants with
// sensible bounds.
type Config struct {
	// Root, when set, makes tenants durable: tenant name X opens (and
	// recovers) the session directory Root/X. Empty serves in-memory
	// tenants, created on first use and kept for the server's lifetime.
	Root string
	// Session is the option template every tenant session is opened with
	// (Dir is overridden per tenant from Root). Sessions have no admission
	// gate of their own: the server's bounds concurrency.
	Session core.Options
	// MaxInflight caps queries executing or streaming simultaneously
	// (default 32).
	MaxInflight int
	// MaxQueue caps queries waiting for an inflight slot (default 64);
	// further arrivals are rejected immediately with 429 queue_full.
	MaxQueue int
	// QueueTimeout caps one query's wait for a slot (default 2s); a request
	// deadline shorter than this wins. Expiry maps to 429 admission_timeout
	// with Retry-After.
	QueueTimeout time.Duration
	// MaxBodyBytes bounds request bodies — SQL text, CSV uploads, rule text
	// (default 8 MiB). Overflow maps to 413.
	MaxBodyBytes int64
	// IdleTimeout evicts a durable tenant session after this long without a
	// request: background cleaning finishes, the state checkpoints, and the
	// session closes (a later request reopens it from disk). Default 10m;
	// negative disables. In-memory tenants are never evicted — eviction
	// would discard their state.
	IdleTimeout time.Duration
	// PolicyFor selects the durability policy per tenant; nil applies
	// Session.Policy to every tenant. Fail-closed tenants have mutating
	// requests rejected with 503 + Retry-After while their session is
	// degraded (memory-only); fail-open tenants keep serving.
	PolicyFor func(tenant string) core.DurabilityPolicy
	// Logf, when set, receives one line per lifecycle event (tenant open,
	// eviction, drain progress). Default discards.
	Logf func(format string, args ...any)
	// SlowQueryThreshold, when positive, makes every query slower than this
	// a slow-query event: recorded in the in-memory ring served by
	// GET /v1/debug/slow plus one structured Logf line with the compacted
	// span tree. Whether a query will be slow is unknowable up front, so a
	// positive threshold traces every query — that is the cost of always
	// having the span tree on the offender. Zero disables the log.
	SlowQueryThreshold time.Duration
	// SlowQueryLogSize bounds the slow-query ring buffer (default 128).
	SlowQueryLogSize int
}

func (c *Config) defaults() {
	if c.MaxInflight <= 0 {
		c.MaxInflight = 32
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 64
	}
	if c.QueueTimeout <= 0 {
		c.QueueTimeout = 2 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	if c.IdleTimeout == 0 {
		c.IdleTimeout = 10 * time.Minute
	}
	if c.SlowQueryLogSize <= 0 {
		c.SlowQueryLogSize = 128
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
}

// policyFor resolves one tenant's durability policy.
func (c *Config) policyFor(tenant string) core.DurabilityPolicy {
	if c.PolicyFor != nil {
		return c.PolicyFor(tenant)
	}
	return c.Session.Policy
}

// Server is the HTTP front-end. Construct with New, mount Handler on an
// http.Server, and call Drain then Close on shutdown.
type Server struct {
	cfg Config
	mux *http.ServeMux

	// inflight is the admission gate: a buffered channel used as a counting
	// semaphore over executing-or-streaming queries. queued counts waiters
	// (bounded by MaxQueue) without allocating a second channel.
	inflight chan struct{}
	queued   atomic.Int64

	draining atomic.Bool
	tenants  *tenantRegistry
	slow     *slowLog // nil unless SlowQueryThreshold > 0
}

// slowLog is a fixed-size ring of the most recent slow-query events.
type slowLog struct {
	mu   sync.Mutex
	buf  []slowEntry
	next int // write position
	n    int // entries recorded (saturates at len(buf))
}

// slowEntry is one offending query as served by /v1/debug/slow.
type slowEntry struct {
	Time       time.Time   `json:"time"`
	Tenant     string      `json:"tenant"`
	Query      string      `json:"query"`
	DurationMS float64     `json:"duration_ms"`
	Rows       int         `json:"rows"`
	Trace      *trace.Node `json:"trace,omitempty"`
}

func newSlowLog(size int) *slowLog { return &slowLog{buf: make([]slowEntry, size)} }

func (l *slowLog) record(e slowEntry) {
	l.mu.Lock()
	l.buf[l.next] = e
	l.next = (l.next + 1) % len(l.buf)
	if l.n < len(l.buf) {
		l.n++
	}
	l.mu.Unlock()
}

// entries returns the recorded events, newest first.
func (l *slowLog) entries() []slowEntry {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]slowEntry, 0, l.n)
	for i := 1; i <= l.n; i++ {
		out = append(out, l.buf[(l.next-i+len(l.buf))%len(l.buf)])
	}
	return out
}

// New builds a Server. It performs no I/O: tenant sessions open lazily on
// first request.
func New(cfg Config) *Server {
	cfg.defaults()
	s := &Server{
		cfg:      cfg,
		inflight: make(chan struct{}, cfg.MaxInflight),
	}
	if cfg.SlowQueryThreshold > 0 {
		s.slow = newSlowLog(cfg.SlowQueryLogSize)
	}
	s.tenants = newTenantRegistry(&s.cfg)
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/query", s.handleQuery)
	s.mux.HandleFunc("POST /v1/tables", s.handleTables)
	s.mux.HandleFunc("POST /v1/rules", s.handleRules)
	s.mux.HandleFunc("POST /v1/clean", s.handleClean)
	s.mux.HandleFunc("GET /v1/status", s.handleStatus)
	s.mux.HandleFunc("GET /v1/debug/slow", s.handleDebugSlow)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	return s
}

// Handler returns the root handler to mount on an http.Server.
func (s *Server) Handler() http.Handler { return s.mux }

// Draining reports whether Drain has started.
func (s *Server) Draining() bool { return s.draining.Load() }

// tenantName is the accepted form of the X-Daisy-Tenant header; the empty
// header means "default".
var tenantName = regexp.MustCompile(`^[A-Za-z0-9_-]{1,64}$`)

// admit passes the request through the two-level admission gate and returns
// the slot-release closure, or the rejection to send. The wait is bounded by
// QueueTimeout and the request context, whichever ends first.
func (s *Server) admit(ctx context.Context) (release func(), rej *apiError) {
	if s.draining.Load() {
		return nil, errDraining()
	}
	select {
	case s.inflight <- struct{}{}:
		return s.releaseFunc(), nil
	default:
	}
	if s.queued.Add(1) > int64(s.cfg.MaxQueue) {
		s.queued.Add(-1)
		return nil, &apiError{
			status:     http.StatusTooManyRequests,
			retryAfter: 1,
			Code:       "queue_full",
			Message:    fmt.Sprintf("admission queue full (%d waiting)", s.cfg.MaxQueue),
		}
	}
	defer s.queued.Add(-1)
	timer := time.NewTimer(s.cfg.QueueTimeout)
	defer timer.Stop()
	select {
	case s.inflight <- struct{}{}:
		// A slot freed while draining flipped: reject anyway — drain must
		// not admit new work after it starts waiting on inflight.
		if s.draining.Load() {
			<-s.inflight
			return nil, errDraining()
		}
		return s.releaseFunc(), nil
	case <-timer.C:
		return nil, &apiError{
			status:     http.StatusTooManyRequests,
			retryAfter: retryAfterSeconds(s.cfg.QueueTimeout),
			Code:       "admission_timeout",
			Message:    fmt.Sprintf("no execution slot within %v", s.cfg.QueueTimeout),
		}
	case <-ctx.Done():
		return nil, &apiError{
			status:  http.StatusGatewayTimeout,
			Code:    "deadline",
			Message: "request deadline expired awaiting admission",
		}
	}
}

// releaseFunc wraps one acquired inflight slot in an idempotent closure —
// the handler defers it, and the streaming path may also call it early.
func (s *Server) releaseFunc() func() {
	var done atomic.Bool
	return func() {
		if done.CompareAndSwap(false, true) {
			<-s.inflight
		}
	}
}

func errDraining() *apiError {
	return &apiError{
		status:     http.StatusServiceUnavailable,
		retryAfter: 10,
		Code:       "draining",
		Message:    "server is draining",
	}
}

func retryAfterSeconds(d time.Duration) int {
	sec := int(d / time.Second)
	if sec < 1 {
		sec = 1
	}
	return sec
}

// Drain stops admitting work and quiesces: new requests get 503s, in-flight
// queries and streams run to their trailers, then every tenant finishes its
// background cleaning, checkpoints (durable tenants), and closes. Bounded by
// ctx; safe to call once (subsequent calls return immediately).
func (s *Server) Drain(ctx context.Context) error {
	if !s.draining.CompareAndSwap(false, true) {
		return nil
	}
	s.cfg.Logf("drain: rejecting new work, waiting for %d inflight", len(s.inflight))
	// Wait for the in-flight count to reach zero by filling the semaphore —
	// each acquired slot is one finished request.
	for i := 0; i < s.cfg.MaxInflight; i++ {
		select {
		case s.inflight <- struct{}{}:
		case <-ctx.Done():
			return fmt.Errorf("server: drain: %d requests still inflight: %w",
				s.cfg.MaxInflight-i, ctx.Err())
		}
	}
	s.cfg.Logf("drain: inflight quiesced, closing tenants")
	return s.tenants.drainAll(ctx)
}

// Close releases every tenant session without waiting for background work —
// the fast path for tests and error exits. Use Drain for graceful shutdown.
func (s *Server) Close() {
	s.draining.Store(true)
	s.tenants.closeAll()
}

// WaitIdle blocks until no request is executing or streaming (testing hook;
// it does not stop admission).
func (s *Server) WaitIdle(ctx context.Context) error {
	for {
		if len(s.inflight) == 0 && s.queued.Load() == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(time.Millisecond):
		}
	}
}

// tenantRegistry lazily opens one Session per tenant and owns their
// lifecycle: refcounted acquisition (eviction never closes a session
// mid-request), idle eviction for durable tenants, and drain.
type tenantRegistry struct {
	cfg *Config

	mu      sync.Mutex
	tenants map[string]*tenant
	closed  bool

	stopJanitor chan struct{}
	janitorDone chan struct{}
}

// tenant is one live session plus its usage bookkeeping. refs and lastUsed
// are written under the registry lock (acquire/release take it), so the
// janitor's read-modify-evict is race-free.
type tenant struct {
	name     string
	s        *core.Session
	refs     int
	lastUsed time.Time
}

func newTenantRegistry(cfg *Config) *tenantRegistry {
	r := &tenantRegistry{
		cfg:         cfg,
		tenants:     make(map[string]*tenant),
		stopJanitor: make(chan struct{}),
		janitorDone: make(chan struct{}),
	}
	if cfg.Root != "" && cfg.IdleTimeout > 0 {
		go r.janitor()
	} else {
		close(r.janitorDone)
	}
	return r
}

// acquire returns the tenant's session, opening it on first use, and pins it
// against eviction until release.
func (r *tenantRegistry) acquire(name string) (*tenant, *apiError) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil, errDraining()
	}
	t, ok := r.tenants[name]
	if !ok {
		opts := r.cfg.Session
		if r.cfg.Root != "" {
			opts.Dir = tenantDir(r.cfg.Root, name)
		} else {
			opts.Dir = ""
		}
		opts.Policy = r.cfg.policyFor(name)
		s, err := core.Open(opts)
		if err != nil {
			return nil, &apiError{
				status:  http.StatusInternalServerError,
				Code:    "tenant_open_failed",
				Message: fmt.Sprintf("open tenant %q: %v", name, err),
			}
		}
		t = &tenant{name: name, s: s}
		r.tenants[name] = t
		r.cfg.Logf("tenant %q: opened (durable=%v)", name, opts.Dir != "")
	}
	t.refs++
	t.lastUsed = time.Now()
	return t, nil
}

func (r *tenantRegistry) release(t *tenant) {
	r.mu.Lock()
	t.refs--
	t.lastUsed = time.Now()
	r.mu.Unlock()
}

// snapshotTenants returns the live tenants (janitor/metrics/drain iterate
// outside the lock).
func (r *tenantRegistry) snapshotTenants() []*tenant {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*tenant, 0, len(r.tenants))
	for _, t := range r.tenants {
		out = append(out, t)
	}
	return out
}

// janitor evicts idle durable tenants: once a session has no pinned request
// and has been idle past IdleTimeout it is removed from the map (new
// requests reopen from disk), its background cleaning completes, the state
// checkpoints, and it closes.
func (r *tenantRegistry) janitor() {
	defer close(r.janitorDone)
	tick := time.NewTicker(r.cfg.IdleTimeout / 4)
	defer tick.Stop()
	for {
		select {
		case <-r.stopJanitor:
			return
		case <-tick.C:
		}
		var evict []*tenant
		r.mu.Lock()
		for name, t := range r.tenants {
			if t.refs == 0 && time.Since(t.lastUsed) > r.cfg.IdleTimeout {
				delete(r.tenants, name)
				evict = append(evict, t)
			}
		}
		r.mu.Unlock()
		for _, t := range evict {
			// Out of the map with refs==0: no request can reach it anymore.
			_ = t.s.WaitCleaning(context.Background())
			_ = t.s.Checkpoint()
			t.s.Close()
			r.cfg.Logf("tenant %q: evicted after idle", t.name)
		}
	}
}

// drainAll quiesces every tenant for shutdown: background cleaning finishes,
// durable state checkpoints, sessions close. New acquisitions fail once it
// starts.
func (r *tenantRegistry) drainAll(ctx context.Context) error {
	r.mu.Lock()
	r.closed = true
	tenants := make([]*tenant, 0, len(r.tenants))
	for _, t := range r.tenants {
		tenants = append(tenants, t)
	}
	r.tenants = map[string]*tenant{}
	r.mu.Unlock()
	close(r.stopJanitor)
	<-r.janitorDone
	var firstErr error
	for _, t := range tenants {
		if err := t.s.WaitCleaning(ctx); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("server: drain tenant %q: %w", t.name, err)
		}
		if err := t.s.Checkpoint(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("server: checkpoint tenant %q: %w", t.name, err)
		}
		t.s.Close()
		r.cfg.Logf("tenant %q: drained and closed", t.name)
	}
	return firstErr
}

// closeAll releases sessions without quiescing (fast shutdown).
func (r *tenantRegistry) closeAll() {
	r.mu.Lock()
	r.closed = true
	tenants := make([]*tenant, 0, len(r.tenants))
	for _, t := range r.tenants {
		tenants = append(tenants, t)
	}
	r.tenants = map[string]*tenant{}
	r.mu.Unlock()
	select {
	case <-r.stopJanitor:
	default:
		close(r.stopJanitor)
	}
	<-r.janitorDone
	for _, t := range tenants {
		t.s.Close()
	}
}
