package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"daisy"
)

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// qres is what the harness observes of one answered query.
type qres struct {
	rows int
	// hash is an FNV-1a fold of every result row: (tuple id, most-probable
	// value of each cell) in process, the raw NDJSON row line over HTTP.
	hash     uint64
	trace    *daisy.TraceNode // traced queries only
	firstRow time.Duration    // HTTP: request written → first row line read
	bytes    int              // HTTP: response body bytes
}

// target is a system under test that answers SQL text: a session in process
// or a tenant behind the HTTP server.
type target interface {
	// query issues text and consumes the whole answer; the caller times it.
	query(ctx context.Context, text string, traced bool) (qres, error)
	// converge sweeps the FD rule in the background until no violation is
	// left.
	converge(ctx context.Context) error
	// fingerprint digests the target's cleaned state. It renders every cell,
	// so it is taken outside timed windows only.
	fingerprint(ctx context.Context) (string, error)
	close()
}

func digest(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:12])
}

// memTarget is a session queried in process.
type memTarget struct{ s *daisy.Session }

// openSession is the in-process set-up: New/Open, Register, AddRule. sp
// (nil when untraced) receives one harness span per call.
func openSession(opts daisy.Options, in *inputs, sp *spans) (*memTarget, error) {
	done := sp.start("open")
	s, err := daisy.Open(opts)
	done()
	if err != nil {
		return nil, err
	}
	done = sp.start("register")
	err = s.Register(in.table)
	done()
	if err == nil {
		done = sp.start("addrule")
		err = s.AddRule(in.rule)
		done()
	}
	if err != nil {
		s.Close()
		return nil, err
	}
	return &memTarget{s: s}, nil
}

func (t *memTarget) query(ctx context.Context, text string, traced bool) (qres, error) {
	var opts []daisy.QueryOption
	if traced {
		opts = append(opts, daisy.WithTrace())
	}
	rows, err := t.s.QueryContext(ctx, text, opts...)
	if err != nil {
		return qres{}, err
	}
	r := qres{hash: fnvOffset}
	for rows.Next() {
		tup := rows.Row()
		r.hash = (r.hash ^ uint64(tup.ID)) * fnvPrime
		for i := range tup.Cells {
			r.hash = (r.hash ^ tup.Cells[i].Value().Key64()) * fnvPrime
		}
		r.rows++
	}
	err = rows.Err()
	rows.Close()
	if traced {
		r.trace = rows.Trace().Tree()
	}
	return r, err
}

func (t *memTarget) converge(ctx context.Context) error {
	if !t.s.CleanInBackground(tableName, fdRule) {
		return fmt.Errorf("CleanInBackground(%s, %s) refused", tableName, fdRule)
	}
	return t.s.WaitCleaning(ctx)
}

func (t *memTarget) fingerprint(context.Context) (string, error) {
	return digest(t.s.StateFingerprint()), nil
}

// tableFingerprint digests the table bytes alone: unlike StateFingerprint it
// leaves out the cost model's query history, so states reached through
// different query sequences compare equal once both have converged.
func (t *memTarget) tableFingerprint() string {
	return digest(t.s.Table(tableName).Fingerprint())
}

// counts digests the table through its maintained per-segment counters:
// O(rows/512), cheap enough for every repetition.
func (t *memTarget) counts() string {
	pt := t.s.Table(tableName)
	return fmt.Sprintf("dirty=%d candidates=%d", pt.DirtyTuples(), pt.CandidateFootprint())
}

func (t *memTarget) close() { t.s.Close() }

// httpTarget is the default tenant of an in-process daisy.Server on a
// loopback listener, driven through the same endpoints an external client
// uses.
type httpTarget struct {
	srv    *daisy.Server
	httpd  *http.Server
	served chan struct{} // closed once Serve has returned
	client *http.Client
	base   string
}

// statusError is a non-200 answer; the meter keeps 429 and 503 apart from
// other failures.
type statusError struct {
	code int
	body string
}

func (e *statusError) Error() string { return fmt.Sprintf("HTTP %d: %s", e.code, e.body) }

// openServer is the HTTP set-up: listener up, CSV POST /v1/tables, POST
// /v1/rules.
func openServer(ctx context.Context, in *inputs, clients int, sp *spans) (*httpTarget, error) {
	done := sp.start("listen")
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		done()
		return nil, err
	}
	t := &httpTarget{
		// The CSV body of the full-scale table is below the 8 MiB default,
		// but only just; the limit is a deployment setting, not the subject.
		srv:    daisy.NewServer(daisy.ServerConfig{MaxInflight: clients, MaxBodyBytes: 64 << 20}),
		served: make(chan struct{}),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients}},
		base:   "http://" + ln.Addr().String(),
	}
	t.httpd = &http.Server{Handler: t.srv.Handler()}
	go func() {
		defer close(t.served)
		_ = t.httpd.Serve(ln) // returns ErrServerClosed on close()
	}()
	done()
	done = sp.start("register")
	_, err = t.do(ctx, http.MethodPost, "/v1/tables?name="+tableName, in.csv)
	done()
	if err == nil {
		done = sp.start("addrule")
		_, err = t.do(ctx, http.MethodPost, "/v1/rules", []byte(in.ruleText))
		done()
	}
	if err != nil {
		t.close()
		return nil, err
	}
	return t, nil
}

// do sends one small-answer request and returns the body of a 200.
func (t *httpTarget) do(ctx context.Context, method, path string, body []byte) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, t.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	resp, err := t.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, &statusError{code: resp.StatusCode, body: string(bytes.TrimSpace(out))}
	}
	return out, nil
}

var (
	rowPrefix   = []byte(`{"row":`)
	donePrefix  = []byte(`{"done":true`)
	errorPrefix = []byte(`{"error":`)
)

// query POSTs the SQL and reads the NDJSON stream to its trailer. A stream
// that ends without {"done":true,...}, or whose trailer disagrees with the
// row lines counted, is an error.
func (t *httpTarget) query(ctx context.Context, text string, traced bool) (qres, error) {
	path := "/v1/query"
	if traced {
		path += "?trace=1"
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, t.base+path, bytes.NewReader([]byte(text)))
	if err != nil {
		return qres{}, err
	}
	t0 := time.Now()
	resp, err := t.client.Do(req)
	if err != nil {
		return qres{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return qres{}, &statusError{code: resp.StatusCode, body: string(bytes.TrimSpace(body))}
	}
	r := qres{hash: fnvOffset}
	br := bufio.NewReaderSize(resp.Body, 64<<10)
	for {
		line, err := br.ReadBytes('\n')
		r.bytes += len(line)
		switch {
		case bytes.HasPrefix(line, rowPrefix):
			if r.rows == 0 {
				r.firstRow = time.Since(t0)
			}
			r.rows++
			for _, b := range line {
				r.hash = (r.hash ^ uint64(b)) * fnvPrime
			}
		case bytes.HasPrefix(line, donePrefix):
			var trailer struct {
				Rows  int              `json:"rows"`
				Trace *daisy.TraceNode `json:"trace"`
			}
			if err := json.Unmarshal(line, &trailer); err != nil {
				return r, fmt.Errorf("trailer: %w", err)
			}
			if trailer.Rows != r.rows {
				return r, fmt.Errorf("trailer says %d rows, stream held %d", trailer.Rows, r.rows)
			}
			r.trace = trailer.Trace
			return r, nil
		case bytes.HasPrefix(line, errorPrefix):
			return r, fmt.Errorf("stream error trailer: %s", bytes.TrimSpace(line))
		}
		if err != nil {
			return r, fmt.Errorf("stream ended without trailer after %d rows: %w", r.rows, err)
		}
	}
}

type serverStatus struct {
	Cleaning []struct {
		State string `json:"state"`
	} `json:"cleaning"`
	Fingerprints map[string]string `json:"fingerprints"`
}

func (t *httpTarget) status(ctx context.Context, fingerprints bool) (serverStatus, error) {
	path := "/v1/status"
	if fingerprints {
		path += "?fingerprints=1"
	}
	var st serverStatus
	body, err := t.do(ctx, http.MethodGet, path, nil)
	if err != nil {
		return st, err
	}
	return st, json.Unmarshal(body, &st)
}

func (t *httpTarget) converge(ctx context.Context) error {
	if _, err := t.do(ctx, http.MethodPost, "/v1/clean?table="+tableName+"&rule="+fdRule, nil); err != nil {
		return err
	}
	for {
		st, err := t.status(ctx, false)
		if err != nil {
			return err
		}
		active := false
		for _, job := range st.Cleaning {
			switch job.State {
			case "pending", "running", "paused":
				active = true
			case "done":
			default:
				return fmt.Errorf("background clean ended %s", job.State)
			}
		}
		if !active {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
	}
}

func (t *httpTarget) fingerprint(ctx context.Context) (string, error) {
	st, err := t.status(ctx, true)
	if err != nil {
		return "", err
	}
	return digest(st.Fingerprints[tableName]), nil
}

func (t *httpTarget) close() {
	_ = t.httpd.Close()
	<-t.served
	t.client.CloseIdleConnections()
	t.srv.Close()
}
