package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"daisy/internal/core"
	"daisy/internal/dc"
	"daisy/internal/metrics"
	"daisy/internal/server"
)

const serveRule = "phi@cities: !(t1.zip=t2.zip & t1.city!=t2.city)"

// serveStats accumulates the load run's outcome counts. bodiesCut is the
// serve smoke's core assertion: a 200 NDJSON response whose stream ended
// without a trailer line was dropped mid-body — exactly what graceful drain
// must never do.
type serveStats struct {
	latency *metrics.Histogram // successful query round-trip seconds

	ok          atomic.Int64 // 200 with complete body
	rejected429 atomic.Int64 // queue_full / admission_timeout
	unavail503  atomic.Int64 // draining / session_closed
	refused     atomic.Int64 // transport errors (listener already gone)
	failed      atomic.Int64 // any other status
	bodiesCut   atomic.Int64 // 200 streams missing their trailer
}

// runServe is the HTTP serving benchmark and smoke: a closed-loop load
// generator (mixed query + background-clean traffic) against either an
// in-process server (default) or a running daisy-serve (-url), reporting
// latency quantiles, the 429/503 rates, and whether every response body was
// complete. An uninterrupted in-process run ends with a converged-fingerprint
// check against an in-memory oracle. -phase verify -dir reopens a durable
// tenant root after the fact (CI runs it after SIGTERMing the server
// mid-load) and performs the same oracle comparison offline.
func runServe(ctx context.Context, parallel, totalQueries, rows int, dir, url, phase string) error {
	if rows < 400 {
		return fmt.Errorf("serve: -rows must be >= 400")
	}
	if phase == "verify" {
		return serveVerify(ctx, dir, rows)
	}
	if parallel < 1 {
		return fmt.Errorf("serve: -parallel must be >= 1")
	}

	base := url
	var srv *server.Server
	if base == "" {
		// In-process server on a loopback listener: same code path as
		// daisy-serve, no port to coordinate.
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		srv = server.New(server.Config{
			Root:         dir,
			MaxInflight:  parallel,
			MaxQueue:     2 * parallel,
			QueueTimeout: 2 * time.Second,
		})
		httpSrv := &http.Server{Handler: srv.Handler()}
		go func() { _ = httpSrv.Serve(ln) }()
		defer func() { _ = httpSrv.Close(); srv.Close() }()
		base = "http://" + ln.Addr().String()
	}

	client := &http.Client{}
	if err := serveSeed(ctx, client, base, rows); err != nil {
		return err
	}
	// The marker CI keys its SIGTERM timing off: load starts past this line.
	fmt.Printf("serve: seeded rows=%d url=%s parallel=%d queries=%d\n", rows, base, parallel, totalQueries)

	stats := &serveStats{latency: metrics.NewHistogram(metrics.LatencyBuckets)}
	groups := rows / 4
	start := time.Now()
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < parallel; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				serveOp(ctx, client, base, i, groups, stats)
			}
		}()
	}
dispatch:
	for i := 0; i < totalQueries; i++ {
		select {
		case next <- i:
		case <-ctx.Done():
			break dispatch
		}
	}
	close(next)
	wg.Wait()
	elapsed := time.Since(start)

	done := stats.ok.Load() + stats.rejected429.Load() + stats.unavail503.Load() +
		stats.refused.Load() + stats.failed.Load()
	bodiesComplete := stats.bodiesCut.Load() == 0
	ms := func(q float64) float64 { return stats.latency.Quantile(q) * 1000 }
	fmt.Printf("serve: requests=%d ok=%d rejected_429=%d unavailable_503=%d refused=%d failed=%d bodies_complete=%v\n",
		done, stats.ok.Load(), stats.rejected429.Load(), stats.unavail503.Load(),
		stats.refused.Load(), stats.failed.Load(), bodiesComplete)
	fmt.Printf("serve: wall=%s qps=%.1f p50_ms=%.3f p95_ms=%.3f p99_ms=%.3f rate_429=%.3f\n",
		elapsed.Round(time.Millisecond), float64(stats.ok.Load())/elapsed.Seconds(),
		ms(0.50), ms(0.95), ms(0.99),
		float64(stats.rejected429.Load())/float64(max64(done, 1)))
	if !bodiesComplete {
		return fmt.Errorf("serve: %d responses were cut mid-body", stats.bodiesCut.Load())
	}
	if stats.failed.Load() > 0 {
		return fmt.Errorf("serve: %d requests failed with unexpected statuses", stats.failed.Load())
	}

	if ctx.Err() != nil {
		fmt.Println("serve: interrupted; fingerprint_check=skipped")
		return nil
	}
	if err := serveFingerprintCheck(ctx, client, base, rows); err != nil {
		// A server that was SIGTERMed under us drained away mid-run: every
		// in-flight body completed (asserted above), and the durable state
		// check belongs to -phase verify. Only a reachable-but-diverged
		// server is a failure here.
		var unreachable *serverGoneError
		if errors.As(err, &unreachable) {
			fmt.Printf("serve: fingerprint_check=skipped (%v)\n", unreachable.err)
			return nil
		}
		return err
	}
	return nil
}

// serverGoneError marks a fingerprint check that could not run because the
// target server is no longer reachable (drained and exited).
type serverGoneError struct{ err error }

func (e *serverGoneError) Error() string { return fmt.Sprintf("server unreachable: %v", e.err) }

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// serveSeed registers the cities relation and FD rule through the admin
// endpoints, the same way an external client would.
func serveSeed(ctx context.Context, client *http.Client, base string, rows int) error {
	var csv bytes.Buffer
	if err := durabilityTable(rows).WriteCSV(&csv); err != nil {
		return err
	}
	for _, step := range []struct{ path, body string }{
		{"/v1/tables?name=cities", csv.String()},
		{"/v1/rules", serveRule},
	} {
		req, err := http.NewRequestWithContext(ctx, "POST", base+step.path, strings.NewReader(step.body))
		if err != nil {
			return err
		}
		resp, err := client.Do(req)
		if err != nil {
			return fmt.Errorf("serve: seed %s: %w", step.path, err)
		}
		body := readSmall(resp)
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("serve: seed %s: status %d: %s", step.path, resp.StatusCode, body)
		}
	}
	return nil
}

// serveOp issues one operation of the mixed workload: mostly range-scan
// queries, with every tenth op kicking the background cleaner — so drain
// always races live sweep traffic in the smoke.
func serveOp(ctx context.Context, client *http.Client, base string, i, groups int, st *serveStats) {
	var req *http.Request
	var err error
	isQuery := i%10 != 9
	if isQuery {
		span := groups / 20
		lo := (i * 13) % (groups - span)
		q := fmt.Sprintf("SELECT zip, city FROM cities WHERE zip >= %d AND zip < %d", lo, lo+span)
		req, err = http.NewRequestWithContext(ctx, "POST", base+"/v1/query", strings.NewReader(q))
	} else {
		req, err = http.NewRequestWithContext(ctx, "POST", base+"/v1/clean?table=cities&rule=phi", nil)
	}
	if err != nil {
		st.failed.Add(1)
		return
	}
	t0 := time.Now()
	resp, err := client.Do(req)
	if err != nil {
		// The server went away (drain finished, listener closed) or our own
		// ctx fired: not a protocol violation, the request never started.
		st.refused.Add(1)
		return
	}
	switch resp.StatusCode {
	case http.StatusOK:
		if isQuery {
			if !drainNDJSON(resp) {
				st.bodiesCut.Add(1)
				return
			}
			st.latency.ObserveDuration(time.Since(t0))
		} else {
			readSmall(resp)
		}
		st.ok.Add(1)
	case http.StatusTooManyRequests:
		readSmall(resp)
		st.rejected429.Add(1)
	case http.StatusServiceUnavailable:
		readSmall(resp)
		st.unavail503.Add(1)
	default:
		body := readSmall(resp)
		if st.failed.Add(1) == 1 {
			fmt.Fprintf(os.Stderr, "serve: unexpected status %d: %s\n", resp.StatusCode, body)
		}
	}
}

// drainNDJSON consumes a streaming query response and reports whether it
// ended with the protocol's mandatory trailer ({"done":...} or {"error":...}).
func drainNDJSON(resp *http.Response) bool {
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	last := ""
	for sc.Scan() {
		if t := strings.TrimSpace(sc.Text()); t != "" {
			last = t
		}
	}
	if sc.Err() != nil {
		return false
	}
	return strings.Contains(last, `"done"`) || strings.Contains(last, `"error"`)
}

func readSmall(resp *http.Response) string {
	defer resp.Body.Close()
	var b bytes.Buffer
	_, _ = b.ReadFrom(resp.Body)
	return b.String()
}

// serveOracleFingerprint computes the converged table bytes the served state
// must match: an in-memory session over the identical seed, fully cleaned.
// FD cleaning converges to byte-identical table bytes regardless of
// interleaving, so the oracle is independent of the traffic the server saw.
func serveOracleFingerprint(ctx context.Context, rows int) (string, error) {
	s := core.NewSession(core.Options{Strategy: core.StrategyIncremental})
	defer s.Close()
	if err := s.Register(durabilityTable(rows)); err != nil {
		return "", err
	}
	if err := s.AddRule(dc.FD("phi", "cities", "city", "zip")); err != nil {
		return "", err
	}
	if !s.CleanInBackground("cities", "phi") {
		return "", errors.New("serve: oracle CleanInBackground refused")
	}
	if err := s.WaitCleaning(ctx); err != nil {
		return "", err
	}
	return s.Table("cities").Fingerprint(), nil
}

// serveFingerprintCheck drives the served tenant to quiescence (kick a full
// clean, poll /v1/status until no job is running) and compares its table
// fingerprint against the oracle.
func serveFingerprintCheck(ctx context.Context, client *http.Client, base string, rows int) error {
	req, _ := http.NewRequestWithContext(ctx, "POST", base+"/v1/clean?table=cities&rule=phi", nil)
	if resp, err := client.Do(req); err == nil {
		readSmall(resp)
	}
	deadline := time.Now().Add(2 * time.Minute)
	var status struct {
		Cleaning []struct {
			State string `json:"state"`
		} `json:"cleaning"`
		Fingerprints map[string]string `json:"fingerprints"`
	}
	for {
		req, _ := http.NewRequestWithContext(ctx, "GET", base+"/v1/status?fingerprints=1", nil)
		resp, err := client.Do(req)
		if err != nil {
			return &serverGoneError{err: err}
		}
		if resp.StatusCode == http.StatusServiceUnavailable {
			readSmall(resp)
			return &serverGoneError{err: errors.New("server draining")}
		}
		status.Cleaning = nil
		err = json.NewDecoder(resp.Body).Decode(&status)
		resp.Body.Close()
		if err != nil {
			return fmt.Errorf("serve: status decode: %w", err)
		}
		active := false
		for _, job := range status.Cleaning {
			if job.State == "pending" || job.State == "running" {
				active = true
			}
		}
		if !active {
			break
		}
		if time.Now().After(deadline) {
			return errors.New("serve: cleaning did not quiesce within 2m")
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(50 * time.Millisecond):
		}
	}
	want, err := serveOracleFingerprint(ctx, rows)
	if err != nil {
		return err
	}
	got := status.Fingerprints["cities"]
	fmt.Printf("serve: converged_fingerprint_match=%v\n", got == want)
	if got != want {
		return errors.New("serve: served state diverged from the in-memory oracle")
	}
	return nil
}

// serveVerify is the offline half of the smoke: reopen the durable tenant
// root the server was killed over, resume/complete its cleaning, and compare
// the recovered table bytes against the oracle.
func serveVerify(ctx context.Context, root string, rows int) error {
	if root == "" {
		return errors.New("serve: -phase verify requires -dir (the server's tenant root)")
	}
	s, err := core.Open(core.Options{Dir: filepath.Join(root, "default")})
	if err != nil {
		return err
	}
	defer s.Close()
	if s.Table("cities") == nil {
		return errors.New("serve: recovered tenant has no cities table — seeding never landed")
	}
	resumed := len(s.CleaningStatus())
	s.CleanInBackground("cities", "phi")
	if err := s.WaitCleaning(ctx); err != nil {
		return err
	}
	got := s.Table("cities").Fingerprint()
	want, err := serveOracleFingerprint(ctx, rows)
	if err != nil {
		return err
	}
	fmt.Printf("serve: resumed_jobs=%d epoch=%d fingerprint_match=%v\n", resumed, s.Epoch(), got == want)
	if got != want {
		return errors.New("serve: recovered state diverged from the in-memory oracle")
	}
	return nil
}
